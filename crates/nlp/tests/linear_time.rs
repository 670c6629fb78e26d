//! Tagging and parsing take time linear in the question's length: a
//! question four times as long takes at most eight times as long (quadratic
//! work takes about sixteen). Timings are the minimum of five runs, and the
//! test runs only in release builds (`cargo test --release -p relpat-nlp`).

#[cfg(not(debug_assertions))]
#[test]
fn tag_and_parse_scale_linearly() {
    use std::time::{Duration, Instant};

    fn fastest_parse(tokens: usize) -> Duration {
        let unit = "Which book is written by Orhan Pamuk and ";
        let question = unit.repeat(tokens / unit.split_whitespace().count());
        (0..5)
            .map(|_| {
                let start = Instant::now();
                let graph = relpat_nlp::parse_sentence(&question);
                assert_eq!(graph.tokens.len(), tokens);
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    let small = fastest_parse(20_480);
    let large = fastest_parse(81_920);
    assert!(
        large <= small * 8,
        "81 920 tokens took {large:?}, more than 8x the {small:?} of 20 480 tokens"
    );
}
