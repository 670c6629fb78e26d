//! String similarity for property and entity matching (paper §2.2.1).
//!
//! The paper scores candidates by the *greatest common subsequence*: the
//! score is the subsequence length normalized by word length, which rejects
//! accidental containments like `river` ⊂ `taxiDriver` (their example). We
//! normalize by the length of the longer string, which penalizes both
//! one-sided containments symmetrically.
//!
//! The DP runs allocation-free on a caller-provided [`LcsScratch`]: ASCII
//! inputs are compared byte-wise directly on the string slices; non-ASCII
//! inputs decode into a reusable char buffer. The `_pre` variants take an
//! already-lowercased query word so candidate loops normalize once per
//! lookup instead of once per comparison — `to_lowercase()` is idempotent,
//! so they score identically to the plain entry points.

use std::borrow::Cow;

use relpat_kb::Property;

pub use relpat_kb::split_camel_case;

/// Reusable DP scratch for [`lcs_len_with`]: two `u32` rows plus a char
/// buffer for the non-ASCII path. One instance per lookup loop; the rows
/// grow to the longest candidate seen and are then reused.
#[derive(Debug, Default)]
pub struct LcsScratch {
    prev: Vec<u32>,
    cur: Vec<u32>,
    chars_a: Vec<char>,
    chars_b: Vec<char>,
}

fn lcs_dp<T: Copy + PartialEq>(a: &[T], b: &[T], scratch: &mut LcsScratch) -> usize {
    scratch.prev.clear();
    scratch.prev.resize(b.len() + 1, 0);
    scratch.cur.clear();
    scratch.cur.resize(b.len() + 1, 0);
    let (prev, cur) = (&mut scratch.prev, &mut scratch.cur);
    for &ca in a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(prev, cur);
        cur[0] = 0;
    }
    prev[b.len()] as usize
}

/// Length of the longest common subsequence of two strings, reusing
/// `scratch` across calls.
pub fn lcs_len_with(a: &str, b: &str, scratch: &mut LcsScratch) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    if a.is_ascii() && b.is_ascii() {
        return lcs_dp(a.as_bytes(), b.as_bytes(), scratch);
    }
    scratch.chars_a.clear();
    scratch.chars_a.extend(a.chars());
    scratch.chars_b.clear();
    scratch.chars_b.extend(b.chars());
    let (ca, cb) = (std::mem::take(&mut scratch.chars_a), std::mem::take(&mut scratch.chars_b));
    let len = lcs_dp(&ca, &cb, scratch);
    scratch.chars_a = ca;
    scratch.chars_b = cb;
    len
}

/// Length of the longest common subsequence of two ASCII-lowered strings.
pub fn lcs_len(a: &str, b: &str) -> usize {
    lcs_len_with(a, b, &mut LcsScratch::default())
}

/// [`lcs_score`] over already-lowercased inputs with reusable scratch.
pub fn lcs_score_pre(a_lower: &str, b_lower: &str, scratch: &mut LcsScratch) -> f64 {
    let max = a_lower.chars().count().max(b_lower.chars().count());
    if max == 0 {
        return 0.0;
    }
    lcs_len_with(a_lower, b_lower, scratch) as f64 / max as f64
}

/// Similarity score in `[0, 1]`: `lcs / max(|a|, |b|)`, case-insensitive.
///
/// `taxiDriver` vs `river`: lcs = 5, max = 10 → 0.5 (rejected at any
/// reasonable threshold), while `written`→`writer` scores 5/7 ≈ 0.71 and
/// `write`→`writer` 5/6 ≈ 0.83.
pub fn lcs_score(a: &str, b: &str) -> f64 {
    let a = a.to_lowercase();
    let b = b.to_lowercase();
    lcs_score_pre(&a, &b, &mut LcsScratch::default())
}

/// [`property_name_score`] over an already-lowercased word with reusable
/// scratch — the inner-loop form used by the mapper's candidate scans.
pub fn property_name_score_pre(
    word_lower: &str,
    local_name: &str,
    label: &str,
    scratch: &mut LcsScratch,
) -> f64 {
    let name_lower = local_name.to_lowercase();
    let mut best = lcs_score_pre(word_lower, &name_lower, scratch);
    for w in split_camel_case(local_name) {
        if w == word_lower {
            best = best.max(0.95);
        }
    }
    for w in label.to_lowercase().split_whitespace() {
        if w == word_lower {
            best = best.max(0.95);
        } else {
            best = best.max(lcs_score_pre(word_lower, w, scratch) * 0.9);
        }
    }
    best
}

/// [`property_name_score_pre`] over the property's precomputed scoring keys
/// (lowercased name, camel-case words, lowercased label words): the form
/// the mapper's candidate scans use, which allocates nothing.
pub(crate) fn property_keys_score(
    word_lower: &str,
    property: &Property,
    scratch: &mut LcsScratch,
) -> f64 {
    let mut best = lcs_score_pre(word_lower, &property.name_lower, scratch);
    for w in &property.name_words {
        if w == word_lower {
            best = best.max(0.95);
        }
    }
    for w in &property.label_words {
        if w == word_lower {
            best = best.max(0.95);
        } else {
            best = best.max(lcs_score_pre(word_lower, w, scratch) * 0.9);
        }
    }
    best
}

/// `s` lowercased, borrowed when it is ASCII without an uppercase letter.
pub(crate) fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.to_lowercase())
    }
}

/// Similarity between a question word and a property (local name + label):
/// the best of (a) whole-name LCS, (b) exact match against any constituent
/// word of the name/label (scored 0.95 — near-exact, since property names
/// are compounds: `population` hits `populationTotal`).
pub fn property_name_score(word: &str, local_name: &str, label: &str) -> f64 {
    let word = word.to_lowercase();
    property_name_score_pre(&word, local_name, label, &mut LcsScratch::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcs_basics() {
        assert_eq!(lcs_len("abc", "abc"), 3);
        assert_eq!(lcs_len("abc", "axc"), 2);
        assert_eq!(lcs_len("abc", ""), 0);
        assert_eq!(lcs_len("write", "writer"), 5);
        assert_eq!(lcs_len("written", "writer"), 5); // w,r,i,t,e + one t = writte? -> "write" + t
    }

    #[test]
    fn paper_taxidriver_example_is_rejected() {
        // "the property 'taxiDriver' encapsulates the word 'river'" — the
        // normalized score must kill it.
        let score = lcs_score("river", "taxiDriver");
        assert!(score <= 0.5, "got {score}");
        // While a genuine morphological variant passes.
        assert!(lcs_score("write", "writer") > 0.8);
    }

    #[test]
    fn written_maps_to_writer() {
        // §2.2.1: dbont:writer is the most similar property for "written".
        let writer = lcs_score("written", "writer");
        let taxi = lcs_score("written", "taxiDriver");
        assert!(writer > taxi);
        assert!(writer > 0.7);
    }

    #[test]
    fn camel_case_split() {
        assert_eq!(split_camel_case("populationTotal"), vec!["population", "total"]);
        assert_eq!(split_camel_case("birthPlace"), vec!["birth", "place"]);
        assert_eq!(split_camel_case("height"), vec!["height"]);
        assert_eq!(split_camel_case("numberOfPages"), vec!["number", "of", "pages"]);
    }

    #[test]
    fn property_name_score_uses_constituents() {
        assert!(property_name_score("population", "populationTotal", "population total") >= 0.95);
        assert!(property_name_score("height", "height", "height") >= 0.95);
        assert!(property_name_score("pages", "numberOfPages", "number of pages") >= 0.95);
        assert!(property_name_score("zebra", "populationTotal", "population total") < 0.5);
    }

    #[test]
    fn score_is_symmetric_and_bounded() {
        for (a, b) in [("write", "writer"), ("die", "deathPlace"), ("", "x")] {
            let s1 = lcs_score(a, b);
            let s2 = lcs_score(b, a);
            assert!((s1 - s2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s1));
        }
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(lcs_score("Height", "height"), 1.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = LcsScratch::default();
        let pairs = [
            ("written", "writer"),
            ("über", "uber"),     // non-ASCII path
            ("a", "a"),
            ("", "xyz"),
            ("longerstring", "short"),
            ("naïve", "naïveté"), // shrinking then growing rows
        ];
        for (a, b) in pairs {
            assert_eq!(lcs_len_with(a, b, &mut scratch), lcs_len(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn keyed_score_matches_the_name_and_label_score() {
        let ontology = relpat_kb::Ontology::dbpedia();
        let mut scratch = LcsScratch::default();
        let n = ontology.object_properties.len() + ontology.data_properties.len();
        for id in (0..n as u8).map(relpat_kb::PropertyId) {
            let p = ontology.property(id);
            for word in ["written", "population", "place", "birth", "of", "höhe", "", p.name] {
                let word = word.to_lowercase();
                assert_eq!(
                    property_keys_score(&word, p, &mut scratch).to_bits(),
                    property_name_score_pre(&word, p.name, p.label, &mut scratch).to_bits(),
                    "{word:?} vs {}",
                    p.name
                );
            }
        }
        for word in ["written", "Written", "WRITE", "höhe", "Höhe", ""] {
            assert_eq!(lowercase(word), word.to_lowercase());
        }
    }

    #[test]
    fn pre_lowered_variants_match_plain_entry_points() {
        let mut scratch = LcsScratch::default();
        for word in ["Written", "POPULATION", "höhe", "a"] {
            let lower = word.to_lowercase();
            assert_eq!(
                property_name_score_pre(&lower, "populationTotal", "population total", &mut scratch),
                property_name_score(word, "populationTotal", "population total"),
            );
            assert_eq!(
                lcs_score_pre(&lower, "writer", &mut scratch),
                lcs_score(word, "writer"),
            );
        }
    }
}
