//! Differential gate for the similarity tables `WordNetBuilder::build`
//! precomputes: information content, ancestor lists and the one-pass
//! `lin_wup`. The reference recomputes everything per call from the public
//! synset data (counts and hypernym links), the way the metrics were
//! first written, and every result must be bit-equal:
//!
//! - `lcs` and `lin_wup_synsets` for every same-POS synset pair;
//! - `lin`, `wup` and `lin_wup` for every same-POS word pair.

use relpat_wordnet::{embedded, SynsetId, WnPos, WordNet};

const POS: [WnPos; 3] = [WnPos::Noun, WnPos::Verb, WnPos::Adjective];

/// The per-call reference: cumulative counts and information content from
/// the raw counts, ancestors by a stack walk on every call.
struct Reference<'w> {
    wn: &'w WordNet,
    ic: Vec<f64>,
}

impl<'w> Reference<'w> {
    fn new(wn: &'w WordNet) -> Self {
        let n = wn.len();
        let synset = |i: usize| wn.synset(SynsetId(i as u32));
        let mut cumulative: Vec<u64> = (0..n).map(|i| synset(i).count).collect();
        for i in (0..n).rev() {
            for h in &synset(i).hypernyms {
                cumulative[h.0 as usize] += cumulative[i];
            }
        }
        // A POS's root mass; 1 when it has no root.
        let total = |pos: WnPos| -> u64 {
            let roots: Vec<usize> = (0..n)
                .filter(|&i| synset(i).pos == pos && synset(i).hypernyms.is_empty())
                .collect();
            if roots.is_empty() {
                1
            } else {
                roots.iter().map(|&i| cumulative[i]).sum()
            }
        };
        let ic = (0..n)
            .map(|i| -(cumulative[i].max(1) as f64 / total(synset(i).pos) as f64).ln())
            .collect();
        Reference { wn, ic }
    }

    fn ancestors(&self, id: SynsetId) -> Vec<SynsetId> {
        let mut out = vec![id];
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            for &h in &self.wn.synset(s).hypernyms {
                if !out.contains(&h) {
                    out.push(h);
                    stack.push(h);
                }
            }
        }
        out
    }

    fn lcs(&self, a: SynsetId, b: SynsetId) -> Option<SynsetId> {
        let anc_b = self.ancestors(b);
        self.ancestors(a)
            .into_iter()
            .filter(|x| anc_b.contains(x))
            .max_by(|x, y| self.ic[x.0 as usize].total_cmp(&self.ic[y.0 as usize]))
    }

    fn lin(&self, a: SynsetId, b: SynsetId) -> f64 {
        if a == b {
            return 1.0;
        }
        let Some(lcs) = self.lcs(a, b) else {
            return 0.0;
        };
        let (ic_a, ic_b) = (self.ic[a.0 as usize], self.ic[b.0 as usize]);
        if ic_a + ic_b == 0.0 {
            return 0.0;
        }
        (2.0 * self.ic[lcs.0 as usize] / (ic_a + ic_b)).clamp(0.0, 1.0)
    }

    fn wup(&self, a: SynsetId, b: SynsetId) -> f64 {
        if a == b {
            return 1.0;
        }
        let Some(lcs) = self.lcs(a, b) else {
            return 0.0;
        };
        let d = |s: SynsetId| self.wn.depth(s) as f64 + 1.0;
        (2.0 * d(lcs) / (d(a) + d(b))).clamp(0.0, 1.0)
    }

    fn over_senses(
        &self,
        a: &str,
        b: &str,
        pos: WnPos,
        f: impl Fn(SynsetId, SynsetId) -> f64,
    ) -> Option<f64> {
        let (sa, sb) = (self.wn.synsets_of(a, pos), self.wn.synsets_of(b, pos));
        if sa.is_empty() || sb.is_empty() {
            return None;
        }
        let mut best: f64 = 0.0;
        for &x in sa {
            for &y in sb {
                best = best.max(f(x, y));
            }
        }
        Some(best)
    }
}

fn synsets(wn: &WordNet, pos: WnPos) -> Vec<SynsetId> {
    (0..wn.len() as u32)
        .map(SynsetId)
        .filter(|&s| wn.synset(s).pos == pos)
        .collect()
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

#[test]
fn information_content_matches_the_raw_counts() {
    let wn = embedded();
    let reference = Reference::new(wn);
    for i in 0..wn.len() {
        let id = SynsetId(i as u32);
        assert_eq!(
            wn.information_content(id).to_bits(),
            reference.ic[i].to_bits(),
            "{id:?}"
        );
    }
}

#[test]
fn synset_metrics_match_the_per_call_walk() {
    let wn = embedded();
    let reference = Reference::new(wn);
    let mut pairs = 0;
    for pos in POS {
        let ids = synsets(wn, pos);
        for &a in &ids {
            for &b in &ids {
                assert_eq!(wn.lcs(a, b), reference.lcs(a, b), "lcs {a:?} {b:?}");
                let (lin, wup) = wn.lin_wup_synsets(a, b);
                assert_eq!(
                    lin.to_bits(),
                    reference.lin(a, b).to_bits(),
                    "lin {a:?} {b:?}"
                );
                assert_eq!(
                    wup.to_bits(),
                    reference.wup(a, b).to_bits(),
                    "wup {a:?} {b:?}"
                );
                pairs += 1;
            }
        }
    }
    assert!(pairs > 1000, "only {pairs} synset pairs");
}

#[test]
fn word_metrics_match_the_per_call_walk() {
    let wn = embedded();
    let reference = Reference::new(wn);
    let mut pairs = 0;
    for pos in POS {
        let mut words: Vec<&str> = synsets(wn, pos)
            .into_iter()
            .flat_map(|s| wn.synset(s).words.iter().map(String::as_str))
            .collect();
        words.sort_unstable();
        words.dedup();
        for &a in &words {
            for &b in &words {
                let lin = reference.over_senses(a, b, pos, |x, y| reference.lin(x, y));
                let wup = reference.over_senses(a, b, pos, |x, y| reference.wup(x, y));
                assert_eq!(bits(wn.lin(a, b, pos)), bits(lin), "lin {a}/{b}");
                assert_eq!(bits(wn.wup(a, b, pos)), bits(wup), "wup {a}/{b}");
                let both = wn.lin_wup(a, b, pos);
                assert_eq!(bits(both.map(|(l, _)| l)), bits(lin), "lin_wup {a}/{b}");
                assert_eq!(bits(both.map(|(_, w)| w)), bits(wup), "lin_wup {a}/{b}");
                pairs += 1;
            }
        }
        // Case folding reaches the same senses.
        let upper = words[0].to_uppercase();
        assert_eq!(wn.synsets_of(&upper, pos), wn.synsets_of(words[0], pos));
    }
    assert!(pairs > 1000, "only {pairs} word pairs");
}
