//! Support-set prefix tree and pattern subsumption taxonomy.
//!
//! PATTY arranges patterns in a semantic taxonomy by comparing their
//! *support sets* (the entity pairs each pattern was observed with): pattern
//! A subsumes B when supp(B) ⊆ supp(A); mutual inclusion makes them
//! synonymous. A prefix tree over pattern tokens stores the support sets and
//! answers the set-intersection queries the subsumption computation needs
//! (paper §2.2.3's summary of Nakashole et al.).

use relpat_obs::fx::{FxHashMap, FxHashSet};

/// Relationship between two patterns' support sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsumption {
    /// supp(A) == supp(B): synonymous patterns.
    Equivalent,
    /// supp(A) ⊂ supp(B): B is the more general pattern.
    SubsumedBy,
    /// supp(B) ⊂ supp(A): A is the more general pattern.
    Subsumes,
    /// Overlapping or disjoint supports.
    Independent,
}

#[derive(Debug, Default)]
struct Node {
    children: FxHashMap<String, usize>,
    /// Support set of the pattern ending at this node (if any).
    support: Option<FxHashSet<u32>>,
}

/// Prefix tree over pattern token sequences with per-pattern support sets.
#[derive(Debug)]
pub struct PatternTree {
    nodes: Vec<Node>,
    /// Pattern string → terminal node, for direct lookups.
    terminals: FxHashMap<String, usize>,
}

impl Default for PatternTree {
    fn default() -> Self {
        PatternTree { nodes: vec![Node::default()], terminals: FxHashMap::default() }
    }
}

impl PatternTree {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one observation of `pattern` supported by entity-pair `pair`.
    pub fn insert(&mut self, pattern: &str, pair: u32) {
        self.insert_all(pattern, [pair]);
    }

    /// Inserts observations of `pattern`, one per supporting pair id.
    pub fn insert_all(&mut self, pattern: &str, pairs: impl IntoIterator<Item = u32>) {
        let mut node = 0usize;
        for token in pattern.split_whitespace() {
            node = match self.nodes[node].children.get(token) {
                Some(&n) => n,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(Node::default());
                    self.nodes[node].children.insert(token.to_string(), n);
                    n
                }
            };
        }
        let support = self.nodes[node].support.get_or_insert_with(FxHashSet::default);
        for pair in pairs {
            support.insert(pair);
        }
        self.terminals.insert(pattern.to_string(), node);
    }

    /// The support set of a pattern.
    pub fn support(&self, pattern: &str) -> Option<&FxHashSet<u32>> {
        self.terminals.get(pattern).and_then(|&n| self.nodes[n].support.as_ref())
    }

    /// Number of stored patterns.
    pub fn len(&self) -> usize {
        self.terminals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terminals.is_empty()
    }

    /// All stored patterns.
    pub fn patterns(&self) -> impl Iterator<Item = &str> {
        self.terminals.keys().map(String::as_str)
    }

    /// Size of the support intersection of two patterns.
    pub fn intersection_size(&self, a: &str, b: &str) -> usize {
        match (self.support(a), self.support(b)) {
            (Some(sa), Some(sb)) => {
                let (small, large) = if sa.len() <= sb.len() { (sa, sb) } else { (sb, sa) };
                small.iter().filter(|x| large.contains(x)).count()
            }
            _ => 0,
        }
    }

    /// Subsumption relation between two patterns, with a tolerance: a
    /// fraction `min_overlap` (e.g. 0.95) of the smaller support must lie in
    /// the larger one to count as inclusion — PATTY uses soft inclusion to
    /// survive noise.
    pub fn subsumption(&self, a: &str, b: &str, min_overlap: f64) -> Subsumption {
        let (Some(sa), Some(sb)) = (self.support(a), self.support(b)) else {
            return Subsumption::Independent;
        };
        let inter = self.intersection_size(a, b) as f64;
        let a_in_b = !sa.is_empty() && inter / sa.len() as f64 >= min_overlap;
        let b_in_a = !sb.is_empty() && inter / sb.len() as f64 >= min_overlap;
        match (a_in_b, b_in_a) {
            (true, true) => Subsumption::Equivalent,
            (true, false) => Subsumption::SubsumedBy,
            (false, true) => Subsumption::Subsumes,
            (false, false) => Subsumption::Independent,
        }
    }

    /// Groups patterns into synonym sets (mutual soft inclusion), the
    /// WordNet-of-relations structure PATTY produces.
    pub fn synonym_sets(&self, min_overlap: f64) -> Vec<Vec<String>> {
        let patterns: Vec<&str> = {
            let mut p: Vec<&str> = self.patterns().collect();
            p.sort_unstable();
            p
        };
        let mut assigned: FxHashSet<usize> = FxHashSet::default();
        let mut sets: Vec<Vec<String>> = Vec::new();
        for (i, &a) in patterns.iter().enumerate() {
            if assigned.contains(&i) {
                continue;
            }
            let mut set = vec![a.to_string()];
            assigned.insert(i);
            for (j, &b) in patterns.iter().enumerate().skip(i + 1) {
                if assigned.contains(&j) {
                    continue;
                }
                if self.subsumption(a, b, min_overlap) == Subsumption::Equivalent {
                    set.push(b.to_string());
                    assigned.insert(j);
                }
            }
            sets.push(set);
        }
        sets
    }

    /// Taxonomy edges `(specific, general)`: strict subsumptions between
    /// patterns, transitively reduced (only minimal generalizations kept).
    pub fn taxonomy_edges(&self, min_overlap: f64) -> Vec<(String, String)> {
        let patterns: Vec<&str> = {
            let mut p: Vec<&str> = self.patterns().collect();
            p.sort_unstable();
            p
        };
        let mut parents: FxHashMap<&str, Vec<&str>> = FxHashMap::default();
        for &a in &patterns {
            for &b in &patterns {
                if a != b && self.subsumption(a, b, min_overlap) == Subsumption::SubsumedBy {
                    parents.entry(a).or_default().push(b);
                }
            }
        }
        let mut edges = Vec::new();
        for (&child, ps) in &parents {
            for &p in ps {
                // Keep only minimal parents: no other parent q of child with
                // q strictly below p.
                let minimal = !ps.iter().any(|&q| {
                    q != p && self.subsumption(q, p, min_overlap) == Subsumption::SubsumedBy
                });
                if minimal {
                    edges.push((child.to_string(), p.to_string()));
                }
            }
        }
        edges.sort();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// "person write book" examples: "write by" seen with every authored
    /// pair, "pen" with a strict subset, "compose" with a disjoint set.
    fn sample() -> PatternTree {
        let mut t = PatternTree::new();
        for pair in 0..10 {
            t.insert("write by", pair);
        }
        for pair in 0..4 {
            t.insert("pen by", pair);
        }
        for pair in 0..10 {
            t.insert("author of", pair);
        }
        for pair in 20..25 {
            t.insert("compose by", pair);
        }
        t
    }

    #[test]
    fn insert_and_support() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.support("write by").unwrap().len(), 10);
        assert_eq!(t.support("pen by").unwrap().len(), 4);
        assert!(t.support("fly to").is_none());
    }

    #[test]
    fn shared_prefix_does_not_merge_supports() {
        let mut t = PatternTree::new();
        t.insert("die in", 1);
        t.insert("die at", 2);
        // "die" alone is a prefix node, not a pattern.
        assert!(t.support("die").is_none());
        assert_eq!(t.support("die in").unwrap().len(), 1);
    }

    #[test]
    fn intersection_sizes() {
        let t = sample();
        assert_eq!(t.intersection_size("write by", "pen by"), 4);
        assert_eq!(t.intersection_size("write by", "compose by"), 0);
        assert_eq!(t.intersection_size("write by", "author of"), 10);
    }

    #[test]
    fn subsumption_relations() {
        let t = sample();
        assert_eq!(t.subsumption("pen by", "write by", 1.0), Subsumption::SubsumedBy);
        assert_eq!(t.subsumption("write by", "pen by", 1.0), Subsumption::Subsumes);
        assert_eq!(t.subsumption("write by", "author of", 1.0), Subsumption::Equivalent);
        assert_eq!(t.subsumption("write by", "compose by", 1.0), Subsumption::Independent);
    }

    #[test]
    fn synonym_sets_group_equivalents() {
        let t = sample();
        let sets = t.synonym_sets(0.95);
        let with_write = sets.iter().find(|s| s.contains(&"write by".to_string())).unwrap();
        assert!(with_write.contains(&"author of".to_string()));
        assert!(!with_write.contains(&"compose by".to_string()));
    }

    #[test]
    fn taxonomy_edges_point_to_minimal_parents() {
        let mut t = sample();
        // middle layer: "novel by" between "pen by" and "write by".
        for pair in 0..6 {
            t.insert("novel by", pair);
        }
        let edges = t.taxonomy_edges(1.0);
        // pen by → novel by (minimal), not pen by → write by (transitive).
        assert!(edges.contains(&("pen by".to_string(), "novel by".to_string())));
        assert!(!edges.contains(&("pen by".to_string(), "write by".to_string())));
    }

    #[test]
    fn soft_inclusion_tolerates_noise() {
        let mut t = PatternTree::new();
        for pair in 0..20 {
            t.insert("bear in", pair);
        }
        for pair in 0..19 {
            t.insert("native of", pair);
        }
        t.insert("native of", 99); // one noisy pair outside "bear in"
        assert_eq!(t.subsumption("native of", "bear in", 1.0), Subsumption::Independent);
        assert_eq!(t.subsumption("native of", "bear in", 0.9), Subsumption::Equivalent);
    }
}
