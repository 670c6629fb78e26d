//! Knowledge-base statistics — the numbers a DBpedia-style release reports
//! (the paper quotes DBpedia's: "3.77 million things, including 764,000
//! persons, 573,000 places, ..."). Used by `explore_kb` and the reports.

use relpat_rdf::vocab::{dbont, res};
use relpat_rdf::Term;
use relpat_obs::fx::FxHashMap;
use relpat_obs::Json;

use crate::kb::KnowledgeBase;

/// Aggregate statistics over a knowledge base.
#[derive(Debug, Clone)]
pub struct KbStats {
    pub triples: usize,
    pub entities: usize,
    /// Direct instances per class (local name → count), sorted descending.
    pub instances_per_class: Vec<(String, usize)>,
    /// Facts per property (local name → count), sorted descending.
    pub facts_per_property: Vec<(String, usize)>,
    /// Page-link degree distribution: (min, median, max).
    pub degree_min: usize,
    pub degree_median: usize,
    pub degree_max: usize,
    /// Labels shared by more than one entity (ambiguity surface).
    pub ambiguous_labels: usize,
}

impl KbStats {
    /// Computes the statistics in one pass over the store.
    pub fn compute(kb: &KnowledgeBase) -> KbStats {
        let mut class_counts: FxHashMap<String, usize> = FxHashMap::default();
        let mut property_counts: FxHashMap<String, usize> = FxHashMap::default();

        for t in kb.graph.iter() {
            let Term::Iri(pred) = &t.predicate else { continue };
            if pred.as_str() == relpat_rdf::vocab::rdf::TYPE {
                if let Term::Iri(class) = &t.object {
                    if class.as_str().starts_with(dbont::NS)
                        && t.subject
                            .as_iri()
                            .is_some_and(|s| s.as_str().starts_with(res::NS))
                    {
                        *class_counts.entry(class.local_name().to_string()).or_insert(0) += 1;
                    }
                }
            } else if pred.as_str().starts_with(dbont::NS)
                && pred.as_str() != relpat_rdf::vocab::WIKI_PAGE_LINK
            {
                *property_counts.entry(pred.local_name().to_string()).or_insert(0) += 1;
            }
        }

        let mut degrees: Vec<usize> = kb
            .labels_iter()
            .flat_map(|(_, ids)| ids.iter().map(|&id| kb.page_degree(id)))
            .collect();
        degrees.sort_unstable();

        let ambiguous_labels = kb.labels_iter().filter(|(_, ids)| ids.len() > 1).count();

        KbStats {
            triples: kb.len(),
            entities: kb.entity_count(),
            instances_per_class: sorted_desc(class_counts),
            facts_per_property: sorted_desc(property_counts),
            degree_min: degrees.first().copied().unwrap_or(0),
            degree_median: degrees.get(degrees.len() / 2).copied().unwrap_or(0),
            degree_max: degrees.last().copied().unwrap_or(0),
            ambiguous_labels,
        }
    }

    /// Instances of a class, including subclasses (taxonomy-aware count);
    /// 0 for a name the ontology does not define.
    pub fn instances_under(kb: &KnowledgeBase, class: &str) -> usize {
        let Some(class) = kb.ontology.class_id(class) else { return 0 };
        kb.labels_iter()
            .flat_map(|(_, ids)| ids.iter())
            .filter(|&&id| kb.is_instance_of(id, class))
            .count()
    }

    /// Serializes the statistics as a JSON object.
    pub fn to_json(&self) -> Json {
        let counted = |pairs: &[(String, usize)]| {
            let mut obj = Json::obj();
            for (name, n) in pairs {
                obj = obj.set(name, *n);
            }
            obj
        };
        Json::obj()
            .set("triples", self.triples)
            .set("entities", self.entities)
            .set("instances_per_class", counted(&self.instances_per_class))
            .set("facts_per_property", counted(&self.facts_per_property))
            .set("degree_min", self.degree_min)
            .set("degree_median", self.degree_median)
            .set("degree_max", self.degree_max)
            .set("ambiguous_labels", self.ambiguous_labels)
    }

    /// Renders a DBpedia-release-style summary paragraph.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} triples over {} things ({} ambiguous labels).",
            self.triples, self.entities, self.ambiguous_labels
        );
        let _ = writeln!(out, "Largest classes:");
        for (class, n) in self.instances_per_class.iter().take(8) {
            let _ = writeln!(out, "  {n:>6}  {class}");
        }
        let _ = writeln!(out, "Most-asserted properties:");
        for (prop, n) in self.facts_per_property.iter().take(8) {
            let _ = writeln!(out, "  {n:>6}  {prop}");
        }
        let _ = writeln!(
            out,
            "Page-link degree: min {}, median {}, max {}.",
            self.degree_min, self.degree_median, self.degree_max
        );
        out
    }
}

fn sorted_desc(map: FxHashMap<String, usize>) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = map.into_iter().collect();
    v.sort_by(|(an, a), (bn, b)| b.cmp(a).then_with(|| an.cmp(bn)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, KbConfig};

    #[test]
    fn stats_cover_the_generated_kb() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        assert_eq!(stats.triples, kb.len());
        assert_eq!(stats.entities, kb.entity_count());
        assert!(!stats.instances_per_class.is_empty());
        assert!(!stats.facts_per_property.is_empty());
        // Direct class counts sum to at least the entity count (every entity
        // has exactly one direct class in the generator).
        let total: usize = stats.instances_per_class.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.entities);
    }

    #[test]
    fn ambiguity_is_detected() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        // Michael Jordan ×2 and Springfield ×3 at minimum.
        assert!(stats.ambiguous_labels >= 2, "{}", stats.ambiguous_labels);
    }

    #[test]
    fn taxonomy_aware_counts_dominate_direct_counts() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        let direct_person = stats
            .instances_per_class
            .iter()
            .find(|(c, _)| c == "Person")
            .map(|(_, n)| *n)
            .unwrap_or(0);
        let under_person = KbStats::instances_under(&kb, "Person");
        assert!(under_person > direct_person);
        assert!(under_person >= 30);
    }

    #[test]
    fn degrees_are_ordered() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        assert!(stats.degree_min <= stats.degree_median);
        assert!(stats.degree_median <= stats.degree_max);
        assert!(stats.degree_max > 0);
    }

    #[test]
    fn summary_renders_and_serializes() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        let s = stats.summary();
        assert!(s.contains("triples"));
        assert!(s.contains("Largest classes"));
        assert!(stats.to_json().to_string().contains("instances_per_class"));
    }

    #[test]
    fn wikilinks_not_counted_as_facts() {
        let kb = generate(&KbConfig::tiny());
        let stats = KbStats::compute(&kb);
        assert!(!stats
            .facts_per_property
            .iter()
            .any(|(p, _)| p == "wikiPageWikiLink"));
    }
}
