//! Baseline systems for the related-work comparison benches.
//!
//! - [`KeywordBaseline`] — a bag-of-words system with no dependency parse:
//!   spots one entity and one property word, fires a query in both
//!   directions, returns whatever comes back. High coverage, low precision:
//!   the foil for the paper's structured approach.
//! - [`TemplateBaseline`] — Unger-style (WWW'12) fixed question templates
//!   matched against the raw token stream; precise but rigid.

use relpat_kb::{normalize_label, KnowledgeBase};
use relpat_nlp::{tag_sentence, PosTag};
use relpat_rdf::vocab::dbont;
use relpat_rdf::{Iri, Term};

use crate::similarity::property_name_score;

/// A baseline answer: the produced terms, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineAnswer {
    pub terms: Vec<Term>,
    pub sparql: String,
}

/// Shared helper: resolve the longest entity mention in a token stream.
fn find_entity(kb: &KnowledgeBase, words: &[String]) -> Option<(Iri, usize, usize)> {
    let n = words.len();
    for len in (1..=n.min(6)).rev() {
        for start in 0..=(n - len) {
            let span = words[start..start + len].join(" ");
            let hits = kb.entities_with_label(&normalize_label(&span));
            if let Some(&first) = hits.first() {
                return Some((kb.graph.term(first).as_iri()?.clone(), start, start + len));
            }
        }
    }
    None
}

fn run(kb: &KnowledgeBase, sparql: &str) -> Vec<Term> {
    match kb.query(sparql) {
        Ok(relpat_sparql::QueryResult::Solutions(sols)) => {
            sols.distinct_cells().flatten().cloned().collect()
        }
        _ => Vec::new(),
    }
}

/// Bag-of-words baseline: entity + best-matching property, both directions,
/// no parse, no type checking, no ranking beyond the similarity score.
pub struct KeywordBaseline<'kb> {
    kb: &'kb KnowledgeBase,
}

impl<'kb> KeywordBaseline<'kb> {
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        KeywordBaseline { kb }
    }

    pub fn answer(&self, question: &str) -> Option<BaselineAnswer> {
        let tokens = tag_sentence(question);
        let words: Vec<String> = tokens.iter().map(|t| t.text.clone()).collect();
        let (entity, start, end) = find_entity(self.kb, &words)?;

        // Best property by similarity against every remaining content word.
        let mut best: Option<(f64, String)> = None;
        for (i, t) in tokens.iter().enumerate() {
            if i >= start && i < end {
                continue;
            }
            if !(t.pos.is_verb() || t.pos.is_noun() || t.pos.is_adjective()) {
                continue;
            }
            for p in &self.kb.ontology.object_properties {
                let s = property_name_score(&t.lemma, p.name, p.label);
                if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                    best = Some((s, p.name.to_string()));
                }
            }
            for p in &self.kb.ontology.data_properties {
                let s = property_name_score(&t.lemma, p.name, p.label);
                if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                    best = Some((s, p.name.to_string()));
                }
            }
        }
        let (score, property) = best?;
        if score < 0.5 {
            return None;
        }
        let prop = dbont::iri(&property);
        let forward = format!("SELECT DISTINCT ?x WHERE {{ <{}> <{prop}> ?x . }}", entity.as_str());
        let terms = run(self.kb, &forward);
        if !terms.is_empty() {
            return Some(BaselineAnswer { terms, sparql: forward });
        }
        let backward =
            format!("SELECT DISTINCT ?x WHERE {{ ?x <{prop}> <{}> . }}", entity.as_str());
        let terms = run(self.kb, &backward);
        if terms.is_empty() {
            None
        } else {
            Some(BaselineAnswer { terms, sparql: backward })
        }
    }
}

/// Template baseline: a fixed list of (pattern, query-shape) pairs in the
/// spirit of template-based QA (Unger et al. 2012). Matches on POS shape and
/// keywords; anything outside the templates is unanswered.
pub struct TemplateBaseline<'kb> {
    kb: &'kb KnowledgeBase,
}

impl<'kb> TemplateBaseline<'kb> {
    pub fn new(kb: &'kb KnowledgeBase) -> Self {
        TemplateBaseline { kb }
    }

    pub fn answer(&self, question: &str) -> Option<BaselineAnswer> {
        let tokens = tag_sentence(question);
        let words: Vec<String> = tokens.iter().map(|t| t.text.clone()).collect();
        let lower: Vec<String> = tokens.iter().map(|t| t.lower()).collect();
        let joined = lower.join(" ");

        // Template 1: "what is the <prop> of <entity>"
        if let Some(rest) = template_prefix(&joined, &["what is the ", "who is the "]) {
            if let Some(of_pos) = rest.find(" of ") {
                let prop_text = &rest[..of_pos];
                let (entity, _, _) = find_entity(self.kb, &words)?;
                let property = self.best_property(prop_text)?;
                let prop = dbont::iri(&property);
                let q = format!(
                    "SELECT DISTINCT ?x WHERE {{ <{}> <{prop}> ?x . }}",
                    entity.as_str()
                );
                let terms = run(self.kb, &q);
                if !terms.is_empty() {
                    return Some(BaselineAnswer { terms, sparql: q });
                }
                return None;
            }
        }

        // Template 2: "which <class> is/was <verb-participle> by <entity>"
        if joined.starts_with("which ") && joined.contains(" by ") {
            let class_word = lower.get(1)?.clone();
            let class = self.kb.class_with_label(&relpat_nlp::lemmatize(&class_word, PosTag::Nns))?;
            let participle = tokens.iter().find(|t| t.pos == PosTag::Vbn)?;
            let property = self.best_property(&participle.lemma)?;
            let (entity, _, _) = find_entity(self.kb, &words)?;
            let q = format!(
                "SELECT DISTINCT ?x WHERE {{ ?x <{}> <{}> . ?x <{}> <{}> . }}",
                relpat_rdf::vocab::rdf::TYPE,
                dbont::iri(class),
                dbont::iri(&property),
                entity.as_str()
            );
            let terms = run(self.kb, &q);
            if !terms.is_empty() {
                return Some(BaselineAnswer { terms, sparql: q });
            }
            return None;
        }

        // Template 3: "where was <entity> born" / "where did <entity> die"
        for (marker, property) in
            [("born", "birthPlace"), ("die", "deathPlace"), ("died", "deathPlace")]
        {
            if joined.starts_with("where") && lower.iter().any(|w| w == marker) {
                let (entity, _, _) = find_entity(self.kb, &words)?;
                let q = format!(
                    "SELECT DISTINCT ?x WHERE {{ <{}> <{}> ?x . }}",
                    entity.as_str(),
                    dbont::iri(property)
                );
                let terms = run(self.kb, &q);
                if !terms.is_empty() {
                    return Some(BaselineAnswer { terms, sparql: q });
                }
                return None;
            }
        }
        None
    }

    fn best_property(&self, text: &str) -> Option<String> {
        let mut best: Option<(f64, String)> = None;
        for p in &self.kb.ontology.object_properties {
            let s = property_name_score(text, p.name, p.label);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, p.name.to_string()));
            }
        }
        for p in &self.kb.ontology.data_properties {
            let s = property_name_score(text, p.name, p.label);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, p.name.to_string()));
            }
        }
        best.filter(|(s, _)| *s >= 0.6).map(|(_, p)| p)
    }
}

fn template_prefix<'a>(joined: &'a str, prefixes: &[&str]) -> Option<&'a str> {
    prefixes.iter().find_map(|p| joined.strip_prefix(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};
    use std::sync::OnceLock;

    fn kb() -> &'static KnowledgeBase {
        static KB: OnceLock<KnowledgeBase> = OnceLock::new();
        KB.get_or_init(|| generate(&KbConfig::tiny()))
    }

    #[test]
    fn keyword_baseline_answers_simple_questions() {
        let b = KeywordBaseline::new(kb());
        let a = b.answer("What is the capital of Turkey?").unwrap();
        assert!(a.terms[0].as_iri().unwrap().as_str().ends_with("Ankara"));
    }

    #[test]
    fn keyword_baseline_ignores_structure() {
        // No parse: "written" string-matches dbont:writer (the song
        // property), whose facts do not cover books — the baseline either
        // misses or answers through luck; it must never panic and whatever
        // it returns must be non-empty.
        let b = KeywordBaseline::new(kb());
        if let Some(a) = b.answer("Which book is written by Orhan Pamuk?") {
            assert!(!a.terms.is_empty());
        }
    }

    #[test]
    fn keyword_baseline_fails_without_entity() {
        let b = KeywordBaseline::new(kb());
        assert!(b.answer("What is the meaning of everything?").is_none());
    }

    #[test]
    fn template_baseline_matches_what_is_the() {
        let b = TemplateBaseline::new(kb());
        let a = b.answer("What is the capital of Turkey?").unwrap();
        assert!(a.terms[0].as_iri().unwrap().as_str().ends_with("Ankara"));
    }

    #[test]
    fn template_baseline_matches_which_passive() {
        let b = TemplateBaseline::new(kb());
        let a = b.answer("Which book is written by Orhan Pamuk?");
        // "written" → writer (song domain) may fail; author via name score —
        // best_property picks the max scorer, which is writer; the query then
        // returns nothing and the template gives up. Either outcome is
        // acceptable for a baseline; it must not panic.
        if let Some(a) = a {
            assert!(!a.terms.is_empty());
        }
    }

    #[test]
    fn template_baseline_where_born() {
        let b = TemplateBaseline::new(kb());
        let a = b.answer("Where was Michael Jackson born?").unwrap();
        assert!(a.terms[0].as_iri().unwrap().as_str().ends_with("Gary"));
    }

    #[test]
    fn template_baseline_rejects_off_template() {
        let b = TemplateBaseline::new(kb());
        assert!(b.answer("Give me all films directed by James Cameron.").is_none());
    }
}
