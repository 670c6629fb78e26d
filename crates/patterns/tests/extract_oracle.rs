//! Differential oracle for id-space extraction.
//!
//! `reference` below is the term-level extractor the id-space one replaced:
//! mentions found by joining every candidate span and looking it up through
//! `normalize_label`, and supervision by one `triples_matching` call per
//! property and direction. It lives here, outside the public API, so the
//! fast extractor must keep producing the same mentions and the same
//! occurrence *sequence* (ids mapped back to IRIs), in the same order.

use std::sync::OnceLock;

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_nlp::tokenize;
use relpat_patterns::{
    extract_occurrences, generate_corpus, CorpusConfig, MentionDetector, Sentence,
};
use relpat_rdf::{Iri, TermId};

mod reference {
    use relpat_kb::{normalize_label, KnowledgeBase};
    use relpat_nlp::tokenize;
    use relpat_patterns::{normalize_pattern, Sentence};
    use relpat_rdf::vocab::dbont;
    use relpat_rdf::{Iri, Term};

    /// `(pattern, property, inverse, is_data, pair)`.
    pub type Occ = (String, String, bool, bool, (Iri, Iri));

    /// `(start, end, entities)`.
    pub type Mention = (usize, usize, Vec<Iri>);

    pub fn max_label_tokens(kb: &KnowledgeBase) -> usize {
        kb.labels_iter().map(|(l, _)| l.split_whitespace().count() + 1).max().unwrap_or(1)
    }

    pub fn detect(kb: &KnowledgeBase, max_label_tokens: usize, tokens: &[String]) -> Vec<Mention> {
        let mut mentions = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut found = None;
            let max_j = (i + max_label_tokens).min(tokens.len());
            for j in (i + 1..=max_j).rev() {
                let span = tokens[i..j].join(" ");
                let normalized = normalize_label(&span);
                if normalized.is_empty() {
                    continue;
                }
                let hits = kb.entities_with_label(&normalized);
                if !hits.is_empty() {
                    found = Some((i, j, hits.iter().map(|&e| super::iri(kb, e)).collect()));
                    break;
                }
            }
            match found {
                Some(m) => {
                    i = m.1;
                    mentions.push(m);
                }
                None => i += 1,
            }
        }
        mentions
    }

    pub fn extract(kb: &KnowledgeBase, corpus: &[Sentence]) -> Vec<Occ> {
        let max_label_tokens = max_label_tokens(kb);
        let mut out = Vec::new();
        let props: Vec<(String, Term)> = kb
            .ontology
            .object_properties
            .iter()
            .map(|p| (p.name.to_string(), Term::iri(dbont::iri(p.name))))
            .collect();
        let data_props: Vec<(String, Term)> = kb
            .ontology
            .data_properties
            .iter()
            .map(|p| (p.name.to_string(), Term::iri(dbont::iri(p.name))))
            .collect();

        for sentence in corpus {
            let tokens = tokenize(&sentence.text);
            let mentions = detect(kb, max_label_tokens, &tokens);
            for window in mentions.windows(2) {
                let (m1, m2) = (&window[0], &window[1]);
                if m2.0 <= m1.1 {
                    continue;
                }
                let between = &tokens[m1.1..m2.0];
                if between.is_empty() || between.len() > 6 {
                    continue;
                }
                let pattern = normalize_pattern(between);
                if pattern.is_empty() {
                    continue;
                }
                for e1 in &m1.2 {
                    for e2 in &m2.2 {
                        let t1 = Term::Iri(e1.clone());
                        let t2 = Term::Iri(e2.clone());
                        let holds = |s: &Term, p: &Term, o: &Term| {
                            !kb.graph.triples_matching(Some(s), Some(p), Some(o)).is_empty()
                        };
                        for (name, pred) in &props {
                            let pair = || (e1.clone(), e2.clone());
                            if holds(&t1, pred, &t2) {
                                out.push((pattern.clone(), name.clone(), false, false, pair()));
                            }
                            if holds(&t2, pred, &t1) {
                                out.push((pattern.clone(), name.clone(), true, false, pair()));
                            }
                        }
                    }
                }
            }
            extract_data(kb, &tokens, &mentions, &data_props, &mut out);
        }
        out
    }

    /// The loose literal test the id-space extractor tightened; the
    /// differential shows the tightening moves no occurrence.
    fn is_literal_token(token: &str) -> bool {
        token.parse::<f64>().is_ok()
            || (token.len() == 10 && token.as_bytes()[4] == b'-' && token.as_bytes()[7] == b'-')
    }

    fn extract_data(
        kb: &KnowledgeBase,
        tokens: &[String],
        mentions: &[Mention],
        data_props: &[(String, Term)],
        out: &mut Vec<Occ>,
    ) {
        for (start, end, entities) in mentions {
            let (start, end) = (*start, *end);
            for (li, token) in tokens.iter().enumerate() {
                if (start..end).contains(&li) || !is_literal_token(token) {
                    continue;
                }
                let pattern = if li >= end {
                    if li - end > 6 {
                        continue;
                    }
                    let prefix = normalize_pattern(&tokens[end..li]);
                    let tail_end = (li + 4).min(tokens.len());
                    let suffix = normalize_pattern(&tokens[li + 1..tail_end]);
                    match (prefix.is_empty(), suffix.is_empty()) {
                        (true, true) => "$v".to_string(),
                        (true, false) => format!("$v {suffix}"),
                        (false, true) => format!("{prefix} $v"),
                        (false, false) => format!("{prefix} $v {suffix}"),
                    }
                } else {
                    if start - li > 6 {
                        continue;
                    }
                    let between = normalize_pattern(&tokens[li + 1..start]);
                    if between.is_empty() {
                        continue;
                    }
                    format!("$v {between}")
                };
                if pattern == "$v" {
                    continue;
                }
                for entity in entities {
                    let subject = Term::Iri(entity.clone());
                    for (name, pred) in data_props {
                        let matches = kb
                            .graph
                            .triples_matching(Some(&subject), Some(pred), None)
                            .into_iter()
                            .any(|t| {
                                t.object.as_literal().is_some_and(|l| l.lexical_form() == token)
                            });
                        if matches {
                            let pair = (entity.clone(), entity.clone());
                            out.push((pattern.clone(), name.clone(), false, true, pair));
                        }
                    }
                }
            }
        }
    }
}

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::default()))
}

fn iri(kb: &KnowledgeBase, id: TermId) -> Iri {
    kb.graph.term(id).as_iri().expect("entities are IRIs").clone()
}

/// The id-space extractor's output in the reference's shape.
fn extract(kb: &KnowledgeBase, corpus: &[Sentence]) -> Vec<reference::Occ> {
    let occ = extract_occurrences(kb, corpus);
    occ.iter()
        .map(|o| {
            let pattern = occ.pattern(o.pattern).to_string();
            let pair = (iri(kb, o.pair.0), iri(kb, o.pair.1));
            (pattern, o.property.to_string(), o.inverse, o.is_data, pair)
        })
        .collect()
}

fn detect(kb: &KnowledgeBase, detector: &MentionDetector, text: &str) -> Vec<reference::Mention> {
    detector
        .detect(&tokenize(text))
        .into_iter()
        .map(|m| (m.start, m.end, m.entities.iter().map(|&e| iri(kb, e)).collect()))
        .collect()
}

fn assert_same_sequence(corpus: &[Sentence]) {
    let kb = kb();
    let expected = reference::extract(kb, corpus);
    let actual = extract(kb, corpus);
    assert_eq!(actual.len(), expected.len(), "occurrence counts differ");
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "occurrence {i} differs");
    }
}

#[test]
fn default_corpus_sequence_matches_reference() {
    let corpus = generate_corpus(kb(), &CorpusConfig::default());
    assert_same_sequence(&corpus);
}

#[test]
fn data_corpus_sequence_matches_reference() {
    let corpus = generate_corpus(kb(), &CorpusConfig::with_data_properties());
    assert_same_sequence(&corpus);
}

const EDGE_SENTENCES: &[&str] = &[
    // Sentence-initial articles, in front of a label and not.
    "The Museum of Innocence was written by Orhan Pamuk.",
    "A Museum of Innocence was written by Orhan Pamuk.",
    "An Orhan Pamuk wrote Snow.",
    "The weather in Istanbul is mild.",
    "A man wrote Snow.",
    // Lone and stacked articles.
    "the",
    "The.",
    "the a an the",
    "The the Museum of Innocence is a book by Orhan Pamuk.",
    "Orhan Pamuk wrote the the Museum of Innocence.",
    "Orhan Pamuk wrote an a the Museum of Innocence.",
    // Adjacent mentions.
    "Orhan Pamuk Snow Istanbul.",
    "Snow Orhan Pamuk wrote.",
    // The ambiguous "Michael Jordan" (athlete and scientist).
    "Michael Jordan was born in Brooklyn.",
    "Michael Jordan is 1.98 meters tall.",
    "MICHAEL JORDAN lives in Brooklyn",
    // A label right before the final period, and none at all.
    "Snow was written by Orhan Pamuk.",
    "Orhan Pamuk wrote Snow.",
    "",
    ".",
    "Nothing here matches anything.",
];

#[test]
fn edge_sentences_match_reference() {
    let kb = kb();
    let detector = MentionDetector::new(kb);
    let max = reference::max_label_tokens(kb);
    for text in EDGE_SENTENCES {
        let expected = reference::detect(kb, max, &tokenize(text));
        assert_eq!(detect(kb, &detector, text), expected, "mentions differ on {text:?}");
    }
    let corpus: Vec<Sentence> =
        EDGE_SENTENCES.iter().map(|t| Sentence { text: t.to_string() }).collect();
    assert_same_sequence(&corpus);
}

#[test]
fn every_label_is_detected_like_the_reference() {
    // Each label bare, behind one and two articles, capitalized, and
    // followed by a period or another label.
    let kb = kb();
    let detector = MentionDetector::new(kb);
    let max = reference::max_label_tokens(kb);
    let mut labels: Vec<&str> = kb.labels_iter().map(|(l, _)| l).collect();
    labels.sort_unstable();
    for (i, label) in labels.iter().enumerate() {
        let next = labels[(i + 1) % labels.len()];
        for text in [
            label.to_string(),
            format!("the {label}"),
            format!("The a {label}."),
            format!("{} {next}.", label.to_uppercase()),
            format!("an {label} wrote the {next}"),
        ] {
            let expected = reference::detect(kb, max, &tokenize(&text));
            assert_eq!(detect(kb, &detector, &text), expected, "mentions differ on {text:?}");
        }
    }
}
