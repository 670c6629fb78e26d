//! Synthetic corpus generator.
//!
//! PATTY mined its patterns from the New York Times archive and Wikipedia.
//! We cannot ship those corpora, so we synthesize one with the same
//! *structural* property: sentences that verbalize facts between typed
//! entity pairs, phrased many different ways, with a controlled amount of
//! noise (the paper highlights PATTY's `born in` pattern leaking into the
//! `deathPlace` relation — our noise injection reproduces exactly that
//! class of error).

use relpat_obs::Rng;
use relpat_kb::KnowledgeBase;
use relpat_rdf::vocab::dbont;
use relpat_rdf::{IdPattern, IdTriple, Term};

/// Configuration for corpus synthesis.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub seed: u64,
    /// How many surface realizations to sample per fact (upper bound).
    pub max_realizations: usize,
    /// Probability that a fact is verbalized with a template of a
    /// *confusable* property (PATTY-style noise).
    pub noise_rate: f64,
    /// Also verbalize data-property facts ("X is 1.98 meters tall"), so the
    /// miner can learn data-property patterns — the capability the paper's
    /// §5 lists as an open research gap.
    pub include_data_properties: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xC0FFEE,
            max_realizations: 3,
            noise_rate: 0.06,
            include_data_properties: false,
        }
    }
}

impl CorpusConfig {
    /// Corpus including data-property sentences ("X is 1.98 meters tall") —
    /// the paper's §5 research gap, used by the extended system.
    pub fn with_data_properties() -> Self {
        CorpusConfig { include_data_properties: true, ..CorpusConfig::default() }
    }
}

/// One corpus sentence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    pub text: String,
}

/// Surface templates per object property. `{S}` is the RDF subject's label,
/// `{O}` the object's. Phrasing diversity is the whole point: the extractor
/// must map "born in", "born at", "passed away in" etc. onto properties by
/// distant supervision, not by knowing the template list.
pub fn templates_for(property: &str) -> &'static [&'static str] {
    match property {
        "author" => &[
            "{O} wrote {S}",
            "{S} was written by {O}",
            "{S} is a book by {O}",
            "{O} is the author of {S}",
            "{O} penned {S}",
        ],
        "writer" => &["{O} wrote the song {S}", "{S} was written by {O}"],
        "director" => &[
            "{O} directed {S}",
            "{S} was directed by {O}",
            "{S} is a film by {O}",
            "{O} is the director of {S}",
        ],
        "starring" => &["{S} stars {O}", "{O} starred in {S}", "{O} appeared in {S}"],
        "producer" => &["{O} produced {S}", "{S} was produced by {O}"],
        "musicComposer" => &["{O} composed {S}", "{S} was composed by {O}"],
        "artist" => &["{O} released the album {S}", "{S} is an album by {O}"],
        "birthPlace" => &[
            "{S} was born in {O}",
            "{S} was born at {O}",
            "{S} is a native of {O}",
        ],
        "deathPlace" => &[
            "{S} died in {O}",
            "{S} died at {O}",
            "{S} passed away in {O}",
        ],
        "residence" => &["{S} lives in {O}", "{S} resides in {O}"],
        "spouse" => &[
            "{S} married {O}",
            "{S} is married to {O}",
            "{O} is the spouse of {S}",
            "{S} wed {O}",
        ],
        "child" => &["{O} is the child of {S}", "{S} is the parent of {O}"],
        "capital" => &["{O} is the capital of {S}", "{O} is the capital city of {S}"],
        "country" => &[
            "{S} is located in {O}",
            "{S} is a city in {O}",
            "{S} lies in {O}",
        ],
        "largestCity" => &["{O} is the largest city of {S}"],
        "officialLanguage" => &[
            "{O} is the official language of {S}",
            "{O} is spoken in {S}",
        ],
        "currency" => &["{O} is the currency of {S}"],
        "leaderName" => &[
            "{O} is the leader of {S}",
            "{O} leads {S}",
            "{O} is the president of {S}",
        ],
        "mayor" => &["{O} is the mayor of {S}", "{O} governs {S}"],
        "location" => &["{S} is located in {O}"],
        "headquarter" => &["{S} is headquartered in {O}", "{S} is based in {O}"],
        "foundedBy" => &["{S} was founded by {O}", "{O} founded {S}", "{O} established {S}"],
        "keyPerson" => &["{O} runs {S}"],
        "developer" => &["{S} was developed by {O}", "{O} developed {S}"],
        "publisher" => &["{S} was published by {O}"],
        "crosses" => &["{S} crosses {O}", "{S} spans {O}"],
        "mouthCountry" => &["{S} flows through {O}", "{S} runs through {O}"],
        "bandMember" => &["{O} is a member of {S}", "{O} plays in {S}"],
        "almaMater" => &["{S} studied at {O}", "{S} graduated from {O}"],
        _ => &[],
    }
}

/// Surface templates for data properties: `{S}` is the subject's label,
/// `{V}` the literal value. Only used when
/// [`CorpusConfig::include_data_properties`] is set.
pub fn data_templates_for(property: &str) -> &'static [&'static str] {
    match property {
        "height" => &["{S} is {V} meters tall", "{S} stands {V} meters tall"],
        "populationTotal" => &[
            "{S} has a population of {V}",
            "{S} has {V} inhabitants",
            "{V} people live in {S}",
        ],
        "birthDate" => &["{S} was born on {V}"],
        "deathDate" => &["{S} died on {V}", "{S} passed away on {V}"],
        "numberOfPages" => &["{S} has {V} pages", "{S} runs to {V} pages"],
        "numberOfEmployees" => &["{S} employs {V} people", "{S} has {V} employees"],
        "elevation" => &["{S} rises {V} meters", "{S} is {V} meters high"],
        "length" => &["{S} is {V} kilometers long"],
        "depth" => &["{S} is {V} meters deep"],
        "areaTotal" => &["{S} covers {V} square kilometers"],
        "foundingDate" => &["{S} was founded on {V}"],
        "releaseDate" => &["{S} was released on {V}", "{S} came out on {V}"],
        _ => &[],
    }
}

/// Properties whose surface forms plausibly get confused in a noisy corpus:
/// when noise fires, a fact of the keyed property is verbalized with a
/// template of one of the listed properties. `born in` showing up for
/// `deathPlace` is the paper's own example; `lives in` for `birthPlace`
/// models people being described as living where they were born.
fn confusable(property: &str) -> &'static [&'static str] {
    match property {
        "birthPlace" => &["deathPlace", "residence"],
        "deathPlace" => &["birthPlace"],
        "residence" => &["birthPlace", "deathPlace"],
        "author" => &["writer"],
        "director" => &["producer"],
        _ => &[],
    }
}

/// The `(?, dbont:<property>, ?)` facts in POS order.
fn facts_of<'kb>(kb: &'kb KnowledgeBase, property: &str) -> impl Iterator<Item = IdTriple> + 'kb {
    let predicate = kb.graph.term_id(&Term::iri(dbont::iri(property)));
    predicate.into_iter().flat_map(|p| {
        kb.graph.scan_iter(IdPattern { subject: None, predicate: Some(p), object: None })
    })
}

/// Synthesizes the corpus from every object-property fact in the KB.
pub fn generate_corpus(kb: &KnowledgeBase, config: &CorpusConfig) -> Vec<Sentence> {
    let mut out = Vec::new();
    for_each_sentence(kb, config, |sentence| out.push(sentence));
    out
}

/// Synthesizes [`generate_corpus`]'s sentences in its order, handing each
/// to `emit` instead of keeping it: mining extracts from each sentence as
/// it is made, so the corpus is never held whole.
pub(crate) fn for_each_sentence(
    kb: &KnowledgeBase,
    config: &CorpusConfig,
    mut emit: impl FnMut(Sentence),
) {
    let mut rng = Rng::seed_from_u64(config.seed);
    for prop_def in &kb.ontology.object_properties {
        let templates = templates_for(prop_def.name);
        if templates.is_empty() {
            continue;
        }
        for (s, _, o) in facts_of(kb, prop_def.name) {
            // `label_of` answers only for `res:` entities.
            let (Some(s_label), Some(o_label)) = (kb.label_of(s), kb.label_of(o)) else {
                continue;
            };
            let n = rng.gen_range(1..=config.max_realizations);
            for _ in 0..n {
                // Noise: verbalize with a confusable property's template.
                let confusions = confusable(prop_def.name);
                let source_templates = if !confusions.is_empty() && rng.gen_bool(config.noise_rate)
                {
                    let pick = confusions[rng.gen_range(0..confusions.len())];
                    let t = templates_for(pick);
                    if t.is_empty() {
                        templates
                    } else {
                        t
                    }
                } else {
                    templates
                };
                let template = source_templates[rng.gen_range(0..source_templates.len())];
                let text = template.replace("{S}", s_label).replace("{O}", o_label);
                emit(Sentence { text: format!("{text}.") });
            }
        }
    }
    if config.include_data_properties {
        for prop_def in &kb.ontology.data_properties {
            let templates = data_templates_for(prop_def.name);
            if templates.is_empty() {
                continue;
            }
            for (s, _, o) in facts_of(kb, prop_def.name) {
                let Term::Literal(lit) = kb.graph.term(o) else { continue };
                let Some(s_label) = kb.label_of(s) else { continue };
                let n = rng.gen_range(1..=config.max_realizations);
                for _ in 0..n {
                    let template = templates[rng.gen_range(0..templates.len())];
                    let text =
                        template.replace("{S}", s_label).replace("{V}", lit.lexical_form());
                    emit(Sentence { text: format!("{text}.") });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};

    #[test]
    fn every_object_property_has_templates() {
        let kb = generate(&KbConfig::tiny());
        for p in &kb.ontology.object_properties {
            assert!(
                !templates_for(p.name).is_empty(),
                "no templates for {}",
                p.name
            );
        }
    }

    #[test]
    fn templates_have_both_slots() {
        for p in ["author", "birthPlace", "spouse", "capital"] {
            for t in templates_for(p) {
                assert!(t.contains("{S}") && t.contains("{O}"), "{t}");
            }
        }
    }

    #[test]
    fn corpus_is_deterministic_and_substantial() {
        let kb = generate(&KbConfig::tiny());
        let config = CorpusConfig::default();
        let a = generate_corpus(&kb, &config);
        let b = generate_corpus(&kb, &config);
        assert_eq!(a, b);
        assert!(a.len() > 200, "corpus too small: {}", a.len());
    }

    #[test]
    fn corpus_mentions_paper_entities() {
        let kb = generate(&KbConfig::tiny());
        let corpus = generate_corpus(&kb, &CorpusConfig::default());
        assert!(corpus.iter().any(|s| s.text.contains("Orhan Pamuk")));
        assert!(corpus.iter().any(|s| s.text.contains("Abraham Lincoln")));
    }

    #[test]
    fn noise_rate_zero_eliminates_confusions() {
        let kb = generate(&KbConfig::tiny());
        let clean =
            generate_corpus(&kb, &CorpusConfig { noise_rate: 0.0, ..CorpusConfig::default() });
        // Michael Jackson died in Los Angeles; with zero noise no sentence
        // may claim he was born there.
        assert!(!clean
            .iter()
            .any(|s| s.text.contains("Michael Jackson was born in Los Angeles")));
    }

    #[test]
    fn unknown_property_has_no_templates() {
        assert!(templates_for("wikiPageWikiLink").is_empty());
    }
}
