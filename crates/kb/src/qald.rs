//! QALD-2-style benchmark questions over the synthetic knowledge base.
//!
//! Mirrors the paper's evaluation setup (§3): a 100-question test set, of
//! which 45 are excluded because their gold query needs YAGO classes, YAGO
//! entities or raw RDF (`dbprop:`) properties — the paper kept the remaining
//! **55** DBpedia-ontology-only questions. Question phrasings are modeled on
//! the actual QALD-2 DBpedia test set.
//!
//! Each retained question carries a gold SPARQL query; gold answers are
//! computed by executing it against the knowledge base, so the benchmark
//! stays consistent under any generator configuration.

use relpat_rdf::Term;

use crate::kb::KnowledgeBase;

/// Why a question is excluded from the evaluated subset (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exclusion {
    /// Gold query requires a YAGO class (e.g. `yago:FemaleAstronauts`).
    YagoClass,
    /// Gold query requires a YAGO entity.
    YagoEntity,
    /// Gold query requires a raw infobox property (`dbprop:`).
    RdfProperty,
}

/// One benchmark question.
#[derive(Debug, Clone)]
pub struct QaldQuestion {
    pub id: u32,
    pub text: String,
    /// Gold SPARQL over the synthetic KB; `None` for excluded questions
    /// (their gold needs vocabulary outside the KB, which is the point).
    pub gold_sparql: Option<String>,
    pub exclusion: Option<Exclusion>,
    /// True if the gold answer is a boolean (ASK question).
    pub boolean: bool,
}

impl QaldQuestion {
    fn new(id: u32, text: &str, gold: &str) -> Self {
        QaldQuestion {
            id,
            text: text.to_string(),
            gold_sparql: Some(gold.to_string()),
            exclusion: None,
            boolean: gold.trim_start().to_uppercase().starts_with("ASK"),
        }
    }

    fn excluded(id: u32, text: &str, why: Exclusion) -> Self {
        QaldQuestion {
            id,
            text: text.to_string(),
            gold_sparql: None,
            exclusion: Some(why),
            boolean: false,
        }
    }

    /// Executes the gold query, returning the expected answer set.
    /// Boolean questions return a single `xsd:boolean` literal term.
    pub fn gold_answers(&self, kb: &KnowledgeBase) -> Vec<Term> {
        let Some(sparql) = &self.gold_sparql else { return Vec::new() };
        match kb.query(sparql) {
            Ok(relpat_sparql::QueryResult::Solutions(sols)) => {
                sols.distinct_cells().flatten().cloned().collect()
            }
            Ok(relpat_sparql::QueryResult::Boolean(b)) => {
                vec![Term::Literal(relpat_rdf::Literal::boolean(b))]
            }
            Err(_) => Vec::new(),
        }
    }
}

/// Builds the 100-question benchmark. Requires the standard generated KB
/// (paper-example entities must exist).
pub fn qald_questions(kb: &KnowledgeBase) -> Vec<QaldQuestion> {
    let mut q: Vec<QaldQuestion> = Vec::new();
    let mut id = 0u32;
    let mut next = || {
        id += 1;
        id
    };

    // ----------------------------------------------------------------------
    // Part 1 — the 55 DBpedia-ontology questions (evaluated subset).
    // Roughly a third are within the pipeline's syntactic/mapping coverage
    // (the paper attempted 18); the rest exercise structures the paper's
    // Discussion lists as unhandled.
    // ----------------------------------------------------------------------

    // -- covered archetypes ---------------------------------------------------
    q.push(QaldQuestion::new(
        next(),
        "Which book is written by Orhan Pamuk?",
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Which books are written by Frank Herbert?",
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Frank_Herbert }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Who wrote Snow?",
        "SELECT ?x { res:Snow dbont:author ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "How tall is Michael Jordan?",
        "SELECT ?h { <http://dbpedia.org/resource/Michael_Jordan_(2)> dbont:height ?h }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "What is the height of Michael Jordan?",
        "SELECT ?h { <http://dbpedia.org/resource/Michael_Jordan_(2)> dbont:height ?h }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Where did Abraham Lincoln die?",
        "SELECT ?p { res:Abraham_Lincoln dbont:deathPlace ?p }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Where was Michael Jackson born?",
        "SELECT ?p { res:Michael_Jackson dbont:birthPlace ?p }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "When was Albert Einstein born?",
        "SELECT ?d { res:Albert_Einstein dbont:birthDate ?d }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "When did Frank Herbert die?",
        "SELECT ?d { res:Frank_Herbert dbont:deathDate ?d }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Who directed Titanic?",
        "SELECT ?x { res:Titanic dbont:director ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Which films did James Cameron direct?",
        "SELECT ?x { ?x rdf:type dbont:Film . ?x dbont:director res:James_Cameron }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Give me all films directed by James Cameron.",
        "SELECT ?x { ?x rdf:type dbont:Film . ?x dbont:director res:James_Cameron }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Who is the wife of Barack Obama?",
        "SELECT ?x { res:Barack_Obama dbont:spouse ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "What is the capital of Turkey?",
        "SELECT ?x { res:Turkey dbont:capital ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Who is the author of Dune?",
        "SELECT ?x { res:Dune dbont:author ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "In which city was Ludwig van Beethoven born?",
        "SELECT ?p { res:Ludwig_van_Beethoven dbont:birthPlace ?p }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "Give me all books written by Orhan Pamuk.",
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }",
    ));

    // -- in-coverage but error-prone (these keep precision below 100%) -------
    q.push(QaldQuestion::new(
        next(),
        // Ambiguous mention: three Springfields; the QALD gold fixes one
        // specific reading — a disambiguation-driven precision trap.
        "What is the population of Springfield?",
        "SELECT ?p { <http://dbpedia.org/resource/Springfield_(2)> dbont:populationTotal ?p }",
    ));
    q.push(QaldQuestion::new(
        next(),
        // "writer" property exists for songs; for books the fact is under
        // dbont:author. String-similarity alone proposes dbont:writer first.
        "Who is the writer of My Name is Red?",
        "SELECT ?x { res:My_Name_is_Red dbont:author ?x }",
    ));
    q.push(QaldQuestion::new(
        next(),
        "What is the population of Turkey?",
        "SELECT ?p { res:Turkey dbont:populationTotal ?p }",
    ));
    q.push(QaldQuestion::new(
        next(),
        // Disambiguation + pattern-noise trap: the gold reading is the
        // scientist Michael Jordan (who has a residence fact); the famous
        // athlete outranks him on page-link centrality, has no residence,
        // and the pipeline then falls back to the noisy "live → birthPlace"
        // pattern — the paper's own PATTY criticism (§2.2.3).
        "Where does Michael Jordan live?",
        "SELECT ?p { res:Michael_Jordan dbont:residence ?p }",
    ));

    // -- out of coverage: structures the paper's Discussion flags ------------
    let uncovered: &[(&str, &str)] = &[
        (
            "Is Frank Herbert still alive?",
            // Paper §5: needs mapping "alive" → a deathDate existence
            // check. Herbert died in 1986, so the gold answer is "false";
            // encoded as an ASK that evaluates to false.
            "ASK { res:Frank_Herbert dbont:deathDate \"9999-01-01\"^^xsd:date }",
        ),
        ("What is the highest mountain?",
         "SELECT ?m { ?m rdf:type dbont:Mountain . ?m dbont:elevation ?e } ORDER BY DESC(?e) LIMIT 1"),
        ("What is the longest river?",
         "SELECT ?r { ?r rdf:type dbont:River . ?r dbont:length ?l } ORDER BY DESC(?l) LIMIT 1"),
        ("Which country has the most inhabitants?",
         "SELECT ?c { ?c rdf:type dbont:Country . ?c dbont:populationTotal ?p } ORDER BY DESC(?p) LIMIT 1"),
        ("How many books did Orhan Pamuk write?",
         "SELECT (COUNT(DISTINCT ?x) AS ?c) { ?x rdf:type dbont:Book . ?x dbont:author res:Orhan_Pamuk }"),
        ("How many employees does Vertex Systems have?",
         "SELECT ?n { res:Vertex_Systems dbont:numberOfEmployees ?n }"),
        ("Which cities have more than three million inhabitants?",
         "SELECT ?c { ?c rdf:type dbont:City . ?c dbont:populationTotal ?p FILTER(?p > 3000000) }"),
        ("Was Abraham Lincoln married to Michelle Obama?",
         "ASK { res:Abraham_Lincoln dbont:spouse res:Michelle_Obama }"),
        ("Which books were written by the husband of Michelle Obama?",
         "SELECT ?b { res:Michelle_Obama dbont:spouse ?h . ?b dbont:author ?h }"),
        ("Which films starring James Cameron were released after 2000?",
         "SELECT ?f { ?f dbont:starring res:James_Cameron }"),
        ("Who was the doctoral supervisor of Albert Einstein?",
         "SELECT ?x { res:Albert_Einstein dbont:almaMater ?x }"),
        ("Which countries are connected by the Alda Bridge?",
         "SELECT ?c { res:Alda_Bridge dbont:crosses ?r . ?r dbont:mouthCountry ?c }"),
        ("Give me all cities in Germany with more than 100000 inhabitants.",
         "SELECT ?c { ?c dbont:country res:Germany . ?c dbont:populationTotal ?p FILTER(?p > 100000) }"),
        ("Which mountains are higher than Mount Araon?",
         "SELECT ?m { res:Mount_Araon dbont:elevation ?e0 . ?m rdf:type dbont:Mountain . ?m dbont:elevation ?e FILTER(?e > ?e0) }"),
        ("Is the Alda River longer than the Brena River?",
         "ASK { res:Alda_River dbont:length ?a . res:Brena_River dbont:length ?b FILTER(?a > ?b) }"),
        ("When was the company with the most employees founded?",
         "SELECT ?d { ?c dbont:numberOfEmployees ?n . ?c dbont:foundingDate ?d } ORDER BY DESC(?n) LIMIT 1"),
        ("Who are the children of the leader of the United States?",
         "SELECT ?k { res:United_States dbont:leaderName ?l . ?l dbont:child ?k }"),
        ("Give me all albums by musicians born in Bonn.",
         "SELECT ?a { ?a dbont:artist ?m . ?m dbont:birthPlace res:Bonn }"),
        ("Which universities are located in the capital of Turkey?",
         "SELECT ?u { res:Turkey dbont:capital ?c . ?u dbont:location ?c }"),
        ("How many films did the director of Titanic make?",
         "SELECT (COUNT(DISTINCT ?f) AS ?c) { res:Titanic dbont:director ?d . ?f dbont:director ?d }"),
        ("Which game developers are headquartered in Ankara?",
         "SELECT ?c { ?g dbont:developer ?c . ?c dbont:headquarter res:Ankara }"),
        ("What is the deepest lake?",
         "SELECT ?l { ?l rdf:type dbont:Lake . ?l dbont:depth ?d } ORDER BY DESC(?d) LIMIT 1"),
        ("Which presidents were born before 1900?",
         "SELECT ?p { ?p rdf:type dbont:President . ?p dbont:birthDate ?d FILTER(?d < \"1900-01-01\"^^xsd:date) }"),
        ("Is Ankara bigger than Istanbul?",
         "ASK { res:Ankara dbont:populationTotal ?a . res:Istanbul dbont:populationTotal ?i FILTER(?a > ?i) }"),
        ("Give me the websites of all companies founded by politicians.",
         "SELECT ?c { ?c dbont:foundedBy ?p . ?p rdf:type dbont:Politician }"),
        ("Which bands have more than two members?",
         "SELECT ?b { ?b rdf:type dbont:Band }"),
        ("What did Barack Obama study?",
         "SELECT ?u { res:Barack_Obama dbont:almaMater ?u }"),
        ("Who succeeded Abraham Lincoln as president?",
         "SELECT ?p { ?p rdf:type dbont:President }"),
        ("Which rivers flow through more than one country?",
         "SELECT ?r { ?r rdf:type dbont:River }"),
        ("How old is Michael Jordan?",
         "SELECT ?d { <http://dbpedia.org/resource/Michael_Jordan_(2)> dbont:birthDate ?d }"),
        ("Which films were produced and directed by the same person?",
         "SELECT ?f { ?f dbont:director ?d . ?f dbont:producer ?d }"),
        ("Which rivers cross Germany?",
         "SELECT ?r { ?r rdf:type dbont:River . ?r dbont:mouthCountry res:Germany }"),
        ("Who wrote Thriller?",
         "SELECT ?x { res:Thriller dbont:artist ?x }"),
        ("Which lakes are deeper than 100 meters?",
         "SELECT ?l { ?l rdf:type dbont:Lake . ?l dbont:depth ?d FILTER(?d > 100) }"),
    ];
    for (text, gold) in uncovered {
        q.push(QaldQuestion::new(next(), text, gold));
    }

    // ----------------------------------------------------------------------
    // Part 2 — the 45 excluded questions (YAGO classes/entities or raw
    // `dbprop:` infobox properties), phrased after real QALD-2 items.
    // ----------------------------------------------------------------------
    let yago_class: &[&str] = &[
        "Give me all female Russian astronauts.",
        "Give me all Australian nonprofit organizations.",
        "Which American presidents were in office during the Vietnam War?",
        "Give me all Danish films.",
        "Which German cities have more than 250000 inhabitants?",
        "Give me all Dutch ice hockey players.",
        "Which European countries have a constitutional monarchy?",
        "Give me all Argentine films from the 1950s.",
        "Which Greek goddesses dwelt on Mount Olympus?",
        "Give me all left-handed tennis players.",
        "Which Italian operas premiered in Venice?",
        "Give me all Canadian Grunge record labels.",
        "Which Asian capitals host Summer Olympic Games?",
        "Give me all Swedish death metal bands.",
        "Which living British monarchs are married?",
    ];
    let yago_entity: &[&str] = &[
        "Who was the successor of John F. Kennedy?",
        "What is the official website of Tom Cruise?",
        "Which organizations were founded in the same year as Google?",
        "Is Egypts largest city also its capital?",
        "Which software has been developed by organizations founded in California?",
        "Give me the birthdays of all actors of the television show Charmed.",
        "Who produced the most films among Hollywood studios?",
        "What is the melting point of copper?",
        "Which telecommunications organizations are located in Belgium?",
        "Who developed the video game World of Warcraft?",
        "What are the official languages of the Philippines?",
        "Who is the owner of Universal Studios?",
        "Through which countries does the Yenisei river flow?",
        "When did the Boston Tea Party take place?",
        "Which classis does the Millepede belong to?",
    ];
    let rdf_prop: &[&str] = &[
        "What is the revenue of IBM?",
        "Give me the homepage of Forbes.",
        "What is the wavelength of indigo?",
        "Which countries have places with more than two caves?",
        "What is the total amount of men and women serving in the FDNY?",
        "How often did Nicole Kidman marry?",
        "What is the area code of Berlin?",
        "Who wrote the lyrics for the Polish national anthem?",
        "In which UK city are the headquarters of the MI6?",
        "What is the ruling party in Lisbon?",
        "Which country does the creator of Miffy come from?",
        "What is the founding year of the brewery that produces Pilsner Urquell?",
        "Give me the Apollo 14 astronauts.",
        "How tall is Claudia Schiffer in feet?",
        "What is the time zone of Salt Lake City?",
    ];
    for text in yago_class {
        q.push(QaldQuestion::excluded(next(), text, Exclusion::YagoClass));
    }
    for text in yago_entity {
        q.push(QaldQuestion::excluded(next(), text, Exclusion::YagoEntity));
    }
    for text in rdf_prop {
        q.push(QaldQuestion::excluded(next(), text, Exclusion::RdfProperty));
    }

    debug_assert_eq!(q.len(), 100);
    debug_assert_eq!(q.iter().filter(|x| x.exclusion.is_none()).count(), 55);
    // Gold queries must be well-formed against this KB (answers may be empty
    // only for ASK-false cases).
    debug_assert!(q
        .iter()
        .filter_map(|x| x.gold_sparql.as_ref())
        .all(|s| kb.query(s).is_ok()));
    q
}

/// The evaluated subset: questions surviving the paper's exclusion filter.
pub fn evaluated_subset(questions: &[QaldQuestion]) -> Vec<&QaldQuestion> {
    questions.iter().filter(|q| q.exclusion.is_none()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, KbConfig};

    fn kb() -> KnowledgeBase {
        generate(&KbConfig::tiny())
    }

    #[test]
    fn hundred_questions_fiftyfive_evaluated() {
        let kb = kb();
        let qs = qald_questions(&kb);
        assert_eq!(qs.len(), 100);
        assert_eq!(evaluated_subset(&qs).len(), 55);
        assert_eq!(qs.iter().filter(|q| q.exclusion.is_some()).count(), 45);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let kb = kb();
        let qs = qald_questions(&kb);
        let mut ids: Vec<u32> = qs.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100);
        assert_eq!(ids[0], 1);
        assert_eq!(ids[99], 100);
    }

    #[test]
    fn evaluated_questions_have_gold_queries_that_run() {
        let kb = kb();
        for q in evaluated_subset(&qald_questions(&kb)) {
            let sparql = q.gold_sparql.as_ref().expect("evaluated question needs gold");
            kb.query(sparql).unwrap_or_else(|e| panic!("q{} gold fails: {e}", q.id));
        }
    }

    #[test]
    fn most_gold_answers_are_nonempty() {
        let kb = kb();
        let qs = qald_questions(&kb);
        let nonempty = evaluated_subset(&qs)
            .iter()
            .filter(|q| !q.gold_answers(&kb).is_empty())
            .count();
        // ASK-false and a few generator-dependent golds may be empty, but the
        // overwhelming majority must resolve.
        assert!(nonempty >= 45, "only {nonempty}/55 golds resolve");
    }

    #[test]
    fn figure1_question_gold_is_pamuks_books() {
        let kb = kb();
        let qs = qald_questions(&kb);
        let golds = qs[0].gold_answers(&kb);
        assert_eq!(golds.len(), 3);
    }

    #[test]
    fn boolean_flag_set_for_ask() {
        let kb = kb();
        let qs = qald_questions(&kb);
        let alive = qs.iter().find(|q| q.text.contains("still alive")).unwrap();
        assert!(alive.boolean);
        assert!(!qs[0].boolean);
    }

    #[test]
    fn excluded_questions_have_no_gold() {
        let kb = kb();
        for q in qald_questions(&kb) {
            assert_eq!(q.exclusion.is_some(), q.gold_sparql.is_none());
        }
    }
}
