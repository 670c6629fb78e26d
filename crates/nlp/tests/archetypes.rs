//! Question-archetype sweep: the parser must produce the expected clause
//! structure for every covered QALD-style form, and must degrade gracefully
//! (no panic, no root commitment) outside coverage.

use relpat_nlp::{parse_sentence, DepRel, PosTag};
use relpat_obs::Rng;

/// Deterministic random string over `alphabet` with length in `min..=max`.
fn arb_string(rng: &mut Rng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())] as char).collect()
}

/// Asserts the root token text of a parsed question.
fn assert_root(question: &str, expected: &str) {
    let g = parse_sentence(question);
    let root = g.root.unwrap_or_else(|| panic!("no root for {question:?}"));
    assert_eq!(g.token(root).text, expected, "{question}");
}

/// Finds the relation between two words, if any.
fn relation(question: &str, head: &str, dep: &str) -> Option<DepRel> {
    let g = parse_sentence(question);
    let h = g.tokens.iter().position(|t| t.text == head)?;
    let d = g.tokens.iter().position(|t| t.text == dep)?;
    g.head_of(d).filter(|&(head, _)| head == h).map(|(_, rel)| rel.clone())
}

#[test]
fn passive_family() {
    assert_root("Which song is written by Michael Jackson?", "written");
    assert_root("Which game was developed by Vertex Systems?", "developed");
    assert_root("Which album was released by Thriller?", "released");
    assert_eq!(
        relation("Which city was founded by the Romans?", "founded", "city"),
        Some(DepRel::Nsubjpass)
    );
}

#[test]
fn active_wh_subject_family() {
    assert_root("Who founded Vertex Systems?", "founded");
    assert_root("Who composed Thriller?", "composed");
    assert_root("Who produced Avatar?", "produced");
    assert_eq!(relation("Who painted the tower?", "painted", "Who"), Some(DepRel::Nsubj));
}

#[test]
fn copular_of_family() {
    assert_root("What is the currency of Turkey?", "currency");
    assert_root("What is the official language of Germany?", "language");
    assert_root("Who is the leader of France?", "leader");
    assert_eq!(
        relation("What is the area of Turkey?", "area", "Turkey"),
        Some(DepRel::Prep("of".into()))
    );
}

#[test]
fn adverbial_wh_family() {
    assert_root("Where did Helen Fischer work?", "work");
    assert_root("When did the war start?", "start");
    for q in ["Where does Maria Santos live?", "When did Viktor Novak die?"] {
        let g = parse_sentence(q);
        assert!(g.root.is_some(), "{q}");
        let root = g.root.unwrap();
        assert!(g.children(root).any(|(_, r)| *r == DepRel::Advmod), "{q}: no advmod");
    }
}

#[test]
fn fronted_object_family() {
    assert_root("Which songs did Michael Jackson write?", "write");
    assert_root("Which games did Vertex Systems develop?", "develop");
    assert_eq!(
        relation("Which books did Frank Herbert write?", "write", "books"),
        Some(DepRel::Dobj)
    );
}

#[test]
fn imperative_family() {
    assert_root("Give me all songs written by Michael Jackson.", "Give");
    assert_root("Give me all games developed by Vertex Systems.", "Give");
    assert_eq!(
        relation("Give me all albums released by Thriller.", "albums", "released"),
        Some(DepRel::Partmod)
    );
}

#[test]
fn polar_family() {
    assert_root("Is Istanbul the largest city of Turkey?", "city");
    assert_root("Was Titanic directed by James Cameron?", "directed");
    assert_root("Is Michelle Obama still alive?", "alive");
}

#[test]
fn possessive_family() {
    assert_root("Who is Obama's wife?", "wife");
    assert_eq!(relation("Who is Obama's wife?", "wife", "Obama"), Some(DepRel::Poss));
    assert_root("What is Turkey's capital?", "capital");
    assert_eq!(relation("What is Turkey's capital?", "capital", "Turkey"), Some(DepRel::Poss));
}

#[test]
fn out_of_coverage_degrades_without_root_or_with_flat_parse() {
    // These must not panic; a root is allowed but not required.
    for q in [
        "Colorless green ideas sleep furiously and quietly together",
        "books books books books",
        "of by with from",
        "Who who who?",
        "",
        "?",
        "12345 67890",
    ] {
        let g = parse_sentence(q);
        // Connectivity invariant: every edge references valid tokens.
        for (head, dependent, _) in g.edges() {
            assert!(head < g.tokens.len());
            assert!(dependent < g.tokens.len());
        }
    }
}

#[test]
fn every_token_single_headed_across_archetypes() {
    for q in [
        "Which book is written by Orhan Pamuk?",
        "What is the height of Michael Jordan?",
        "Give me all films directed by James Cameron.",
        "How many people live in Turkey?",
        "Is Ankara the capital of Turkey?",
        "In which city was Ludwig van Beethoven born?",
    ] {
        let g = parse_sentence(q);
        // No self-loops; one head per token holds by construction.
        for (head, dependent, _) in g.edges() {
            assert_ne!(head, dependent, "{q}: self loop");
        }
        if let Some(root) = g.root {
            // Root must not have a head.
            assert!(g.head_of(root).is_none(), "{q}: root has a head");
        }
    }
}

/// The parser must never panic and must keep its structural invariants on
/// arbitrary word soup. 128 seeded random cases, reproducible by index.
#[test]
fn parser_total_on_arbitrary_input() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xA11CE + case);
        let s = arb_string(
            &mut rng,
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ,.?!'",
            0,
            80,
        );
        let g = parse_sentence(&s);
        for (head, dependent, _) in g.edges() {
            assert!(head < g.tokens.len());
            assert!(dependent < g.tokens.len());
            assert_ne!(head, dependent);
        }
        if let Some(root) = g.root {
            assert!(root < g.tokens.len());
            assert!(g.head_of(root).is_none());
        }
    }
}

/// Tagging must be total and assign every token a tag with a lemma.
#[test]
fn tagger_total() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xB0B + case);
        let s = arb_string(
            &mut rng,
            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ",
            0,
            60,
        );
        let tokens = relpat_nlp::tag_sentence(&s);
        for t in &tokens {
            assert!(!t.lemma.is_empty());
            assert!(t.pos.label().len() <= 4);
        }
    }
}

/// Capitalized unknown mid-sentence words are proper nouns (the backbone
/// of entity mention detection).
#[test]
fn unknown_capitalized_is_nnp() {
    let consonants = b"bcdfgkpqvxz";
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xCAFE + case);
        let upper = (b'A' + rng.gen_range(0u32..26) as u8) as char;
        let tail = arb_string(&mut rng, consonants, 3, 8);
        let w = format!("{upper}{tail}");
        let s = format!("Who wrote {w}?");
        let tokens = relpat_nlp::tag_sentence(&s);
        let t = tokens.iter().find(|t| t.text == w).unwrap();
        assert_eq!(t.pos, PosTag::Nnp);
    }
}

/// Words of QALD-style questions, mixed by the vocabulary sweep below.
const VOCABULARY: [&str; 48] = [
    "Which", "What", "Who", "Where", "When", "How", "many", "is", "are", "was", "did", "does",
    "has", "been", "of", "by", "in", "to", "with", "the", "a", "all", "capital", "wife", "written",
    "directed", "born", "married", "book", "city", "people", "films", "alive", "still", "tall",
    "largest", "Orhan", "Pamuk", "Turkey", "Obama", "'s", "Give", "me", "write", "live", "and",
    "?", ".",
];

/// Seeded questions of 2–11 vocabulary words: every parse has single heads,
/// a headless root and no cycle, and renders as a tree.
#[test]
fn parser_keeps_its_invariants_on_vocabulary_questions() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for case in 0..20_000 {
        let len = rng.gen_range(2usize..=11);
        let words: Vec<&str> =
            (0..len).map(|_| VOCABULARY[rng.gen_range(0..VOCABULARY.len())]).collect();
        let q = words.join(" ");
        let g = parse_sentence(&q);
        let n = g.tokens.len();
        for (head, dependent, _) in g.edges() {
            let listed = g.children(head).filter(|&(d, _)| d == dependent).count();
            assert_eq!(listed, 1, "case {case} {q:?}: token {dependent} listed {listed} times");
        }
        if let Some(root) = g.root {
            assert!(g.head_of(root).is_none(), "case {case} {q:?}: root has a head");
        }
        for start in 0..n {
            let mut node = start;
            let mut steps = 0;
            while let Some((head, _)) = g.head_of(node) {
                node = head;
                steps += 1;
                assert!(steps <= n, "case {case} {q:?}: cycle through token {start}");
            }
        }
        assert!(!g.to_tree_string().is_empty());
    }
}
