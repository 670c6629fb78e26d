//! Reproduces **Table 1** of the paper: expected answer types per question
//! word, and verifies each mapping empirically against the knowledge base's
//! class taxonomy by running one probe question per row through the
//! pipeline's type checker.
//!
//! Run with: `cargo run --release -p relpat-bench --bin repro-table1`

use relpat_kb::{generate, KbConfig};
use relpat_qa::{type_check, ExpectedType, QuestionKind};
use relpat_rdf::vocab::res;
use relpat_rdf::{Iri, Literal, Term};

fn main() {
    println!("=== Table 1 reproduction: expected answer types ===\n");
    println!("| Question Type | Expected answer type |");
    println!("|---|---|");
    let rows: &[(QuestionKind, &str, &str)] = &[
        (QuestionKind::Who, "Who", "Person, Organization, Company"),
        (QuestionKind::Where, "Where", "Place"),
        (QuestionKind::When, "When", "Date"),
        (QuestionKind::HowMany, "How many", "Numeric"),
    ];
    for (kind, word, types) in rows {
        let expected = ExpectedType::for_kind(*kind);
        println!("| {word} | {types} ({expected:?}) |");
    }
    println!();
    println!(
        "'Which' questions are constrained by the extracted rdf:type triple\n\
         instead of a type check ({:?}), as the paper notes.\n",
        ExpectedType::for_kind(QuestionKind::WhichClass)
    );

    // Empirical verification against the KB.
    let kb = generate(&KbConfig::default());
    let person = Term::Iri(Iri::new(res::iri("Orhan Pamuk")));
    let place = Term::Iri(Iri::new(res::iri("Ankara")));
    let date = Term::Literal(Literal::date(1952, 6, 7));
    let number = Term::Literal(Literal::double(1.98));

    println!("Verification against the synthetic DBpedia:");
    let checks: &[(&str, &Term, ExpectedType, bool)] = &[
        ("Who ← writer entity", &person, ExpectedType::PersonOrOrganization, true),
        ("Who ← city entity", &place, ExpectedType::PersonOrOrganization, false),
        ("Where ← city entity", &place, ExpectedType::Place, true),
        ("Where ← person entity", &person, ExpectedType::Place, false),
        ("When ← xsd:date literal", &date, ExpectedType::Date, true),
        ("When ← numeric literal", &number, ExpectedType::Date, false),
        ("How many ← numeric literal", &number, ExpectedType::Numeric, true),
        ("How many ← date literal", &date, ExpectedType::Numeric, false),
    ];
    let mut ok = true;
    for (label, term, expected, want) in checks {
        let id = kb.graph.term_id(term).unwrap_or_else(|| panic!("{term} not in the KB"));
        let got = type_check(&kb, id, *expected);
        let mark = if got == *want { "ok " } else { "FAIL" };
        ok &= got == *want;
        println!("  [{mark}] {label}: accepted={got} (expected {want})");
    }
    println!("\nTable 1 verification: {}", if ok { "ALL ROWS HOLD" } else { "MISMATCH" });
}
