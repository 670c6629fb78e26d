//! Interactive question answering session.
//!
//! Questions come from the command line or stdin (one per line):
//!
//! ```sh
//! cargo run --release --example interactive_qa -- "Who directed Titanic?"
//! echo "How tall is Michael Jordan?" | cargo run --release --example interactive_qa
//! ```
//!
//! With `--trace`, every pipeline stage is printed: the dependency parse
//! (paper Figure 1), the triple bucket (§2.1), candidate queries (§2.3) and
//! the winning query.

use std::io::BufRead;

use relpat::kb::{generate, KbConfig, KnowledgeBase};
use relpat::nlp::parse_sentence;
use relpat::qa::{AnswerValue, Pipeline, Response};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let questions: Vec<String> = args.into_iter().filter(|a| a != "--trace").collect();

    eprintln!("Loading knowledge base and mining patterns…");
    let kb = generate(&KbConfig::default());
    let qa = Pipeline::new(&kb);
    eprintln!("Ready.\n");

    if questions.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let line = line.trim();
            if line.is_empty() || line == "quit" || line == "exit" {
                continue;
            }
            answer_one(&kb, &qa, line, trace);
        }
    } else {
        for q in &questions {
            answer_one(&kb, &qa, q, trace);
        }
    }
}

fn answer_one(kb: &KnowledgeBase, qa: &Pipeline<'_>, question: &str, trace: bool) {
    let response = qa.answer(question);
    if trace {
        let graph = parse_sentence(question);
        println!("Dependency graph:");
        print!("{}", graph.to_tree_string());
        // The full §2 walkthrough for this question.
        println!("{}", response.trace.render());
    } else {
        println!("Q: {question}");
        print_answer(kb, &response);
    }
    println!();
}

fn print_answer(kb: &KnowledgeBase, response: &Response) {
    match &response.answer {
        Some(ans) => match &ans.value {
            AnswerValue::Terms(terms) => {
                let rendered: Vec<String> = terms
                    .iter()
                    .map(|t| {
                        t.as_iri()
                            .and_then(|i| kb.label_of(i))
                            .map(str::to_string)
                            .unwrap_or_else(|| {
                                t.as_literal()
                                    .map(|l| l.lexical_form().to_string())
                                    .unwrap_or_else(|| t.to_string())
                            })
                    })
                    .collect();
                println!("A: {}", rendered.join(", "));
            }
            AnswerValue::Boolean(b) => println!("A: {}", if *b { "yes" } else { "no" }),
        },
        None => println!("A: (no answer — {:?})", response.stage),
    }
}
