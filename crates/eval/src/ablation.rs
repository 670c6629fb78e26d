//! Ablation sweeps over the pipeline's design choices (DESIGN.md §5).
//!
//! Each ablation disables or perturbs one ingredient and re-runs the full
//! Table-2 benchmark, quantifying that ingredient's contribution:
//!
//! - **A1** relational patterns off (§2.2.3),
//! - **A2** WordNet similar-property expansion off (§2.2.1),
//! - **A3** expected-type checking off (§2.3.2 / Table 1),
//! - **A4** string-similarity threshold sweep (§2.2.1's scoring scheme),
//! - **A5** page-link-centrality disambiguation off (§2.2.5).

use relpat_kb::{KnowledgeBase, QaldQuestion};
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{AnswerConfig, MappingConfig, Pipeline, PipelineConfig};

use crate::metrics::Counts;
use crate::runner::run_benchmark;

/// One ablation configuration.
#[derive(Debug, Clone)]
pub struct Ablation {
    pub name: &'static str,
    pub description: &'static str,
    pub config: PipelineConfig,
}

/// Outcome of one ablation run.
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub name: String,
    pub description: String,
    pub counts: Counts,
}

fn base() -> PipelineConfig {
    PipelineConfig::standard()
}

/// The extended-system configuration (paper + §5/§6 future work). Evaluated
/// as "X1" alongside the ablations; note it re-mines nothing here — the
/// sweep shares one pattern store, so only the extension *handlers* differ.
fn extended() -> PipelineConfig {
    PipelineConfig::extended()
}

/// The standard ablation suite.
pub fn ablation_suite() -> Vec<Ablation> {
    let mut out = vec![
        Ablation { name: "full", description: "full system (paper configuration)", config: base() },
        Ablation {
            name: "A1-no-patterns",
            description: "relational patterns disabled",
            config: PipelineConfig {
                mapping: MappingConfig {
                    use_relational_patterns: false,
                    ..MappingConfig::default()
                },
                ..base()
            },
        },
        Ablation {
            name: "A2-no-wordnet",
            description: "WordNet similar-property expansion disabled",
            config: PipelineConfig {
                mapping: MappingConfig {
                    use_wordnet_expansion: false,
                    ..MappingConfig::default()
                },
                ..base()
            },
        },
        Ablation {
            name: "A3-no-typecheck",
            description: "expected answer type checking disabled",
            config: PipelineConfig {
                answer: AnswerConfig { use_type_check: false },
                ..base()
            },
        },
        Ablation {
            name: "A5-no-centrality",
            description: "page-link centrality disambiguation disabled",
            config: PipelineConfig {
                mapping: MappingConfig { use_centrality: false, ..MappingConfig::default() },
                ..base()
            },
        },
    ];
    out.push(Ablation {
        name: "X1-extended",
        description: "paper system + §5/§6 future-work extensions",
        config: extended(),
    });
    for threshold in [0.5, 0.6, 0.7, 0.8, 0.9] {
        out.push(Ablation {
            name: match (threshold * 100.0) as u32 {
                50 => "A4-sim-0.50",
                60 => "A4-sim-0.60",
                70 => "A4-sim-0.70",
                80 => "A4-sim-0.80",
                _ => "A4-sim-0.90",
            },
            description: "string-similarity acceptance threshold sweep",
            config: PipelineConfig {
                mapping: MappingConfig {
                    string_sim_threshold: threshold,
                    ..MappingConfig::default()
                },
                ..base()
            },
        });
    }
    out
}

/// Runs every ablation. Mines the pattern store once and reuses it.
pub fn run_ablations(kb: &KnowledgeBase, questions: &[QaldQuestion]) -> Vec<AblationResult> {
    run_selected(kb, questions, &ablation_suite())
}

/// Runs a chosen subset of ablations.
pub fn run_selected(
    kb: &KnowledgeBase,
    questions: &[QaldQuestion],
    suite: &[Ablation],
) -> Vec<AblationResult> {
    // Mining is the expensive part; do it once and rebuild cheap pipelines
    // around the same store by re-mining? PatternStore is not clonable, so
    // keep one pipeline and swap configs.
    // Mine once with data-property sentences included: a superset store.
    // The paper-faithful configurations never look at data patterns (their
    // candidates are only consulted by the extension handlers), so sharing
    // the superset store keeps every row comparable while mining only once.
    let mined = mine(kb, &CorpusConfig::with_data_properties());
    let mut pipeline = Pipeline::with_pattern_store(kb, mined.store, PipelineConfig::standard());
    let mut out = Vec::with_capacity(suite.len());
    for ablation in suite {
        pipeline.set_config(ablation.config.clone());
        let report = run_benchmark(&pipeline, questions);
        out.push(AblationResult {
            name: ablation.name.to_string(),
            description: ablation.description.to_string(),
            counts: report.counts,
        });
    }
    out
}

/// Renders the ablation table.
pub fn ablation_table(results: &[AblationResult]) -> String {
    let mut out = String::new();
    out.push_str("| Ablation | Answered | Correct | Precision | Recall | F1 |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for r in results {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} % | {:.1} % | {:.1} % |\n",
            r.name,
            r.counts.answered,
            r.counts.correct,
            r.counts.precision() * 100.0,
            r.counts.recall() * 100.0,
            r.counts.f1() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, qald_questions, KbConfig};

    #[test]
    fn suite_has_expected_members() {
        let suite = ablation_suite();
        assert_eq!(suite.len(), 11);
        assert_eq!(suite[0].name, "full");
        assert!(suite.iter().any(|a| a.name == "A1-no-patterns"));
        assert!(suite.iter().filter(|a| a.name.starts_with("A4")).count() == 5);
    }

    #[test]
    fn key_ablations_degrade_or_preserve_quality() {
        let kb = generate(&KbConfig::tiny());
        let questions = qald_questions(&kb);
        let subset: Vec<Ablation> = ablation_suite()
            .into_iter()
            .filter(|a| matches!(a.name, "full" | "A1-no-patterns" | "A3-no-typecheck"))
            .collect();
        let results = run_selected(&kb, &questions, &subset);
        let full = &results[0].counts;
        let no_patterns = &results[1].counts;
        let no_typecheck = &results[2].counts;

        // Patterns drive recall: removing them must not increase coverage.
        assert!(no_patterns.answered <= full.answered);
        // Type checking protects precision: without it precision must not
        // improve while the same or more questions are answered.
        assert!(no_typecheck.answered >= full.answered);
        assert!(no_typecheck.precision() <= full.precision() + 1e-9);
    }

    #[test]
    fn table_renders_all_rows() {
        let results = vec![AblationResult {
            name: "full".into(),
            description: "d".into(),
            counts: Counts::new(55, 18, 15),
        }];
        let t = ablation_table(&results);
        assert!(t.contains("full"));
        assert!(t.contains("83.3 %"));
    }
}
