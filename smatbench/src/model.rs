//! The pinned tuner model.
//!
//! Training measures kernels, so two trainings on the same corpus can
//! label matrices differently and flip the tuner's picks. The benchmark
//! therefore tunes with one model, generated once by
//! `smatbench --train-model` and kept next to this package as
//! `model.json`. If that file does not load (for example after a
//! schema change), the run trains a replacement from the same fixed
//! corpus and records `model_source: "trained"`, so a comparison
//! across such a change is flagged.
//!
//! The suite's steady state is pinned the same way: the decisions its
//! steady calls replay are kept as `decisions.json`, written by
//! `smatbench --pin-decisions` (run it after `--train-model`). A run
//! whose pins do not load, or do not cover a matrix, tunes that matrix
//! live and records `decisions_source: "tuned"`.

use smat::{CacheSnapshot, Smat, SmatConfig, TrainedModel, Trainer};
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::Csr;
use std::sync::OnceLock;

pub const MODEL_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/model.json");

/// The suite's pinned steady-state decisions (format, kernel, plan and
/// SpMM pick per matrix), a tuning-cache snapshot written by
/// `smatbench --pin-decisions` with the pinned model.
pub const DECISIONS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/decisions.json");

/// Training corpus: fixed seed and size, the harness dimension range.
pub const TRAIN_SEED: u64 = 0x5A7B_0001;
pub const TRAIN_CORPUS: usize = 160;

/// The engine configuration every workload uses: the harness budgets
/// with the pool pinned to `threads`.
pub fn engine_config(threads: usize) -> SmatConfig {
    SmatConfig {
        pool_threads: Some(threads),
        ..smat_bench::harness_config()
    }
}

pub fn train() -> TrainedModel {
    let spec = CorpusSpec {
        count: TRAIN_CORPUS,
        seed: TRAIN_SEED,
        min_dim: 512,
        max_dim: 32_768,
    };
    let entries = generate_corpus::<f64>(&spec);
    let matrices: Vec<&Csr<f64>> = entries.iter().map(|e| &e.matrix).collect();
    Trainer::new(smat_bench::harness_config())
        .train(&matrices)
        .expect("the training corpus is not empty")
        .model
}

/// How the run's model was obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    Pinned,
    Trained { load_error: String },
}

impl Source {
    pub fn name(&self) -> &'static str {
        match self {
            Source::Pinned => "pinned",
            Source::Trained { .. } => "trained",
        }
    }
}

/// Loads the pinned decisions; the error says why they cannot be used.
pub fn load_decisions(engine: &Smat<f64>) -> Result<CacheSnapshot, String> {
    engine
        .load_cache_snapshot(DECISIONS_PATH)
        .map_err(|e| e.to_string())
}

/// Loads the pinned model, or trains the replacement (once per
/// process; later set-ups reuse it).
pub fn load() -> (TrainedModel, Source) {
    static TRAINED: OnceLock<TrainedModel> = OnceLock::new();
    match TrainedModel::load(MODEL_PATH) {
        Ok(model) => (model, Source::Pinned),
        Err(e) => (
            TRAINED.get_or_init(train).clone(),
            Source::Trained {
                load_error: e.to_string(),
            },
        ),
    }
}
