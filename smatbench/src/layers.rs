//! Per-layer measurements shared by the workloads: the prepare
//! pipeline's stage calls replayed from outside (matrix, features,
//! learn), decision-path accounting (core) and the Table 3 R/W pick
//! efficiency (learn).

use crate::report::{json_str, Report};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use smat::{DecisionPath, Smat, TunedSpmv};
use smat_features::{extract_structure, fit_power_law_of_degrees};
use smat_matrix::{AnyMatrix, Csr, Format};
use std::time::Duration;

/// One tuned matrix as the stage replay sees it.
pub struct Tuned<'a> {
    pub name: String,
    pub csr: &'a Csr<f64>,
    pub format: Format,
}

/// Replays the stage calls of a cold `prepare` on each matrix `reps`
/// times inside spans, and reports `matrix.*`, `features.*` and
/// `learn.predict_us` as the sum over matrices of per-matrix medians.
/// Returns that sum of stage medians in ms, for `core.prepare_self_ms`.
pub fn replay_stages(
    engine: &Smat<f64>,
    tracer: &Tracer,
    items: &[Tuned<'_>],
    reps: usize,
    report: &mut Report,
) -> f64 {
    let limits = engine.config().conversion_limits();
    let mut ops = Vec::with_capacity(items.len());
    for item in items {
        let root = tracer.op();
        ops.push(root.op);
        for _ in 0..reps {
            tracer.span("core.stage_replay", root, |ctx| {
                std::hint::black_box(
                    tracer.span("matrix.fingerprint", ctx, |_| item.csr.fingerprint()),
                );
                let structure =
                    tracer.span("features.extract", ctx, |_| extract_structure(item.csr));
                let mut features = structure.features;
                features.r = tracer.span("features.powerlaw", ctx, |_| {
                    fit_power_law_of_degrees(structure.row_degrees.iter().copied())
                });
                std::hint::black_box(
                    tracer.span("learn.predict", ctx, |_| engine.model().predict(&features)),
                );
                let converted = tracer.span("matrix.convert", ctx, |_| {
                    AnyMatrix::convert_from_csr_with(item.csr, item.format, &limits)
                });
                drop(std::hint::black_box(converted));
            });
        }
    }
    let sum_ms = |name: &str| -> f64 {
        tracer
            .durations_by(name, |op| op)
            .iter()
            .filter(|(op, _)| ops.contains(op))
            .map(|(_, d)| median(d))
            .sum::<f64>()
            / 1e6
    };
    let fingerprint = sum_ms("matrix.fingerprint");
    let convert = sum_ms("matrix.convert");
    let extract = sum_ms("features.extract");
    let powerlaw = sum_ms("features.powerlaw");
    let predict = sum_ms("learn.predict");
    report.metric("matrix.fingerprint_ms", fingerprint, "ms");
    report.metric("matrix.convert_ms", convert, "ms");
    report.metric("features.extract_ms", extract, "ms");
    report.metric("features.powerlaw_ms", powerlaw, "ms");
    report.metric("learn.predict_us", predict * 1e3, "us");
    fingerprint + convert + extract + powerlaw + predict
}

/// Decision-path counts over a set of cold prepares.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decisions {
    pub predicted: u64,
    pub measured: u64,
    pub cached: u64,
    pub degraded: u64,
    pub fallback_candidates: u64,
}

impl Decisions {
    pub fn count(&mut self, path: &DecisionPath) {
        match path {
            DecisionPath::Predicted { .. } => self.predicted += 1,
            DecisionPath::Measured {
                candidates,
                failures,
            } => {
                self.measured += 1;
                self.fallback_candidates += (candidates.len() + failures.len()) as u64;
            }
            DecisionPath::Cached { .. } => self.cached += 1,
            DecisionPath::Degraded { .. } => self.degraded += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.predicted + self.measured + self.cached + self.degraded
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("core.decisions.predicted", self.predicted as f64, "count");
        report.metric("core.decisions.measured", self.measured as f64, "count");
        report.metric("core.decisions.cached", self.cached as f64, "count");
        report.metric("core.decisions.degraded", self.degraded as f64, "count");
        report.metric(
            "core.fallback_candidates",
            self.fallback_candidates as f64,
            "count",
        );
        let cold = self.predicted + self.measured + self.degraded;
        if cold > 0 {
            report.metric(
                "learn.confident_ratio",
                self.predicted as f64 / cold as f64,
                "ratio",
            );
        }
    }
}

/// Short name of a decision path, unwrapping cache replays.
pub fn path_name(path: &DecisionPath) -> &'static str {
    match path.source() {
        DecisionPath::Predicted { .. } => "predicted",
        DecisionPath::Measured { .. } => "measured",
        DecisionPath::Degraded { .. } => "degraded",
        DecisionPath::Cached { .. } => "cached",
    }
}

/// One pick as a JSON object: where, format, kernel, decision path.
pub fn pick_json(engine: &Smat<f64>, place: &str, tuned: &TunedSpmv<f64>) -> String {
    let spmm = tuned.spmm_kernel().map_or("null".to_string(), |k| {
        json_str(engine.library().info(k).name)
    });
    format!(
        "{{\"at\": {}, \"format\": {}, \"kernel\": {}, \"path\": {}, \"cached\": {}, \"spmm_kernel\": {}}}",
        json_str(place),
        json_str(&tuned.format().to_string()),
        json_str(engine.library().info(tuned.kernel()).name),
        json_str(path_name(tuned.decision())),
        tuned.decision().is_cached(),
        spmm
    )
}

/// `learn.pick_efficiency`: the geometric mean over matrices of the
/// picked format's measured rate over the best convertible format's
/// rate, from `smat::analyze` (the Table 3 R/W analysis). Also records
/// the R/W count.
pub fn pick_efficiency(
    engine: &Smat<f64>,
    tracer: &Tracer,
    items: &[Tuned<'_>],
    budget: Duration,
    report: &mut Report,
) {
    let mut ratios = Vec::new();
    let mut right = 0;
    for item in items {
        let row = tracer.span("learn.analyze", tracer.op(), |_| {
            smat::analyze(engine, &item.name, item.csr, budget)
        });
        let best = row.format_gflops[row.best_format.index()];
        let picked = row.format_gflops[row.smat_format.index()];
        // A pick the exhaustive labelling could not measure (its
        // conversion refused there) has no rate to compare.
        if best > 0.0 && picked > 0.0 {
            ratios.push((picked / best).min(1.0));
        }
        if row.correct {
            right += 1;
        }
    }
    report.metric("learn.pick_efficiency", geomean(&ratios), "ratio");
    report.fact("learn.table3_right", right.to_string());
    report.fact("learn.table3_analyzed", items.len().to_string());
    report.fact("learn.pick_efficiency_compared", ratios.len().to_string());
}
