//! The metric names this benchmark reports. `BENCHMARK.json` at the
//! repository root lists the same end-to-end and per-layer names; the
//! self-test checks that the two agree.

/// Gated end-to-end metrics, reported by every workload (see the
/// README for what each means on each workload). All but `setup_s` are
/// in multiples of the benchmark's own reference SpMV (`calib.rs`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tune_refspmv", "refspmv"),
    ("cached_tune_refspmv", "refspmv"),
    ("apply_refspmv", "refspmv"),
];

/// The end-to-end metrics printed by name but not gated:
/// `(workload, name, unit)`.
pub const NAMED: &[(&str, &str, &str)] = &[
    ("suite", "tune_ms", "ms"),
    ("suite", "cached_tune_ms", "ms"),
    ("suite", "apply_ms", "ms"),
    ("amg", "tune_ms", "ms"),
    ("amg", "cached_tune_ms", "ms"),
    ("amg", "apply_ms", "ms"),
    ("serve_mix", "tune_ms", "ms"),
    ("serve_mix", "cached_tune_ms", "ms"),
    ("serve_mix", "apply_ms", "ms"),
    ("suite", "spmv_gflops", "GFLOP/s"),
    ("suite", "spmm_gflops", "GFLOP/s"),
    ("suite", "prepare_ms", "ms"),
    ("suite", "cached_prepare_ms", "ms"),
    ("amg", "amg_setup_s", "s"),
    ("amg", "solve_s", "s"),
    ("serve_mix", "serve_rps", "req/s"),
    ("serve_mix", "warm_p50_ms", "ms"),
    ("serve_mix", "warm_tail_ms", "ms"),
    ("serve_mix", "cold_p50_ms", "ms"),
    ("serve_mix", "cold_tail_ms", "ms"),
];

/// Suite matrix names, in `representative_suite` order.
pub const SUITE_NAMES: [&str; 16] = [
    "syn_multiband35",
    "syn_sevenband",
    "syn_pentaband",
    "syn_stencil5",
    "syn_degree2",
    "syn_degree3_dual",
    "syn_rect_deg4",
    "syn_rect_deg3",
    "syn_block98",
    "syn_heavy222",
    "syn_heavy97",
    "syn_cfd140",
    "syn_osm_graph",
    "syn_rect_powerlaw",
    "syn_dictionary",
    "syn_roadnet",
];

const LAYER_FIXED: &[(&str, &str)] = &[
    ("matrix.fingerprint_ms", "ms"),
    ("matrix.convert_ms", "ms"),
    ("features.extract_ms", "ms"),
    ("features.powerlaw_ms", "ms"),
    ("learn.predict_us", "us"),
    ("learn.confident_ratio", "ratio"),
    ("learn.pick_efficiency", "ratio"),
    ("core.decisions.predicted", "count"),
    ("core.decisions.measured", "count"),
    ("core.decisions.cached", "count"),
    ("core.decisions.degraded", "count"),
    ("core.fallback_candidates", "count"),
    ("core.prepare_self_ms", "ms"),
    ("core.containment_ratio", "ratio"),
    ("core.spmm_fallback_picks", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("kernels.plan_ms", "ms"),
    ("kernels.bytes_computed", "bytes"),
    ("kernels.flops_per_byte", "flop/byte"),
    ("kernels.bw_fraction", "ratio"),
    ("kernels.stream_gbs", "GB/s"),
    ("kernels.ref_us", "us"),
    ("kernels.csr_basic_us", "us"),
    ("pool.dispatches_per_call", "count"),
    ("pool.spawns", "count"),
    ("amg.hierarchy_s", "s"),
    ("amg.tune_s", "s"),
    ("amg.levels", "count"),
    ("amg.iterations", "count"),
    ("amg.formats", "count"),
    ("amg.vcycle_ms", "ms"),
    ("amg.plain_vcycle_ms", "ms"),
    ("amg.setup_cache_hits", "count"),
    ("amg.setup_cache_misses", "count"),
    ("amg.degraded_ops", "count"),
    ("service.parse_ms.cold", "ms"),
    ("service.parse_ms.warm", "ms"),
    ("service.encode_ms.warm", "ms"),
    ("service.unattributed_ms.cold", "ms"),
    ("service.unattributed_ms.warm", "ms"),
    ("service.frame_bytes.cold", "bytes"),
    ("service.frame_bytes.warm", "bytes"),
    ("service.handle_hit_ratio", "ratio"),
    ("service.wire_matrix_parses", "count"),
    ("service.shed", "count"),
    ("service.deadline_misses", "count"),
    ("service.queue_high_watermark", "count"),
    ("trace.overhead.tune_ms", "ms"),
    ("trace.overhead.cached_tune_ms", "ms"),
    ("trace.overhead.apply_ms", "ms"),
];

/// Every per-layer metric of the traced run, in report order. A layer
/// a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for name in SUITE_NAMES {
        out.push((format!("kernels.spmv_us.{name}"), "us"));
    }
    for name in SUITE_NAMES {
        out.push((format!("kernels.spmm_us_per_col.{name}"), "us"));
    }
    out
}
