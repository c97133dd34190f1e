//! `amg`: the two Table 4 problems through `smat-amg`.
//!
//! CLJP on the 7-point 3-D Laplacian and Ruge–Stüben on the 9-point
//! 2-D Laplacian, each built with `AmgSolver::with_smat` on a cleared
//! decision cache (cold), built again on the warm cache (cache-hit
//! re-setup, as a time-stepping code re-sets up an unchanged
//! structure), and solved by V-cycles to a relative tolerance of 1e-8
//! from the seeded right-hand side. The plain CSR hierarchy is solved
//! alongside: the SMAT solve must converge in the same number of
//! V-cycles.

use crate::inputs::vector;
use crate::layers::{pick_efficiency, pick_json, replay_stages, Decisions, Tuned};
use crate::report::{json_str, Report};
use crate::calib::{self, Summary, Yardstick};
use crate::stats::{geomean, median};
use crate::{model, Ctx};
use smat::Smat;
use smat_amg::{
    AmgConfig, AmgSolver, Coarsening, CompiledHierarchy, CycleConfig, OpApply, Workspace,
};
use smat_matrix::gen::{laplacian_2d_9pt, laplacian_3d_7pt};
use smat_matrix::{Csr, Format};
use std::time::{Duration, Instant};

pub const TOL: f64 = 1e-8;
const MAX_CYCLES: usize = 200;

/// Grid sizes: `(7-point edge, 9-point edge)`. Each V-cycle makes a
/// few dozen parallel dispatches whatever the grid, and on a contended
/// host their wake-up latency swings the solve time; grids this large
/// keep the arithmetic well above that, while a round (two set-ups and
/// two solves per problem) still fits several times in a 10 s window.
const GRID: (usize, usize) = (24, 240);
const QUICK_GRID: (usize, usize) = (8, 40);

struct Problem {
    name: &'static str,
    a: Csr<f64>,
    config: AmgConfig,
    b: Vec<f64>,
}

struct Setup {
    engine: Smat<f64>,
    source: model::Source,
    problems: Vec<Problem>,
}

fn setup(ctx: &Ctx) -> Setup {
    let (model, source) = model::load();
    let engine = Smat::with_config(model, model::engine_config(ctx.threads))
        .expect("the pinned model is double precision");
    let (n7, n9) = if ctx.quick { QUICK_GRID } else { GRID };
    let problems = [
        (
            "cljp_7pt",
            laplacian_3d_7pt::<f64>(n7, n7, n7),
            Coarsening::Cljp,
        ),
        (
            "rs_9pt",
            laplacian_2d_9pt::<f64>(n9, n9),
            Coarsening::RugeStuben,
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (name, a, coarsening))| Problem {
        name,
        b: vector(a.rows(), ctx.seed, 0xA0 + i as u64)
            .into_iter()
            .map(|v| v + 1.0)
            .collect(),
        a,
        config: AmgConfig {
            coarsening,
            ..AmgConfig::default()
        },
    })
    .collect();
    Setup {
        engine,
        source,
        problems,
    }
}

#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    cached: Vec<f64>,
    solve: Vec<f64>,
    plain_solve: Vec<f64>,
}

/// The tuned operators of a compiled hierarchy, finest first, labelled
/// `level.op`.
fn tuned_ops(c: &CompiledHierarchy<f64>) -> Vec<(String, &smat::TunedSpmv<f64>)> {
    let mut out = Vec::new();
    for (l, level) in c.levels.iter().enumerate() {
        for (op, apply) in [
            ("a", Some(&level.a)),
            ("p", level.p.as_ref()),
            ("r", level.r.as_ref()),
        ] {
            if let Some(OpApply::Tuned(t)) = apply {
                out.push((format!("L{l}.{op}"), &**t));
            }
        }
    }
    out
}

fn relative_residual(a: &Csr<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    a.spmv(x, &mut ax).expect("shapes match");
    let r: f64 = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (q - p) * (q - p))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    r / bn
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..ctx.setups {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(ctx));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        engine,
        source,
        problems,
    } = state.expect("at least one set-up");
    report.metric("setup_s", median(&setup_s), "s");
    ctx.record_model(&mut report, &source);
    let cycle = CycleConfig::default();
    let tracer = ctx.tracer;

    // Warm-up: the plain reference hierarchy and iteration count, and
    // the first tuned set-up's per-level picks.
    let mut plain = Vec::new();
    let mut plain_iters = Vec::new();
    let mut first_formats = Vec::new();
    for p in &problems {
        let solver = AmgSolver::new(p.a.clone(), &p.config, cycle);
        let mut x = vec![0.0; p.a.rows()];
        let st = solver.solve(&p.b, &mut x, TOL, MAX_CYCLES);
        report.attempt(st.converged, || {
            format!("{}: plain solve did not converge", p.name)
        });
        plain_iters.push(st.iterations);
        plain.push(solver);
        engine.clear_cache();
        let tuned = AmgSolver::with_smat(p.a.clone(), &p.config, cycle, &engine);
        for (at, t) in tuned_ops(tuned.compiled()) {
            report
                .picks
                .push(pick_json(&engine, &format!("{}.{at}", p.name), t));
        }
        first_formats.push(tuned.compiled().a_formats());
        report.fact(
            format!("input.{}", p.name),
            format!(
                "{{\"rows\": {}, \"nnz\": {}, \"levels\": {}, \"operator_complexity\": {}, \"plain_iterations\": {}, \"bytes_computed_finest\": {}, \"label\": \"computed\"}}",
                p.a.rows(),
                p.a.nnz(),
                tuned.hierarchy().num_levels(),
                tuned.hierarchy().operator_complexity(),
                st.iterations,
                p.a.nnz() * 16 + (p.a.rows() + 1) * 8 + 16 * p.a.rows()
            ),
        );
    }

    let mut samples: Vec<Samples> = problems.iter().map(|_| Samples::default()).collect();
    // A yardstick pass runs over every operator of the hierarchy (A, P
    // and R of each level), the data a V-cycle touches.
    let operators: Vec<Vec<&Csr<f64>>> = plain
        .iter()
        .map(|solver| {
            solver
                .hierarchy()
                .levels
                .iter()
                .flat_map(|l| std::iter::once(&l.a).chain(&l.p).chain(&l.r))
                .collect()
        })
        .collect();
    let mut yard: Vec<Yardstick> = problems.iter().map(|_| Yardstick::new(1)).collect();
    let mut decisions = Decisions::default();
    let mut flips = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut degraded_ops = 0u64;
    let mut last_hits = vec![0u64; problems.len()];
    let mut last_misses = vec![0u64; problems.len()];
    let mut iterations = vec![0usize; problems.len()];
    let mut cycles = 0u64;
    let mut dispatches = 0u64;
    let mut spawns = 0u64;
    let mut op_problem = std::collections::BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut rounds = 0;
    while rounds < ctx.min_rounds || Instant::now() < deadline {
        rounds += 1;
        for (i, p) in problems.iter().enumerate() {
            let s = &mut samples[i];
            let root = tracer.op();
            op_problem.insert(root.op, i);
            engine.clear_cache();
            let a = p.a.clone();
            yard[i].sample(&operators[i], &p.b);
            let t0 = Instant::now();
            let solver = tracer.span("amg.with_smat", root, |_| {
                AmgSolver::with_smat(a, &p.config, cycle, &engine)
            });
            s.cold.push(t0.elapsed().as_secs_f64());
            let stats = solver.setup_tuning_stats().cloned().unwrap_or_default();
            misses += stats.misses;
            hits += stats.hits;
            last_misses[i] = stats.misses;
            degraded_ops += solver.setup_degraded_ops() as u64;
            for (_, t) in tuned_ops(solver.compiled()) {
                decisions.count(t.decision());
                report.attempt(!t.decision().is_degraded(), || {
                    format!("{}: degraded operator", p.name)
                });
            }
            if solver.compiled().a_formats() != first_formats[i] {
                flips += 1;
            }

            let a = p.a.clone();
            yard[i].sample(&operators[i], &p.b);
            let t0 = Instant::now();
            let again = tracer.span("amg.with_smat_cached", root, |_| {
                AmgSolver::with_smat(a, &p.config, cycle, &engine)
            });
            s.cached.push(t0.elapsed().as_secs_f64());
            let stats = again.setup_tuning_stats().cloned().unwrap_or_default();
            misses += stats.misses;
            hits += stats.hits;
            last_hits[i] = stats.hits;
            for (_, t) in tuned_ops(again.compiled()) {
                decisions.count(t.decision());
            }
            drop(again);

            let mut x = vec![0.0; p.a.rows()];
            let d0 = smat_pool::dispatch_count();
            let sp0 = smat_pool::spawn_count();
            let t0 = Instant::now();
            let st = tracer.span("amg.solve", root, |_| {
                solver.solve(&p.b, &mut x, TOL, MAX_CYCLES)
            });
            s.solve.push(t0.elapsed().as_secs_f64());
            yard[i].sample(&operators[i], &p.b);
            dispatches += smat_pool::dispatch_count() - d0;
            spawns += smat_pool::spawn_count() - sp0;
            cycles += st.iterations as u64;
            iterations[i] = st.iterations;
            let residual = relative_residual(&p.a, &x, &p.b);
            if !st.converged || st.iterations != plain_iters[i] || residual > TOL * 1.01 {
                report.wrong_output(format!(
                    "{}: SMAT solve converged={} in {} V-cycles (plain {}), residual {residual:e}",
                    p.name, st.converged, st.iterations, plain_iters[i]
                ));
            } else {
                report.attempt(true, String::new);
            }

            let mut x = vec![0.0; p.a.rows()];
            let t0 = Instant::now();
            let st = tracer.span("amg.plain_solve", root, |_| {
                plain[i].solve(&p.b, &mut x, TOL, MAX_CYCLES)
            });
            s.plain_solve.push(t0.elapsed().as_secs_f64());
            report.attempt(st.converged && st.iterations == plain_iters[i], || {
                format!("{}: plain solve diverged from warm-up", p.name)
            });

            if tracer.enabled() {
                traced_round(ctx, &engine, p, &plain[i], root, &cycle, &mut report);
            }
        }
    }
    report.fact("amg.rounds", rounds.to_string());
    report.fact("amg.pick_flips", flips.to_string());
    for (p, it) in problems.iter().zip(&iterations) {
        report.fact(format!("amg.iterations.{}", p.name), it.to_string());
    }

    for ((p, s), y) in problems.iter().zip(&samples).zip(&yard) {
        let spread = |v: &[f64]| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("[{}, {}, {}]", lo * 1e3, median(v) * 1e3, hi * 1e3)
        };
        report.fact(
            format!("timing.{}", p.name),
            format!(
                "{{\"unit\": \"ms [min, median, max]\", \"cold\": {}, \"cached\": {}, \"solve\": {}, \"plain_solve\": {}, \"yardstick\": {}}}",
                spread(&s.cold),
                spread(&s.cached),
                spread(&s.solve),
                spread(&s.plain_solve),
                spread(&y.samples)
            ),
        );
    }
    let sum =
        |f: &dyn Fn(&Samples) -> &Vec<f64>| -> f64 { samples.iter().map(|s| median(f(s))).sum() };
    let cold_s = sum(&|s| &s.cold);
    let cached_s = sum(&|s| &s.cached);
    let solve_s = sum(&|s| &s.solve);
    let plain_s = sum(&|s| &s.plain_solve);
    report.metric("amg_setup_s", cold_s, "s");
    report.metric("solve_s", solve_s, "s");
    report.metric("tune_ms", cold_s * 1e3, "ms");
    report.metric("cached_tune_ms", cached_s * 1e3, "ms");
    report.metric("apply_ms", solve_s * 1e3, "ms");
    // Gated: geomean over problems of trimmed-mean time / trimmed-mean
    // yardstick pass (see calib.rs).
    let in_refs = |f: &dyn Fn(&Samples) -> &Vec<f64>| -> f64 {
        let ratios: Vec<f64> = samples
            .iter()
            .zip(&yard)
            .map(|(s, y)| calib::in_refs(f(s), y, Summary::TrimmedMean))
            .collect();
        geomean(&ratios)
    };
    report.metric("tune_refspmv", in_refs(&|s| &s.cold), "refspmv");
    report.metric("cached_tune_refspmv", in_refs(&|s| &s.cached), "refspmv");
    report.metric("apply_refspmv", in_refs(&|s| &s.solve), "refspmv");
    report.ratio(
        "table4_speedup",
        plain_s / solve_s,
        "plain CSR hierarchy solve time / SMAT-tuned hierarchy solve time, both problems, V-cycles to 1e-8",
    );

    if tracer.enabled() {
        decisions.report(&mut report);
        report.metric(
            "core.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.metric(
            "amg.setup_cache_hits",
            last_hits.iter().sum::<u64>() as f64,
            "count",
        );
        report.metric(
            "amg.setup_cache_misses",
            last_misses.iter().sum::<u64>() as f64,
            "count",
        );
        report.metric("amg.degraded_ops", degraded_ops as f64, "count");
        report.metric(
            "amg.iterations",
            iterations.iter().sum::<usize>() as f64,
            "count",
        );
        report.metric(
            "pool.dispatches_per_call",
            dispatches as f64 / cycles.max(1) as f64,
            "count",
        );
        report.metric("pool.spawns", spawns as f64, "count");
        let by_problem = |name: &str| -> f64 {
            tracer
                .durations_by(name, |op| op_problem.get(&op).copied())
                .values()
                .map(|d| median(d))
                .sum::<f64>()
                / 1e9
        };
        report.metric("amg.hierarchy_s", by_problem("amg.setup"), "s");
        report.metric("amg.tune_s", by_problem("amg.compile_smat"), "s");
        report.metric("amg.vcycle_ms", by_problem("amg.v_cycle") * 1e3, "ms");
        report.metric(
            "amg.plain_vcycle_ms",
            by_problem("amg.plain_v_cycle") * 1e3,
            "ms",
        );

        // Stage replay and pick efficiency over the last hierarchy's
        // tuned operators.
        let mut levels = 0;
        let mut formats = 0;
        let mut owned: Vec<(String, Csr<f64>, Format)> = Vec::new();
        for p in &problems {
            engine.clear_cache();
            let solver = AmgSolver::with_smat(p.a.clone(), &p.config, cycle, &engine);
            levels += solver.compiled().num_levels();
            let mut distinct = solver.compiled().a_formats();
            distinct.sort_by_key(|f| f.index());
            distinct.dedup();
            formats += distinct.len();
            for (l, level) in solver.hierarchy().levels.iter().enumerate() {
                let compiled = &solver.compiled().levels[l];
                owned.push((
                    format!("{}.L{l}.a", p.name),
                    level.a.clone(),
                    compiled.a.format(),
                ));
                if let (Some(m), Some(op)) = (&level.p, &compiled.p) {
                    owned.push((format!("{}.L{l}.p", p.name), m.clone(), op.format()));
                }
                if let (Some(m), Some(op)) = (&level.r, &compiled.r) {
                    owned.push((format!("{}.L{l}.r", p.name), m.clone(), op.format()));
                }
            }
        }
        report.metric("amg.levels", levels as f64, "count");
        report.metric("amg.formats", formats as f64, "count");
        let items: Vec<Tuned<'_>> = owned
            .iter()
            .map(|(name, csr, format)| Tuned {
                name: name.clone(),
                csr,
                format: *format,
            })
            .collect();
        let stages_ms = replay_stages(&engine, tracer, &items, 3, &mut report);
        let tune_ms = report.get("amg.tune_s").unwrap_or(0.0) * 1e3;
        report.metric("core.prepare_self_ms", tune_ms - stages_ms, "ms");
        pick_efficiency(
            &engine,
            tracer,
            &items,
            Duration::from_millis(1),
            &mut report,
        );
        report.fact_str(
            "amg.stage_replay_scope",
            "every A, P and R operator of both hierarchies",
        );
    }
    report.fact(
        "amg.grids",
        json_str(&format!("{:?}", if ctx.quick { QUICK_GRID } else { GRID })),
    );
    report
}

/// The traced decomposition of one problem: hierarchy build, per
/// operator tuning, and the V-cycles of the SMAT and plain hierarchies
/// one by one.
fn traced_round(
    ctx: &Ctx,
    engine: &Smat<f64>,
    p: &Problem,
    plain: &AmgSolver<f64>,
    root: crate::trace::Ctx,
    cycle: &CycleConfig,
    report: &mut Report,
) {
    let tracer = ctx.tracer;
    let h = tracer.span("amg.setup", root, |_| {
        smat_amg::setup(p.a.clone(), &p.config)
    });
    engine.clear_cache();
    let compiled = tracer.span("amg.compile_smat", root, |_| {
        CompiledHierarchy::with_smat(&h, engine)
    });
    let bnorm = p.b.iter().map(|v| v * v).sum::<f64>().sqrt();
    for (name, c) in [
        ("amg.v_cycle", &compiled),
        ("amg.plain_v_cycle", plain.compiled()),
    ] {
        let mut ws = Workspace::new();
        let mut x = vec![0.0; p.a.rows()];
        let mut iterations = 0;
        while c.residual_norm(&p.b, &x) > TOL * bnorm && iterations < MAX_CYCLES {
            tracer.span(name, root, |_| c.v_cycle(cycle, &p.b, &mut x, &mut ws));
            iterations += 1;
        }
        report.attempt(iterations < MAX_CYCLES, || {
            format!("{}: traced {name} loop did not converge", p.name)
        });
    }
}
