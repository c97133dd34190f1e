//! The repository benchmark: three workloads through the workspace's
//! public API, every output checked against a reference.
//!
//! ```text
//! smatbench --workload suite|amg|serve_mix --seed N --seconds S --trace 0|1 [--quick]
//! smatbench --train-model        # regenerate the pinned model.json
//! smatbench --pin-decisions      # then the suite's pinned decisions.json
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object holding the
//! gated end-to-end metrics; with `--trace 1` the workload runs twice,
//! untraced and then traced, and the line holds the per-layer metrics
//! (including the tracing overhead). See `README.md` in this directory.

mod amg;
mod calib;
mod inputs;
mod layers;
mod machine;
mod metrics;
mod model;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use report::{json_str, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// What a workload run needs from the command line and the machine.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub threads: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Rounds (or epochs) run even when the window has already closed.
    pub min_rounds: usize,
    pub stream_gbs: f64,
    pub tracer: &'a Tracer,
    /// Tune the suite's steady state live and save it as the pinned
    /// decisions.
    pub repin: bool,
}

impl Ctx<'_> {
    pub fn record_model(&self, report: &mut Report, source: &model::Source) {
        report.fact_str("model_source", source.name());
        if let model::Source::Trained { load_error } = source {
            report.fact_str("model_load_error", load_error);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repin: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    if std::env::args().nth(1).as_deref() == Some("--pin-decisions") {
        // A short suite run that tunes its steady state live and saves it.
        return Ok(Some(Args {
            workload: "suite".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: false,
            repin: true,
        }));
    }
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--quick" => quick = true,
            "--train-model" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["suite", "amg", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (suite, amg, serve_mix)"
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        quick,
        repin: false,
    }))
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "suite" => suite::run(ctx),
        "amg" => amg::run(ctx),
        _ => serve::run(ctx),
    }
}

/// Where run records and span logs go: `out/` next to this package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            eprintln!(
                "training the pinned model ({} matrices)...",
                model::TRAIN_CORPUS
            );
            let m = model::train();
            if let Err(e) = m.save(model::MODEL_PATH) {
                eprintln!("error: saving {}: {e}", model::MODEL_PATH);
                return ExitCode::from(1);
            }
            eprintln!("wrote {}", model::MODEL_PATH);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: smatbench --workload suite|amg|serve_mix --seed N --seconds S --trace 0|1 [--quick]");
            return ExitCode::from(2);
        }
    };

    // Pin the pool width before anything dispatches.
    let threads = machine::nproc();
    smat_kernels::exec::set_thread_target(threads);
    let stream_gbs = machine::stream_triad_gbs(threads);
    let (l2, l3) = machine::cache_sizes();

    let untraced = Tracer::new(false);
    let traced = Tracer::new(true);
    let ctx = |tracer| Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        threads,
        setups: if args.quick { 2 } else { 5 },
        min_rounds: 2,
        stream_gbs,
        tracer,
        repin: args.repin,
    };
    let base = run_workload(&args.workload, &ctx(&untraced));
    let mut report = if args.trace {
        let mut r = run_workload(&args.workload, &ctx(&traced));
        for name in ["tune_ms", "cached_tune_ms", "apply_ms"] {
            let diff = r.get(name).unwrap_or(0.0) - base.get(name).unwrap_or(0.0);
            r.metric(format!("trace.overhead.{name}"), diff, "ms");
        }
        r.absorb_counts(&base);
        r
    } else {
        base
    };

    report.metric("kernels.stream_gbs", stream_gbs, "GB/s");
    report.fact_str("workload", &args.workload);
    report.fact("seed", args.seed.to_string());
    report.fact("seconds", args.seconds.to_string());
    report.fact("trace", u8::from(args.trace).to_string());
    report.fact("quick", args.quick.to_string());
    report.fact("nproc", threads.to_string());
    report.fact("pool_width", smat_pool::current_num_threads().to_string());
    report.fact_str("simd_backend", smat_kernels::simd::active_backend());
    report.fact("l2_bytes", l2.to_string());
    report.fact("l3_bytes", l3.to_string());
    report.fact(
        "kernels.stream_gbs",
        format!(
            "{{\"value\": {stream_gbs}, \"array_bytes\": {}, \"arrays\": 3, \"threads\": {threads}, \"llc_bytes\": {l3}, \"note\": {}}}",
            machine::TRIAD_ARRAY_BYTES,
            json_str("arrays are capped to bound memory; below 4x LLC the figure can include cache hits")
        ),
    );

    for &(workload, name, unit) in metrics::NAMED {
        if workload == args.workload && report.get(name).is_none() {
            report.metric(name, 0.0, unit);
            report.failures.push(format!("{name} was not measured"));
        }
    }
    // Every metric the final line carries exists, even on a workload
    // that does not exercise its layer (those report 0).
    let per_layer = metrics::per_layer();
    let names: Vec<(&str, &str)> = if args.trace {
        per_layer.iter().map(|(n, u)| (n.as_str(), *u)).collect()
    } else {
        metrics::END_TO_END.to_vec()
    };
    for &(name, unit) in &names {
        if report.get(name).is_none() {
            report.metric(name, 0.0, unit);
        }
    }

    report.print_lines();
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), report.record_json())?;
        if args.trace {
            std::fs::write(dir.join(format!("{stem}-spans.json")), traced.to_json())?;
        }
        Ok(())
    });
    match written {
        Ok(()) => println!("record {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("warning: could not write the run record: {e}"),
    }
    println!("{}", report.result_line(&names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} wrong output(s)", report.wrong);
        ExitCode::from(1)
    }
}
