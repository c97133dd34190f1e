//! `serve_mix`: an in-process `smat-service` daemon on TCP, driven by a
//! closed loop of solver-like clients.
//!
//! Each connection sends one cold triplet `tune` for a matrix, then a
//! fixed run of warm handle `spmv` and `spmm` (k = 8) calls on the
//! returned handle, then moves to its next matrix. Half of the cold
//! tunes repeat an earlier structure with new values (a decision-cache
//! hit); the other half are structures the daemon has not seen. To keep
//! that mix for the whole window while the resident set stays under
//! `handle_capacity`, the window is a sequence of epochs: each epoch
//! starts a fresh daemon (not timed), runs every connection's schedule
//! once, reads the `metrics` op and shuts the daemon down.

use crate::inputs::{fill_values, hash, reference_spmm, reference_spmv, vector};
use crate::layers::{pick_efficiency, pick_json, replay_stages, Decisions, Tuned};
use crate::report::Report;
use crate::calib::{self, Summary, Yardstick};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::{model, Ctx};
use serde::Value;
use smat::{Smat, TrainedModel};
use smat_matrix::gen::{banded, fixed_degree, power_law, random_uniform};
use smat_matrix::Csr;
use smat_service::proto::parse_request;
use smat_service::{Response, ServeConfig, Server, Status, WireHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const K: usize = 8;
/// Structures per connection; each appears twice per epoch (new, then
/// repeated with new values).
const STRUCTS_PER_CONN: usize = 4;
/// Warm calls after each cold tune: `true` = spmm, `false` = spmv.
const WARM_PATTERN: [bool; 12] = [
    false, false, true, false, false, true, false, false, true, false, false, true,
];

/// The `ServeConfig` fields raised from their defaults, as the
/// `serve_warm` bench raises them: one chatty tenant per connection is
/// not rate limited, and the largest cold frame fits.
fn serve_config() -> ServeConfig {
    ServeConfig {
        tenant_rate: 1e9,
        tenant_burst: 1e9,
        max_frame_bytes: 64 << 20,
        ..ServeConfig::default()
    }
}

/// One structure with its two value sets, pre-rendered.
struct Structure {
    name: String,
    values: [Csr<f64>; 2],
    cold_frame: [String; 2],
    x_json: String,
    xk_json: String,
    y_hash: [u64; 2],
    yk_hash: [u64; 2],
    x: Vec<f64>,
    xk_row_major: Vec<f64>,
}

struct Setup {
    model: TrainedModel,
    source: model::Source,
    structures: Vec<Structure>,
    server: Option<Daemon>,
}

struct Daemon {
    addr: SocketAddr,
    join: std::thread::JoinHandle<std::io::Result<smat_service::DrainSummary>>,
}

fn start_daemon(model: &TrainedModel, threads: usize) -> Daemon {
    let engine = Smat::with_config(model.clone(), model::engine_config(threads))
        .expect("the pinned model is double precision");
    let server =
        Server::bind_tcp("127.0.0.1:0", Arc::new(engine), serve_config()).expect("bind the daemon");
    let addr = server.local_addr().expect("a TCP address");
    let join = std::thread::spawn(move || server.run());
    Daemon { addr, join }
}

fn structure(g: usize, count: usize, quick: bool, seed: u64) -> Csr<f64> {
    // Rows grow geometrically over a 5x range, so cold frames span more
    // than 4x in bytes; the archetype cycles through the four format
    // families the tuner distinguishes.
    let base = if quick { 300.0 } else { 1200.0 };
    let rows = (base * 5f64.powf(g as f64 / (count - 1).max(1) as f64)) as usize;
    let s = seed ^ (g as u64) << 32;
    match g % 4 {
        0 => banded(rows, &[-40, -1, 0, 1, 40], 1.0, s),
        1 => fixed_degree(rows, rows, 4, 0, s),
        2 => random_uniform(rows, rows, 5, s),
        _ => power_law(rows, 60, 2.2, s),
    }
}

fn json_list(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", parts.join(","))
}

fn cold_frame(m: &Csr<f64>) -> String {
    let entries: Vec<String> = m
        .iter()
        .map(|(r, c, v)| format!("[{r},{c},{v:?}]"))
        .collect();
    format!(
        "{{\"op\":\"tune\",\"matrix\":{{\"rows\":{},\"cols\":{},\"nnz\":{},\"entries\":[{}]}}}}\n",
        m.rows(),
        m.cols(),
        m.nnz(),
        entries.join(",")
    )
}

fn setup(ctx: &Ctx) -> Setup {
    let (model, source) = model::load();
    let count = ctx.threads * STRUCTS_PER_CONN;
    let structures = (0..count)
        .map(|g| {
            let pattern = structure(g, count, ctx.quick, ctx.seed);
            let label = (g as u64 + 1) << 8;
            let values = [1u64, 2].map(|set| {
                let mut m = pattern.clone();
                fill_values(&mut m, ctx.seed, label | set);
                m
            });
            let x = vector(pattern.cols(), ctx.seed, label | 3);
            // Wire blocks are column-major; the reference is row-major.
            let xk_wire = vector(pattern.cols() * K, ctx.seed, label | 4);
            let mut xk_row_major = vec![0.0; xk_wire.len()];
            for (j, column) in xk_wire.chunks_exact(pattern.cols()).enumerate() {
                for (c, &v) in column.iter().enumerate() {
                    xk_row_major[c * K + j] = v;
                }
            }
            let column_major = |y: Vec<f64>, rows: usize| -> Vec<f64> {
                (0..K)
                    .flat_map(|j| (0..rows).map(move |r| (r, j)))
                    .map(|(r, j)| y[r * K + j])
                    .collect()
            };
            let y_hash = [0, 1].map(|s| hash(&reference_spmv(&values[s], &x)));
            let yk_hash = [0, 1].map(|s| {
                hash(&column_major(
                    reference_spmm(&values[s], &xk_row_major, K),
                    pattern.rows(),
                ))
            });
            Structure {
                name: format!("s{g}"),
                cold_frame: [cold_frame(&values[0]), cold_frame(&values[1])],
                values,
                x_json: json_list(&x),
                xk_json: json_list(&xk_wire),
                y_hash,
                yk_hash,
                x,
                xk_row_major,
            }
        })
        .collect();
    let server = Some(start_daemon(&model, ctx.threads));
    Setup {
        model,
        source,
        structures,
        server,
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        Client {
            stream,
            reader,
            line: String::new(),
        }
    }

    /// One round trip; the reply line stays in `self.line`. Returns the
    /// client-side latency, or `None` when the connection failed.
    fn request(&mut self, frame: &str) -> Option<Duration> {
        self.line.clear();
        let t0 = Instant::now();
        self.stream.write_all(frame.as_bytes()).ok()?;
        let n = self.reader.read_line(&mut self.line).ok()?;
        let lat = t0.elapsed();
        (n > 0).then_some(lat)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn as_u64(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) if *i >= 0 => *i as u64,
        _ => 0,
    }
}

fn status(v: &Value) -> &str {
    match field(v, "status") {
        Some(Value::Str(s)) => s,
        _ => "missing",
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    ColdNew,
    ColdRepeat,
    WarmSpmv,
    WarmSpmm,
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    structure: usize,
    set: usize,
    latency: f64,
    bytes: usize,
    ok: bool,
    wrong: bool,
    cached: bool,
    what: String,
}

impl Sample {
    /// A request not yet judged: `ok`, `wrong` and `cached` are set
    /// from the reply.
    fn new(
        kind: Kind,
        structure: usize,
        set: usize,
        latency: Option<Duration>,
        frame: &str,
    ) -> Sample {
        Sample {
            kind,
            structure,
            set,
            latency: latency.map_or(0.0, |d| d.as_secs_f64()),
            bytes: frame.len(),
            ok: false,
            wrong: false,
            cached: false,
            what: String::new(),
        }
    }
}

/// One connection's schedule for an epoch: structures `mine`, each
/// tuned new then repeated with its second value set, interleaved so a
/// repeat follows its first appearance by one step.
fn schedule(mine: &[usize]) -> Vec<(usize, usize, Kind)> {
    let mut out = Vec::new();
    for (i, &s) in mine.iter().enumerate() {
        out.push((s, 0, Kind::ColdNew));
        if i > 0 {
            out.push((mine[i - 1], 1, Kind::ColdRepeat));
        }
    }
    if let Some(&last) = mine.last() {
        out.push((last, 1, Kind::ColdRepeat));
    }
    out
}

fn run_connection(
    client: &mut Client,
    structures: &[Structure],
    mine: &[usize],
    tracer: &Tracer,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for (s, set, kind) in schedule(mine) {
        let st = &structures[s];
        let frame = &st.cold_frame[set];
        let root = tracer.op();
        let lat = tracer.span("service.cold_request", root, |_| client.request(frame));
        let mut sample = Sample::new(kind, s, set, lat, frame);
        let handle = match (lat, serde_json::parse(&client.line)) {
            (Some(_), Ok(reply)) if status(&reply) == "ok" => {
                sample.ok = true;
                sample.cached = matches!(field(&reply, "cached"), Some(Value::Bool(true)));
                match field(&reply, "handle") {
                    Some(Value::Str(h)) => Some(h.clone()),
                    _ => None,
                }
            }
            (Some(_), Ok(reply)) => {
                sample.what = format!("{}: tune answered {}", st.name, status(&reply));
                None
            }
            _ => {
                sample.what = format!("{}: tune transport failure", st.name);
                None
            }
        };
        out.push(sample);
        let Some(handle) = handle else { continue };
        let spmv_frame = format!(
            "{{\"op\":\"spmv\",\"handle\":\"{handle}\",\"x\":{}}}\n",
            st.x_json
        );
        let spmm_frame = format!(
            "{{\"op\":\"spmm\",\"handle\":\"{handle}\",\"k\":{K},\"x\":{}}}\n",
            st.xk_json
        );
        for &is_spmm in &WARM_PATTERN {
            let (frame, kind, want) = if is_spmm {
                (&spmm_frame, Kind::WarmSpmm, st.yk_hash[set])
            } else {
                (&spmv_frame, Kind::WarmSpmv, st.y_hash[set])
            };
            let root = tracer.op();
            let lat = tracer.span("service.warm_request", root, |_| client.request(frame));
            let mut sample = Sample::new(kind, s, set, lat, frame);
            match (lat, serde_json::parse(&client.line)) {
                (Some(_), Ok(reply)) if status(&reply) == "ok" => {
                    sample.ok = true;
                    let y: Option<Vec<f64>> = field(&reply, "y")
                        .and_then(Value::as_array)
                        .and_then(|a| a.iter().map(as_f64).collect());
                    if y.as_deref().map(hash) != Some(want) {
                        sample.wrong = true;
                        sample.what = format!(
                            "{}: warm {kind:?} reply differs from the reference",
                            st.name
                        );
                    }
                }
                (Some(_), Ok(reply)) => {
                    sample.what = format!("{}: warm {kind:?} answered {}", st.name, status(&reply));
                }
                _ => sample.what = format!("{}: warm {kind:?} transport failure", st.name),
            }
            out.push(sample);
        }
    }
    out
}

/// Service counters of one epoch, from the `metrics` op.
#[derive(Default)]
struct EpochCounters {
    handle_hits: u64,
    wire_matrix_parses: u64,
    shed: u64,
    deadline_misses: u64,
    queue_high_watermark: u64,
    cache_hits: u64,
    cache_misses: u64,
}

fn read_counters(reply: &Value) -> EpochCounters {
    let service = field(reply, "service");
    let get = |k: &str| as_u64(service.and_then(|s| field(s, k)));
    let mut c = EpochCounters {
        handle_hits: get("handle_hits"),
        wire_matrix_parses: get("wire_matrix_parses"),
        shed: get("requests_shed"),
        deadline_misses: get("deadline_misses"),
        queue_high_watermark: get("queue_high_watermark"),
        ..EpochCounters::default()
    };
    if let Some(shards) = field(reply, "shards").and_then(Value::as_array) {
        for shard in shards {
            let cache = field(shard, "cache");
            c.cache_hits += as_u64(cache.and_then(|v| field(v, "hits")));
            c.cache_misses += as_u64(cache.and_then(|v| field(v, "misses")));
        }
    }
    c
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut state: Option<Setup> = None;
    for _ in 0..ctx.setups {
        if let Some(old) = state.take() {
            stop_daemon(old.server, &mut report);
        }
        let t0 = Instant::now();
        state = Some(setup(ctx));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        model,
        source,
        structures,
        mut server,
    } = state.expect("at least one set-up");
    report.metric("setup_s", median(&setup_s), "s");
    ctx.record_model(&mut report, &source);
    let cfg = serve_config();
    report.fact(
        "serve.config_overrides",
        format!(
            "{{\"tenant_rate\": {}, \"tenant_burst\": {}, \"max_frame_bytes\": {}, \"handle_capacity\": {}, \"workers\": {}, \"connections\": {}}}",
            cfg.tenant_rate, cfg.tenant_burst, cfg.max_frame_bytes, cfg.handle_capacity, cfg.workers, ctx.threads
        ),
    );
    let sizes: Vec<usize> = structures.iter().map(|s| s.cold_frame[0].len()).collect();
    let (lo, hi) = (
        sizes.iter().min().copied().unwrap_or(1),
        sizes.iter().max().copied().unwrap_or(1),
    );
    report.fact("serve.cold_frame_bytes_range", format!("[{lo}, {hi}]"));
    for s in &structures {
        let m = &s.values[0];
        report.fact(
            format!("input.{}", s.name),
            format!(
                "{{\"rows\": {}, \"nnz\": {}, \"cold_frame_bytes\": {}, \"bytes_computed\": {}, \"label\": \"computed\"}}",
                m.rows(),
                m.nnz(),
                s.cold_frame[0].len(),
                m.nnz() * 16 + (m.rows() + 1) * 8 + 8 * (m.rows() + m.cols())
            ),
        );
    }

    let tracer = ctx.tracer;
    let mut samples: Vec<Sample> = Vec::new();
    let mut counters = EpochCounters::default();
    let mut serving_s = 0.0;
    let mut epochs = 0;
    let mut dispatches = 0u64;
    let mut spawns = 0u64;
    let mut replay = Replay::default();
    let mut yard: Vec<Yardstick> = structures.iter().map(|_| Yardstick::new(1)).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while epochs < ctx.min_rounds || Instant::now() < deadline {
        epochs += 1;
        let daemon = server
            .take()
            .unwrap_or_else(|| start_daemon(&model, ctx.threads));
        // The yardsticks run between epochs, with no request in flight.
        for (y, st) in yard.iter_mut().zip(&structures) {
            y.sample(&[&st.values[0]], &st.x);
        }
        let d0 = smat_pool::dispatch_count();
        let sp0 = smat_pool::spawn_count();
        let t0 = Instant::now();
        let (epoch_samples, mut first) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.threads)
                .map(|c| {
                    let structures = &structures;
                    let addr = daemon.addr;
                    scope.spawn(move || {
                        let mine: Vec<usize> = (0..STRUCTS_PER_CONN)
                            .map(|j| c * STRUCTS_PER_CONN + j)
                            .collect();
                        let mut client = Client::connect(addr);
                        let samples = run_connection(&mut client, structures, &mine, tracer);
                        (samples, client)
                    })
                })
                .collect();
            let mut all = Vec::new();
            let mut first = None;
            for h in handles {
                let (s, client) = h.join().expect("client thread");
                all.extend(s);
                first.get_or_insert(client);
            }
            (all, first.expect("at least one connection"))
        });
        serving_s += t0.elapsed().as_secs_f64();
        dispatches += smat_pool::dispatch_count() - d0;
        spawns += smat_pool::spawn_count() - sp0;
        let metrics = first
            .request("{\"op\":\"metrics\"}\n")
            .and_then(|_| serde_json::parse(&first.line).ok());
        match metrics {
            Some(reply) => {
                let c = read_counters(&reply);
                counters.handle_hits += c.handle_hits;
                counters.wire_matrix_parses += c.wire_matrix_parses;
                counters.shed += c.shed;
                counters.deadline_misses += c.deadline_misses;
                counters.queue_high_watermark =
                    counters.queue_high_watermark.max(c.queue_high_watermark);
                counters.cache_hits += c.cache_hits;
                counters.cache_misses += c.cache_misses;
            }
            None => report.attempt(false, || "metrics op failed".to_string()),
        }
        let bye = first.request("{\"op\":\"shutdown\"}\n");
        report.attempt(bye.is_some(), || "shutdown op failed".to_string());
        drop(first);
        let summary = daemon.join.join().expect("daemon thread");
        report.attempt(summary.is_ok(), || "daemon run loop failed".to_string());
        if tracer.enabled() {
            replay.epoch(&model, ctx.threads, &structures, &epoch_samples, tracer);
        }
        samples.extend(epoch_samples);
    }
    report.fact("serve.epochs", epochs.to_string());

    for s in &samples {
        if s.wrong {
            report.wrong_output(s.what.clone());
        } else {
            report.attempt(s.ok, || s.what.clone());
        }
    }
    let lat = |f: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ok && f(s.kind))
            .map(|s| s.latency * 1e3)
            .collect()
    };
    let cold = lat(&|k| matches!(k, Kind::ColdNew | Kind::ColdRepeat));
    let warm = lat(&|k| matches!(k, Kind::WarmSpmv | Kind::WarmSpmm));
    let warm_spmv = lat(&|k| k == Kind::WarmSpmv);
    // The gated metrics sum per-structure medians, as the suite sums
    // per-matrix medians: structures differ 5x in size, and the median
    // of the pooled latencies would sit between two size clusters.
    let per_structure = |kind: Kind| -> f64 {
        (0..structures.len())
            .map(|st| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.ok && s.kind == kind && s.structure == st)
                    .map(|s| s.latency * 1e3)
                    .collect();
                median(&v)
            })
            .sum()
    };
    let ok = samples.iter().filter(|s| s.ok).count();
    report.metric("serve_rps", ok as f64 / serving_s, "req/s");
    report.metric("cold_p50_ms", median(&cold), "ms");
    report.metric("warm_p50_ms", median(&warm), "ms");
    for (name, v) in [("cold_tail_ms", &cold), ("warm_tail_ms", &warm)] {
        if let Some((p, value)) = tail(v) {
            report.metric(name, value, "ms");
            report.fact(
                format!("serve.{name}"),
                format!("{{\"percentile\": {p}, \"samples\": {}}}", v.len()),
            );
        } else {
            report.metric(name, v.iter().copied().fold(0.0, f64::max), "ms");
            report.fact(
                format!("serve.{name}"),
                format!("{{\"percentile\": 100, \"samples\": {}}}", v.len()),
            );
        }
    }
    report.metric("tune_ms", per_structure(Kind::ColdNew), "ms");
    report.metric("cached_tune_ms", per_structure(Kind::ColdRepeat), "ms");
    report.metric(
        "apply_ms",
        per_structure(Kind::WarmSpmv) + per_structure(Kind::WarmSpmm),
        "ms",
    );
    // Gated: geomean over structures (and over spmv and spmm for the
    // warm calls) of the fastest round trip / the fastest yardstick
    // pass (see calib.rs).
    let in_refs = |kinds: &[Kind]| -> f64 {
        let mut ratios = Vec::new();
        for (st, y) in yard.iter().enumerate() {
            for &kind in kinds {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.ok && s.kind == kind && s.structure == st)
                    .map(|s| s.latency)
                    .collect();
                ratios.push(calib::in_refs(&v, y, Summary::Fastest));
            }
        }
        geomean(&ratios)
    };
    report.metric("tune_refspmv", in_refs(&[Kind::ColdNew]), "refspmv");
    report.metric("cached_tune_refspmv", in_refs(&[Kind::ColdRepeat]), "refspmv");
    report.metric("apply_refspmv", in_refs(&[Kind::WarmSpmv, Kind::WarmSpmm]), "refspmv");
    let repeats_cached = samples
        .iter()
        .filter(|s| s.kind == Kind::ColdRepeat && s.cached)
        .count();
    let repeats = samples
        .iter()
        .filter(|s| s.kind == Kind::ColdRepeat)
        .count();
    report.fact(
        "serve.repeat_tunes_cached",
        format!("[{repeats_cached}, {repeats}]"),
    );

    // Wire overhead in multiples of the in-process kernel: the warm
    // spmv round trip over the tuned Smat::spmv of the same matrices.
    let kernel_ms = in_process_spmv_ms(&model, ctx.threads, &structures);
    report.ratio(
        "wire_overhead",
        median(&warm_spmv) / kernel_ms,
        "median warm handle spmv round trip / median in-process Smat::spmv of the same matrices",
    );

    // Picks (and, traced, the stage replay) on a fresh engine: the
    // daemon's own picks stay inside it.
    let engine = Smat::with_config(model.clone(), model::engine_config(ctx.threads))
        .expect("the pinned model is double precision");
    let items: Vec<Tuned<'_>> = structures
        .iter()
        .map(|s| {
            let tuned = engine.prepare(&s.values[0]);
            report.picks.push(pick_json(&engine, &s.name, &tuned));
            Tuned {
                name: s.name.clone(),
                csr: &s.values[0],
                format: tuned.format(),
            }
        })
        .collect();
    if tracer.enabled() {
        report.metric(
            "service.handle_hit_ratio",
            counters.handle_hits as f64 / warm.len().max(1) as f64,
            "ratio",
        );
        report.metric(
            "service.wire_matrix_parses",
            counters.wire_matrix_parses as f64,
            "count",
        );
        report.metric("service.shed", counters.shed as f64, "count");
        report.metric(
            "service.deadline_misses",
            counters.deadline_misses as f64,
            "count",
        );
        report.metric(
            "service.queue_high_watermark",
            counters.queue_high_watermark as f64,
            "count",
        );
        report.metric(
            "core.cache_hit_ratio",
            counters.cache_hits as f64
                / (counters.cache_hits + counters.cache_misses).max(1) as f64,
            "ratio",
        );
        let bytes = |f: &dyn Fn(Kind) -> bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| f(s.kind))
                .map(|s| s.bytes as f64)
                .collect()
        };
        report.metric(
            "service.frame_bytes.cold",
            median(&bytes(&|k| matches!(k, Kind::ColdNew | Kind::ColdRepeat))),
            "bytes",
        );
        report.metric(
            "service.frame_bytes.warm",
            median(&bytes(&|k| matches!(k, Kind::WarmSpmv | Kind::WarmSpmm))),
            "bytes",
        );
        report.metric(
            "pool.dispatches_per_call",
            dispatches as f64 / samples.len().max(1) as f64,
            "count",
        );
        report.metric("pool.spawns", spawns as f64, "count");
        replay.report(&mut report);
        let stages_ms = replay_stages(&engine, tracer, &items, 5, &mut report);
        report.metric(
            "core.prepare_self_ms",
            replay.prepare_new_ms(structures.len()) - stages_ms,
            "ms",
        );
        pick_efficiency(
            &engine,
            tracer,
            &items,
            Duration::from_millis(1),
            &mut report,
        );
    }

    report.fact_str(
        "serve.loop",
        "closed loop, one outstanding request per connection",
    );
    report.fact("serve.replies_checked", samples.len().to_string());
    report
}

fn stop_daemon(daemon: Option<Daemon>, report: &mut Report) {
    if let Some(d) = daemon {
        let mut c = Client::connect(d.addr);
        let bye = c.request("{\"op\":\"shutdown\"}\n");
        report.attempt(bye.is_some(), || "shutdown op failed".to_string());
        drop(c);
        let summary = d.join.join().expect("daemon thread");
        report.attempt(summary.is_ok(), || "daemon run loop failed".to_string());
    }
}

/// Median in-process `Smat::spmv` time (ms) over the structures.
fn in_process_spmv_ms(model: &TrainedModel, threads: usize, structures: &[Structure]) -> f64 {
    let engine = Smat::with_config(model.clone(), model::engine_config(threads))
        .expect("the pinned model is double precision");
    let mut times = Vec::new();
    for s in structures {
        let tuned = engine.prepare(&s.values[0]);
        let mut y = vec![0.0; s.values[0].rows()];
        for _ in 0..20 {
            let t0 = Instant::now();
            let _ = engine.spmv(&tuned, &s.x, &mut y);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    median(&times)
}

/// The traced attribution of client latency: after each epoch, the
/// same requests are replayed in process, stage by stage — parse the
/// frame, run the engine work, encode the reply — on a fresh engine
/// that sees the same new/repeat sequence as the daemon did.
#[derive(Default)]
struct Replay {
    parse_cold: Vec<f64>,
    parse_warm: Vec<f64>,
    encode_warm: Vec<f64>,
    unattributed_cold: Vec<f64>,
    unattributed_warm: Vec<f64>,
    /// `(structure, seconds)` of each replayed prepare of a new
    /// structure.
    prepare_new: Vec<(usize, f64)>,
    decisions: Decisions,
}

impl Replay {
    fn epoch(
        &mut self,
        model: &TrainedModel,
        threads: usize,
        structures: &[Structure],
        samples: &[Sample],
        tracer: &Tracer,
    ) {
        let engine = Smat::with_config(model.clone(), model::engine_config(threads))
            .expect("the pinned model is double precision");
        let mut current: Vec<Option<smat::TunedSpmv<f64>>> =
            structures.iter().map(|_| None).collect();
        let mut y = Vec::new();
        let mut yk = Vec::new();
        for s in samples.iter().filter(|s| s.ok) {
            let st = &structures[s.structure];
            let root = tracer.op();
            let secs = |d: Duration| d.as_secs_f64();
            match s.kind {
                Kind::ColdNew | Kind::ColdRepeat => {
                    let frame = &st.cold_frame[s.set];
                    let t0 = Instant::now();
                    let parsed = tracer.span("service.parse_request", root, |_| {
                        parse_request(frame.trim_end())
                    });
                    let parse = secs(t0.elapsed());
                    drop(parsed);
                    let t0 = Instant::now();
                    let tuned =
                        tracer.span("core.prepare", root, |_| engine.prepare(&st.values[s.set]));
                    let prepare = secs(t0.elapsed());
                    self.decisions.count(tuned.decision());
                    if s.kind == Kind::ColdNew {
                        self.prepare_new.push((s.structure, prepare));
                    }
                    self.parse_cold.push(parse * 1e3);
                    self.unattributed_cold
                        .push((s.latency - parse - prepare) * 1e3);
                    current[s.structure] = Some(tuned);
                }
                Kind::WarmSpmv | Kind::WarmSpmm => {
                    let Some(tuned) = current[s.structure].as_ref() else {
                        continue;
                    };
                    let spmm = s.kind == Kind::WarmSpmm;
                    let handle = WireHandle {
                        fingerprint: tuned.fingerprint(),
                        generation: 1,
                    }
                    .encode();
                    let frame = if spmm {
                        format!(
                            "{{\"op\":\"spmm\",\"handle\":\"{handle}\",\"k\":{K},\"x\":{}}}",
                            st.xk_json
                        )
                    } else {
                        format!(
                            "{{\"op\":\"spmv\",\"handle\":\"{handle}\",\"x\":{}}}",
                            st.x_json
                        )
                    };
                    let t0 = Instant::now();
                    let parsed =
                        tracer.span("service.parse_request", root, |_| parse_request(&frame));
                    let parse = secs(t0.elapsed());
                    drop(parsed);
                    let rows = st.values[s.set].rows();
                    let t0 = Instant::now();
                    let out = if spmm {
                        yk.resize(rows * K, 0.0);
                        let _ = tracer.span("core.spmm", root, |_| {
                            engine.spmm(tuned, &st.xk_row_major, &mut yk, K)
                        });
                        yk.clone()
                    } else {
                        y.resize(rows, 0.0);
                        let _ =
                            tracer.span("core.spmv", root, |_| engine.spmv(tuned, &st.x, &mut y));
                        y.clone()
                    };
                    let kernel = secs(t0.elapsed());
                    let response = Response::with(
                        Status::Ok,
                        vec![
                            (
                                "op",
                                Value::Str(if spmm { "spmm" } else { "spmv" }.to_string()),
                            ),
                            ("handle", Value::Str(handle)),
                            ("format", Value::Str(tuned.format().to_string())),
                            ("warm", Value::Bool(true)),
                            (
                                "y",
                                Value::Array(out.into_iter().map(Value::Float).collect()),
                            ),
                        ],
                    );
                    let t0 = Instant::now();
                    let line = tracer.span("service.to_line", root, |_| response.to_line());
                    let encode = secs(t0.elapsed());
                    drop(line);
                    self.parse_warm.push(parse * 1e3);
                    self.encode_warm.push(encode * 1e3);
                    self.unattributed_warm
                        .push((s.latency - parse - kernel - encode) * 1e3);
                }
            }
        }
    }

    /// Σ over structures of the median replayed prepare of the
    /// structure when new, in ms.
    fn prepare_new_ms(&self, structures: usize) -> f64 {
        (0..structures)
            .map(|st| {
                let v: Vec<f64> = self
                    .prepare_new
                    .iter()
                    .filter(|(s, _)| *s == st)
                    .map(|(_, t)| *t)
                    .collect();
                median(&v)
            })
            .sum::<f64>()
            * 1e3
    }

    fn report(&self, report: &mut Report) {
        report.metric("service.parse_ms.cold", median(&self.parse_cold), "ms");
        report.metric("service.parse_ms.warm", median(&self.parse_warm), "ms");
        report.metric("service.encode_ms.warm", median(&self.encode_warm), "ms");
        report.metric(
            "service.unattributed_ms.cold",
            median(&self.unattributed_cold),
            "ms",
        );
        report.metric(
            "service.unattributed_ms.warm",
            median(&self.unattributed_warm),
            "ms",
        );
        self.decisions.report(report);
    }
}
