//! The serving loop: listener, connection threads, admission ladder,
//! fingerprint-sharded engines, worker pool, and graceful drain.
//!
//! ## Thread shape
//!
//! One accept loop (the thread that called [`Server::run`]), one
//! thread per live connection, and a fixed pool of
//! [`ServeConfig::workers`] tuning workers behind a bounded queue.
//! Connection threads do everything cheap — framing, parsing,
//! admission, shedding, the degraded reference product, and the warm
//! handle path — and only tuning work crosses the queue. Replies
//! travel back over a per-job mpsc channel bounded by the request
//! deadline, so a connection thread can never wedge on a lost worker.
//!
//! ## Shards and the warm path
//!
//! The engine is split into [`ServeConfig::shards`] independent
//! shards, each with its own decision cache, health/quarantine state,
//! and [`HandleRegistry`] of prepared matrices, selected by structural
//! fingerprint (`digest[0] % shards`). Concurrent tuning for distinct
//! matrices therefore never serializes on one cache lock, and a
//! quarantine on one shard leaves the others fast.
//!
//! A successful tune/spmv/spmm response carries a `handle` — the
//! fingerprint plus this server's generation tag. A follow-up
//! `{"op":"spmv","handle":...,"x":[...]}` is served *inline on the
//! connection thread*: no triplet parse, no conversion, no prepare,
//! no queue hop — just a registry lookup and the frozen kernel replay
//! into per-connection preallocated buffers. Unknown, evicted, or
//! other-generation handles answer `handle_miss` with the fingerprint
//! echoed, so clients fall back to the triplet path deterministically.
//!
//! ## Degradation ladder (per request)
//!
//! 1. tenant token bucket empty → shed with retry-after;
//! 2. deadline already expired → deadline miss;
//! 3. draining → shed;
//! 4. engine unhealthy (pool demoted, quarantine active) or backlog at
//!    the watermark → serve the reference serial CSR product *now*,
//!    counted degraded — a correct answer immediately instead of a
//!    queued answer late;
//! 5. queue full → shed with retry-after;
//! 6. otherwise queue for tuning; the worker clamps every measurement
//!    to the request deadline via `prepare_with_deadline`.
//!
//! ## Shutdown
//!
//! `{"op":"shutdown"}` (the SIGTERM analog in this vendored-std
//! environment) flips the drain flag: the accept loop closes the
//! listener, connection threads finish their in-flight frames and
//! responses, the queue is closed and drained by the workers, and the
//! tuning-cache snapshot is persisted if configured. [`Server::run`]
//! then returns a [`DrainSummary`] and the process can exit 0.

use crate::admission::{BoundedQueue, TokenBuckets};
use crate::config::ServeConfig;
use crate::metrics::ServiceMetrics;
use crate::proto::{
    obj, parse_request, MatrixSource, Request, Response, Status, WireHandle, WorkOp, WorkRequest,
};
use serde::{Serialize, Value};
use smat::{CacheSnapshot, HandleRegistry, HealthReport, Smat, TunedSpmv};
use smat_kernels::panic_message;
use smat_matrix::{Csr, StructuralFingerprint};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Accept-loop poll granularity while the listener is non-blocking.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Slack added to the reply wait beyond the request deadline, so a
/// worker's own deadline-miss answer wins over the connection thread's
/// local timeout when both fire together.
const REPLY_GRACE: Duration = Duration::from_millis(250);

/// Distinguishes handles minted by different server incarnations (the
/// low bits) in different processes (the pid in the high bits), so a
/// handle can never silently resolve against a registry that did not
/// mint it.
static GENERATION_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    ((std::process::id() as u64) << 20)
        | (GENERATION_SEQ.fetch_add(1, Ordering::Relaxed) & 0xf_ffff)
}

/// One admitted tuning job crossing the queue. The source is always
/// inline: handle requests are served on the connection thread and
/// never queue.
struct Job {
    work: WorkRequest,
    shard: usize,
    deadline: Instant,
    reply: mpsc::Sender<Response>,
}

/// One engine shard: its own decision cache and health state (inside
/// the [`Smat`]) plus its slice of the prepared-matrix registry.
struct Shard {
    engine: Arc<Smat<f64>>,
    handles: HandleRegistry<f64>,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    shards: Vec<Shard>,
    generation: u64,
    config: ServeConfig,
    metrics: ServiceMetrics,
    queue: BoundedQueue<Job>,
    buckets: TokenBuckets,
}

impl Shared {
    fn draining(&self) -> bool {
        self.metrics.draining.load(Ordering::Relaxed)
    }

    fn begin_drain(&self) {
        self.metrics.draining.store(true, Ordering::Relaxed);
        // Wake any worker parked on an empty queue so it can observe
        // the eventual close promptly.
        // (close() itself happens in run() after connections drain.)
    }

    /// The shard a fingerprint routes to. Pure function of the digest,
    /// so clients, the cache splitter, and the workers always agree.
    fn shard_for(&self, fp: &StructuralFingerprint) -> usize {
        fp.digest[0] as usize % self.shards.len()
    }
}

/// Per-connection reusable buffers for the warm path: sized on first
/// use, reused for every subsequent handle call on this connection, so
/// a warm `spmv` allocates nothing but its reply frame.
#[derive(Default)]
struct Scratch {
    x: Vec<f64>,
    y: Vec<f64>,
}

/// What was bound: TCP socket or Unix-domain socket.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// Final counters reported by [`Server::run`] after a graceful drain.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// tune/spmv requests admitted over the server's lifetime.
    pub requests_total: u64,
    /// Answered with a tuned result.
    pub requests_ok: u64,
    /// Answered through the reference (degraded) path.
    pub requests_degraded: u64,
    /// Shed with a retry hint.
    pub requests_shed: u64,
    /// Answered with a deadline miss.
    pub deadline_misses: u64,
    /// Answered `handle_miss` (unknown, evicted, or stale handle).
    pub requests_handle_miss: u64,
    /// Answered with an error.
    pub requests_error: u64,
    /// Entries persisted to the cache snapshot, when configured and
    /// the write succeeded.
    pub cache_snapshot_entries: Option<usize>,
}

/// Control handle onto a running (or about to run) server.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Flips the drain flag, as the shutdown op does from the wire.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The metrics JSON served by the `metrics` op.
    pub fn metrics_snapshot(&self) -> Value {
        metrics_value(&self.shared)
    }
}

/// A bound, not-yet-running tuning service.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Server {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral
    /// port, then read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_tcp(addr: &str, engine: Arc<Smat<f64>>, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Self::with_listener(Listener::Tcp(listener), engine, config)
    }

    /// Binds a Unix-domain socket at `path`, replacing a stale socket
    /// file left by a previous run.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        engine: Arc<Smat<f64>>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        Self::with_listener(Listener::Unix(listener, path), engine, config)
    }

    /// Wraps the caller's engine as shard 0 and clones sibling shards
    /// off its model and installation, so every shard runs the same
    /// kernel choices but owns its own cache and health state.
    fn with_listener(
        listener: Listener,
        engine: Arc<Smat<f64>>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let config = config.normalized();
        let mut shards = Vec::with_capacity(config.shards);
        let registry = || HandleRegistry::new(config.handle_capacity, config.handle_budget_bytes);
        shards.push(Shard {
            engine,
            handles: registry(),
        });
        for _ in 1..config.shards {
            let model = shards[0].engine.model().clone();
            // Don't touch the installation file again: shard 0 already
            // loaded (or generated) it; siblings adopt the result.
            let mut sib_config = shards[0].engine.config().clone();
            sib_config.install_path = None;
            let sibling = match shards[0].engine.installation().cloned() {
                Some(inst) => Smat::with_installation(model, sib_config, inst),
                None => Smat::with_config(model, sib_config),
            }
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("building engine shard: {e}"),
                )
            })?;
            shards.push(Shard {
                engine: Arc::new(sibling),
                handles: registry(),
            });
        }
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            buckets: TokenBuckets::new(config.tenant_rate, config.tenant_burst),
            metrics: ServiceMetrics::default(),
            shards,
            generation: next_generation(),
            config,
        });
        Ok(Server { shared, listener })
    }

    /// The bound TCP address, if TCP-bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the serving loop until a shutdown request (or
    /// [`ServerHandle::begin_drain`]) flips the drain flag, then
    /// drains and returns the final counters.
    ///
    /// # Errors
    ///
    /// Only setup failures (making the listener non-blocking) error;
    /// per-connection and per-request failures are contained and
    /// counted.
    pub fn run(self) -> io::Result<DrainSummary> {
        let Server { shared, listener } = self;
        // Preload the cache snapshot, best-effort: a missing or stale
        // snapshot must never stop the service from starting. The one
        // on-disk snapshot is split across shards by the same
        // fingerprint route the request path uses.
        if let Some(path) = &shared.config.cache_snapshot {
            if path.exists() {
                if let Ok(snap) = shared.shards[0].engine.load_cache_snapshot(path) {
                    let parts = snap.split_by(shared.shards.len(), |fp| fp.digest[0] as usize);
                    for (shard, part) in shared.shards.iter().zip(parts) {
                        shard.engine.absorb_cache(part);
                    }
                }
            }
        }

        let workers: Vec<_> = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("smat-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();

        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shared.draining() {
            conns.retain(|h| !h.is_finished());
            // The read timeout goes on the accepted socket, so each
            // connection thread owns a plain `Read + Write` stream.
            let timeout = Some(shared.config.read_timeout);
            let accepted = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_read_timeout(timeout);
                    spawn_connection(&shared, s)
                }),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| {
                    let _ = s.set_read_timeout(timeout);
                    spawn_connection(&shared, s)
                }),
            };
            match accepted {
                Ok(handle) => conns.extend(handle),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock) => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    ServiceMetrics::inc(&shared.metrics.accept_faults);
                    thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Refuse new connections, then let the in-flight ones finish:
        // connection threads observe the drain flag within one read
        // timeout and complete their pending frame/response first.
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        drop(listener);
        for handle in conns {
            let _ = handle.join();
        }
        // No producers remain; close the queue so workers drain the
        // backlog and exit.
        shared.queue.close();
        for handle in workers {
            let _ = handle.join();
        }

        // One merged snapshot on disk regardless of shard count: the
        // shard layout is a runtime choice, not a persistence format.
        let cache_snapshot_entries = shared.config.cache_snapshot.as_ref().and_then(|path| {
            let merged = CacheSnapshot::merge(
                shared
                    .shards
                    .iter()
                    .map(|s| s.engine.export_cache())
                    .collect(),
            );
            shared.shards[0]
                .engine
                .save_cache_snapshot(path, &merged)
                .ok()
        });
        let m = &shared.metrics;
        Ok(DrainSummary {
            requests_total: ServiceMetrics::get(&m.requests_total),
            requests_ok: ServiceMetrics::get(&m.requests_ok),
            requests_degraded: ServiceMetrics::get(&m.requests_degraded),
            requests_shed: ServiceMetrics::get(&m.requests_shed),
            deadline_misses: ServiceMetrics::get(&m.deadline_misses),
            requests_handle_miss: ServiceMetrics::get(&m.requests_handle_miss),
            requests_error: ServiceMetrics::get(&m.requests_error),
            cache_snapshot_entries,
        })
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

/// Splits a connection's byte stream into newline-terminated frames.
/// Each scan resumes where the previous one stopped, so every byte is
/// examined for the terminator once and a frame dribbled in over many
/// small reads costs time linear in its length.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched: none is a newline.
    scanned: usize,
    /// Bytes examined for a terminator so far (the linear-scan audit).
    #[cfg(test)]
    examined: usize,
}

impl Frames {
    /// The next complete frame, without its newline.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        let found = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        #[cfg(test)]
        {
            self.examined += found.map_or(self.buf.len() - self.scanned, |p| p + 1);
        }
        let Some(pos) = found else {
            self.scanned = self.buf.len();
            return None;
        };
        let mut frame: Vec<u8> = self.buf.drain(..=self.scanned + pos).collect();
        frame.pop();
        self.scanned = 0;
        Some(frame)
    }
}

/// Runs one accepted connection on its own thread. `None` when the
/// `service.accept` failpoint drops it as if the handshake failed.
fn spawn_connection<S: Read + Write + Send + 'static>(
    shared: &Arc<Shared>,
    conn: S,
) -> Option<thread::JoinHandle<()>> {
    if smat_failpoints::check("service.accept").is_some() {
        ServiceMetrics::inc(&shared.metrics.accept_faults);
        return None;
    }
    ServiceMetrics::inc(&shared.metrics.accepted_connections);
    shared
        .metrics
        .open_connections
        .fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name("smat-serve-conn".to_string())
        .spawn(move || {
            handle_connection(&shared, conn);
            shared
                .metrics
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        })
        .expect("spawning a connection thread");
    Some(handle)
}

fn handle_connection(shared: &Arc<Shared>, mut conn: impl Read + Write) {
    let mut frames = Frames::default();
    let mut chunk = [0u8; 4096];
    let mut frame_started: Option<Instant> = None;
    let mut scratch = Scratch::default();
    'conn: loop {
        if shared.draining() && frames.buf.is_empty() {
            // Idle connection during drain: close; the client
            // reconnects elsewhere. Mid-frame connections fall through
            // and get to finish (bounded by the frame timeout).
            break;
        }
        // Failpoint `service.frame`: the read faults as if the
        // transport died mid-frame.
        if smat_failpoints::check("service.frame").is_some() {
            ServiceMetrics::inc(&shared.metrics.torn_frames);
            break;
        }
        match conn.read(&mut chunk) {
            Ok(0) => {
                if !frames.buf.is_empty() {
                    ServiceMetrics::inc(&shared.metrics.torn_frames);
                }
                break;
            }
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                frames.buf.extend_from_slice(&chunk[..n]);
                while let Some(frame) = frames.next_frame() {
                    frame_started = if frames.buf.is_empty() {
                        None
                    } else {
                        Some(Instant::now())
                    };
                    if !process_frame(shared, &mut conn, &mut scratch, &frame) {
                        break 'conn;
                    }
                }
                if frames.buf.len() > shared.config.max_frame_bytes {
                    ServiceMetrics::inc(&shared.metrics.oversized_frames);
                    let resp = Response::error(format!(
                        "frame exceeds {} bytes; closing connection",
                        shared.config.max_frame_bytes
                    ));
                    write_response(shared, &mut conn, &resp, false);
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if let Some(t0) = frame_started {
                    if t0.elapsed() > shared.config.frame_timeout {
                        // Slow-loris: a frame has been dribbling for
                        // longer than any honest client needs.
                        ServiceMetrics::inc(&shared.metrics.slow_loris_closes);
                        break;
                    }
                }
            }
            Err(_) => {
                if !frames.buf.is_empty() {
                    ServiceMetrics::inc(&shared.metrics.torn_frames);
                }
                break;
            }
        }
    }
}

/// Handles one complete frame. Returns `false` when the connection
/// should close (shutdown acknowledged, or the response write failed).
fn process_frame(
    shared: &Arc<Shared>,
    conn: &mut impl Write,
    scratch: &mut Scratch,
    frame: &[u8],
) -> bool {
    let parsed = match std::str::from_utf8(frame) {
        Ok(text) if text.trim().is_empty() => return true,
        Ok(text) => parse_request(text),
        Err(_) => Err("frame is not valid UTF-8".to_string()),
    };
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            ServiceMetrics::inc(&shared.metrics.frames_invalid);
            return write_response(shared, conn, &Response::error(msg), false);
        }
    };
    ServiceMetrics::inc(&shared.metrics.frames_valid);
    match request {
        Request::Ping => {
            let resp = Response::with(Status::Ok, vec![("op", Value::Str("ping".to_string()))]);
            write_response(shared, conn, &resp, false)
        }
        Request::Metrics => {
            let resp = Response {
                status: Status::Ok,
                body: metrics_value(shared),
            };
            write_response(shared, conn, &resp, false)
        }
        Request::Shutdown => {
            shared.begin_drain();
            let resp = Response::with(
                Status::Ok,
                vec![
                    ("op", Value::Str("shutdown".to_string())),
                    ("draining", Value::Bool(true)),
                ],
            );
            write_response(shared, conn, &resp, false);
            false
        }
        Request::Work(work) => {
            if matches!(work.source, MatrixSource::Inline(_)) {
                // The audit counter for the triplet path: warm handle
                // frames never pass through here, which is exactly
                // what the zero-matrix-work assertion pins.
                ServiceMetrics::inc(&shared.metrics.wire_matrix_parses);
            }
            let resp = handle_work(shared, *work, scratch);
            write_response(shared, conn, &resp, true)
        }
    }
}

/// The admission ladder for one tune/spmv request. Always returns a
/// response; the connection thread writes and counts it.
fn handle_work(shared: &Arc<Shared>, work: WorkRequest, scratch: &mut Scratch) -> Response {
    ServiceMetrics::inc(&shared.metrics.requests_total);
    if let Err(retry) = shared.buckets.try_take(&work.tenant) {
        ServiceMetrics::inc(&shared.metrics.shed_tenant);
        return Response::shed(retry, "tenant budget exhausted");
    }
    let budget = work
        .deadline
        .unwrap_or(shared.config.default_deadline)
        .min(shared.config.max_deadline);
    let deadline = Instant::now() + budget;
    if budget.is_zero() {
        return Response::deadline_miss("admission");
    }
    if shared.draining() {
        ServiceMetrics::inc(&shared.metrics.shed_draining);
        return Response::shed(shared.config.shed_retry_after, "server is draining");
    }
    // Warm path: a handle request never queues, never parses, never
    // prepares. The registry lookup and the frozen kernel replay both
    // happen right here on the connection thread.
    let matrix = match work.source {
        MatrixSource::Handle(handle) => {
            if handle.generation != shared.generation {
                return Response::handle_miss(
                    &handle,
                    "stale generation: handle was minted by another server instance",
                );
            }
            let shard = &shared.shards[shared.shard_for(&handle.fingerprint)];
            return match shard.handles.lookup(&handle.fingerprint) {
                Some(tuned) => warm_call(shard, &tuned, &handle, &work, scratch),
                None => Response::handle_miss(&handle, "unknown or evicted handle"),
            };
        }
        MatrixSource::Inline(ref m) => m,
    };
    let shard_idx = shared.shard_for(&matrix.fingerprint());
    let engine = &shared.shards[shard_idx].engine;
    // Degradation ladder: an unhealthy engine or a deep backlog means
    // a correct answer *now* beats a tuned answer late.
    let depth = shared.queue.len();
    if engine.pool_demoted()
        || engine.quarantine_active()
        || depth >= shared.config.degrade_watermark
    {
        let reason = if depth >= shared.config.degrade_watermark {
            format!(
                "backlog {depth} at the degrade watermark {}",
                shared.config.degrade_watermark
            )
        } else {
            "engine health: pool demoted or kernels quarantined".to_string()
        };
        return degraded_now(&work, matrix, &reason, scratch);
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        work,
        shard: shard_idx,
        deadline,
        reply: tx,
    };
    match shared.queue.push(job) {
        Ok(depth) => shared.metrics.observe_queue_depth(depth as u64),
        Err(_rejected) => {
            ServiceMetrics::inc(&shared.metrics.shed_queue_full);
            return Response::shed(shared.config.shed_retry_after, "admission queue full");
        }
    }
    let wait = deadline.saturating_duration_since(Instant::now()) + REPLY_GRACE;
    match rx.recv_timeout(wait) {
        Ok(resp) => resp,
        Err(_) => Response::deadline_miss("in_flight"),
    }
}

/// Replays a registered prepared matrix for a warm handle request —
/// zero matrix work, zero allocation beyond the reply frame (the
/// scratch buffers grow once per connection and are reused).
fn warm_call(
    shard: &Shard,
    tuned: &TunedSpmv<f64>,
    handle: &WireHandle,
    work: &WorkRequest,
    scratch: &mut Scratch,
) -> Response {
    let fp = tuned.fingerprint();
    let kernel = shard.engine.library().info(tuned.kernel()).name;
    let fields = vec![
        ("op", Value::Str(work.op.name().to_string())),
        ("handle", Value::Str(handle.encode())),
        ("format", Value::Str(tuned.format().to_string())),
        ("kernel", Value::Str(kernel.to_string())),
        ("warm", Value::Bool(true)),
    ];
    // Tune never reaches here (parse rejects tune-by-handle), and
    // `reply` answers it with the metadata alone.
    let product =
        |x: &[f64], y: &mut [f64], k| tuned_product(&shard.engine, tuned, work.op, x, y, k);
    let dims = (fp.rows, fp.cols);
    reply(work, dims, scratch, Status::Ok, fields, product)
}

/// Serves the reference serial CSR product immediately (ladder rung 4).
/// Only inline requests reach this rung — a handle request either hits
/// the registry or answers `handle_miss`; there is no matrix to degrade
/// onto.
fn degraded_now(
    work: &WorkRequest,
    matrix: &Csr<f64>,
    reason: &str,
    scratch: &mut Scratch,
) -> Response {
    let fields = vec![
        ("op", Value::Str(work.op.name().to_string())),
        ("format", Value::Str("csr".to_string())),
        ("kernel", Value::Str("csr_basic_serial".to_string())),
        ("reason", Value::Str(reason.to_string())),
    ];
    // The degraded rung never touches the tuned tiers: the serial
    // reference SpMM, whose `k = 1` case is the reference SpMV and whose
    // columns are bitwise the reference SpMV of each right-hand side.
    let product = |x: &[f64], y: &mut [f64], k| {
        smat_kernels::spmm::csr_basic(matrix, x, y, k);
        Ok(None)
    };
    let dims = (matrix.rows(), matrix.cols());
    reply(work, dims, scratch, Status::Degraded, fields, product)
}

/// The engine's tuned product for [`reply`]: SpMV, or SpMM for
/// an `spmm` request, echoing the SpMM kernel the handle carries.
fn tuned_product(
    engine: &Smat<f64>,
    tuned: &TunedSpmv<f64>,
    op: WorkOp,
    x: &[f64],
    y: &mut [f64],
    k: usize,
) -> Result<Option<&'static str>, String> {
    let ran = if op == WorkOp::Spmm {
        engine.spmm(tuned, x, y, k)
    } else {
        engine.spmv(tuned, x, y)
    };
    ran.map_err(|e| format!("[{}] {e}", e.taxonomy()))?;
    Ok(tuned.spmm_kernel().map(|id| engine.library().info(id).name))
}

/// Runs the product a work request asks for and answers it with
/// `status`, `fields` and the product: the one wire codec shared by the
/// warm, cold and degraded paths. `x` is decoded into `scratch` — all ones when absent, and an
/// spmm column-major block interleaved into the row-major layout the
/// engine wants. `product(x, y, k)` fills `y` and returns the SpMM
/// kernel to echo. `y` is encoded back column-major, after
/// `spmm_kernel` and `k` for spmm. A tune request runs no product; a
/// failed product answers with its error instead.
fn reply(
    work: &WorkRequest,
    (rows, cols): (usize, usize),
    scratch: &mut Scratch,
    status: Status,
    mut fields: Vec<(&'static str, Value)>,
    product: impl FnOnce(&[f64], &mut [f64], usize) -> Result<Option<&'static str>, String>,
) -> Response {
    let k = match work.op {
        WorkOp::Tune => return Response::with(status, fields),
        WorkOp::Spmv => 1,
        WorkOp::Spmm => work.k,
    };
    let x = match &work.x {
        // One column reads the same in either layout.
        Some(wire) if k == 1 => wire.as_slice(),
        wire => {
            scratch.x.clear();
            scratch.x.resize(cols * k, 1.0);
            if let Some(wire) = wire {
                for (j, column) in wire.chunks_exact(cols).enumerate() {
                    for (c, &v) in column.iter().enumerate() {
                        scratch.x[c * k + j] = v;
                    }
                }
            }
            scratch.x.as_slice()
        }
    };
    scratch.y.clear();
    scratch.y.resize(rows * k, 0.0);
    let spmm_kernel = match product(x, &mut scratch.y, k) {
        Ok(name) => name,
        Err(msg) => return Response::error(msg),
    };
    if work.op == WorkOp::Spmm {
        if let Some(name) = spmm_kernel {
            fields.push(("spmm_kernel", Value::Str(name.to_string())));
        }
        fields.push(("k", Value::UInt(k as u64)));
    }
    let mut y = Vec::with_capacity(rows * k);
    for j in 0..k {
        y.extend((0..rows).map(|r| Value::Float(scratch.y[r * k + j])));
    }
    fields.push(("y", Value::Array(y)));
    Response::with(status, fields)
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let reply = job.reply.clone();
        // Containment boundary: a panic anywhere in tuning becomes an
        // error *response*; the worker thread itself never dies, so
        // the pool cannot be wedged by a poisoned request.
        let resp =
            catch_unwind(AssertUnwindSafe(|| process_job(shared, job))).unwrap_or_else(|payload| {
                Response::error(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                ))
            });
        // The client may have given up (deadline, disconnect); a dead
        // channel is not the worker's problem.
        let _ = reply.send(resp);
    }
}

fn process_job(shared: &Arc<Shared>, job: Job) -> Response {
    // Failpoint `service.worker`: scripted worker faults and stalls.
    if let Some(fault) = smat_failpoints::check("service.worker") {
        return Response::error(fault.to_string());
    }
    if job.deadline <= Instant::now() {
        return Response::deadline_miss("queued");
    }
    let (work, shard) = (&job.work, &shared.shards[job.shard]);
    let matrix: &Csr<f64> = match &work.source {
        MatrixSource::Inline(m) => m,
        MatrixSource::Handle(_) => {
            // Handle requests are answered inline on the connection
            // thread and never queue; this arm is a contract guard.
            return Response::error("internal: handle request crossed the tuning queue");
        }
    };
    let tuned = shard.engine.prepare_with_deadline(matrix, job.deadline);
    let status = if tuned.decision().is_degraded() {
        Status::Degraded
    } else {
        Status::Ok
    };
    let kernel = shard.engine.library().info(tuned.kernel()).name;
    let mut fields = vec![
        ("op", Value::Str(work.op.name().to_string())),
        ("format", Value::Str(tuned.format().to_string())),
        ("kernel", Value::Str(kernel.to_string())),
        ("cached", Value::Bool(tuned.decision().is_cached())),
    ];
    if let smat::DecisionPath::Degraded { reason } = tuned.decision() {
        fields.push(("reason", Value::Str(reason.clone())));
    }
    // Mint the warm-path handle: register the prepared matrix in the
    // shard's registry and echo the fingerprint + generation to the
    // client. Degraded decisions are not registered — the point of the
    // warm path is replaying a *tuned* plan.
    if status == Status::Ok {
        let wire = WireHandle {
            fingerprint: tuned.fingerprint(),
            generation: shared.generation,
        };
        fields.push(("handle", Value::Str(wire.encode())));
    }
    let dims = (matrix.rows(), matrix.cols());
    let mut scratch = Scratch::default();
    let product =
        |x: &[f64], y: &mut [f64], k| tuned_product(&shard.engine, &tuned, work.op, x, y, k);
    let resp = reply(work, dims, &mut scratch, status, fields, product);
    if resp.status == Status::Ok {
        shard.handles.insert(tuned);
    }
    resp
}

// ---------------------------------------------------------------------
// Responses and metrics
// ---------------------------------------------------------------------

/// Writes `resp` as one line. When `count` is set (admitted work
/// requests only) the outcome counter is incremented first, so the
/// quiesced invariant `requests_total == Σ outcomes` holds even if the
/// client vanished before the write.
fn write_response(
    shared: &Arc<Shared>,
    conn: &mut impl Write,
    resp: &Response,
    count: bool,
) -> bool {
    if count {
        let m = &shared.metrics;
        let counter = match resp.status {
            Status::Ok => &m.requests_ok,
            Status::Degraded => &m.requests_degraded,
            Status::Shed => &m.requests_shed,
            Status::DeadlineMiss => &m.deadline_misses,
            Status::HandleMiss => &m.requests_handle_miss,
            Status::Error => &m.requests_error,
        };
        ServiceMetrics::inc(counter);
    }
    // Failpoint `service.respond`: the write faults as if the client
    // closed its receive side.
    if smat_failpoints::check("service.respond").is_some() {
        ServiceMetrics::inc(&shared.metrics.respond_faults);
        return false;
    }
    let mut line = resp.to_line();
    line.push('\n');
    match conn.write_all(line.as_bytes()).and_then(|()| conn.flush()) {
        Ok(()) => true,
        Err(_) => {
            ServiceMetrics::inc(&shared.metrics.respond_faults);
            false
        }
    }
}

/// Sums the shard health reports into one fleet-wide report, so the
/// `engine` block of the metrics op keeps its schema no matter how
/// many shards are configured.
fn aggregate_health(reports: &[HealthReport]) -> HealthReport {
    let mut total = HealthReport::default();
    for r in reports {
        total.calls += r.calls;
        total.spmv_calls += r.spmv_calls;
        total.spmm_calls += r.spmm_calls;
        total.exec_faults += r.exec_faults;
        total.breaker_trips += r.breaker_trips;
        total
            .quarantined_variants
            .extend(r.quarantined_variants.iter().cloned());
        total.reprobe_successes += r.reprobe_successes;
        total.reprobe_failures += r.reprobe_failures;
        total.pool_demotions += r.pool_demotions;
        total.pool_demoted |= r.pool_demoted;
        total.quarantine_evictions += r.quarantine_evictions;
        total.degraded_prepares += r.degraded_prepares;
        total
            .recent_incidents
            .extend(r.recent_incidents.iter().cloned());
        total.dispatch_fault_count += r.dispatch_fault_count;
        total.coalesced_waits += r.coalesced_waits;
        total.poison_recoveries += r.poison_recoveries;
        total.corrupt_evictions += r.corrupt_evictions;
        total.cache_hits += r.cache_hits;
        total.cache_misses += r.cache_misses;
    }
    total
}

/// Builds the metrics JSON: service counters, the aggregated engine
/// health report (breaker states, quarantined kernels, coalesced
/// waits, dispatch faults, cache traffic), and a per-shard breakdown
/// with the handle-registry counters.
fn metrics_value(shared: &Arc<Shared>) -> Value {
    let m = &shared.metrics;
    let g = ServiceMetrics::get;
    let reports: Vec<HealthReport> = shared
        .shards
        .iter()
        .map(|s| s.engine.health_report())
        .collect();
    let handle_stats: Vec<smat::HandleStats> =
        shared.shards.iter().map(|s| s.handles.stats()).collect();
    let handle_hits: u64 = handle_stats.iter().map(|h| h.hits).sum();
    let handle_misses: u64 = handle_stats.iter().map(|h| h.misses).sum();
    let handle_evictions: u64 = handle_stats.iter().map(|h| h.evictions).sum();
    let service = obj(vec![
        ("status", Value::Str("ok".to_string())),
        (
            "accepted_connections",
            Value::UInt(g(&m.accepted_connections)),
        ),
        ("open_connections", Value::UInt(g(&m.open_connections))),
        ("accept_faults", Value::UInt(g(&m.accept_faults))),
        ("frames_valid", Value::UInt(g(&m.frames_valid))),
        ("frames_invalid", Value::UInt(g(&m.frames_invalid))),
        ("oversized_frames", Value::UInt(g(&m.oversized_frames))),
        ("torn_frames", Value::UInt(g(&m.torn_frames))),
        ("slow_loris_closes", Value::UInt(g(&m.slow_loris_closes))),
        ("respond_faults", Value::UInt(g(&m.respond_faults))),
        ("requests_total", Value::UInt(g(&m.requests_total))),
        ("requests_ok", Value::UInt(g(&m.requests_ok))),
        ("requests_degraded", Value::UInt(g(&m.requests_degraded))),
        ("requests_shed", Value::UInt(g(&m.requests_shed))),
        ("deadline_misses", Value::UInt(g(&m.deadline_misses))),
        (
            "requests_handle_miss",
            Value::UInt(g(&m.requests_handle_miss)),
        ),
        ("requests_error", Value::UInt(g(&m.requests_error))),
        ("wire_matrix_parses", Value::UInt(g(&m.wire_matrix_parses))),
        ("handle_hits", Value::UInt(handle_hits)),
        ("handle_misses", Value::UInt(handle_misses)),
        ("handle_evictions", Value::UInt(handle_evictions)),
        ("shed_tenant", Value::UInt(g(&m.shed_tenant))),
        ("shed_queue_full", Value::UInt(g(&m.shed_queue_full))),
        ("shed_draining", Value::UInt(g(&m.shed_draining))),
        ("queue_depth", Value::UInt(shared.queue.len() as u64)),
        (
            "queue_capacity",
            Value::UInt(shared.config.queue_capacity as u64),
        ),
        (
            "queue_high_watermark",
            Value::UInt(g(&m.queue_high_watermark)),
        ),
        (
            "degrade_watermark",
            Value::UInt(shared.config.degrade_watermark as u64),
        ),
        ("workers", Value::UInt(shared.config.workers as u64)),
        ("shard_count", Value::UInt(shared.shards.len() as u64)),
        ("generation", Value::UInt(shared.generation)),
        ("draining", Value::Bool(m.draining.load(Ordering::Relaxed))),
    ]);
    let engine = aggregate_health(&reports).to_value();
    let shards = Value::Array(
        reports
            .iter()
            .zip(&handle_stats)
            .zip(&shared.shards)
            .enumerate()
            .map(|(i, ((report, hs), shard))| {
                let cache = shard.engine.cache_stats();
                obj(vec![
                    ("index", Value::UInt(i as u64)),
                    (
                        "cache",
                        obj(vec![
                            ("hits", Value::UInt(cache.hits)),
                            ("misses", Value::UInt(cache.misses)),
                            ("entries", Value::UInt(cache.entries as u64)),
                            ("capacity", Value::UInt(cache.capacity as u64)),
                            ("corrupt_evictions", Value::UInt(cache.corrupt_evictions)),
                            ("poison_recoveries", Value::UInt(cache.poison_recoveries)),
                            ("coalesced_waits", Value::UInt(cache.coalesced_waits)),
                        ]),
                    ),
                    (
                        "quarantined",
                        Value::Array(
                            report
                                .quarantined_variants
                                .iter()
                                .map(|q| Value::Str(q.name.clone()))
                                .collect(),
                        ),
                    ),
                    ("pool_demoted", Value::Bool(report.pool_demoted)),
                    ("handle_hits", Value::UInt(hs.hits)),
                    ("handle_misses", Value::UInt(hs.misses)),
                    ("handle_evictions", Value::UInt(hs.evictions)),
                    ("handle_entries", Value::UInt(hs.entries as u64)),
                    (
                        "handle_resident_bytes",
                        Value::UInt(hs.resident_bytes as u64),
                    ),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("status", Value::Str("ok".to_string())),
        ("service", service),
        ("engine", engine),
        ("shards", shards),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame of the largest admitted size, dribbled in 4 KiB reads
    /// like a slow client's, is split exactly and every byte is examined
    /// for the terminator once: the scan is linear in the stream.
    #[test]
    fn max_size_frame_in_small_reads_is_scanned_once() {
        let max = ServeConfig::default().max_frame_bytes;
        let mut stream = vec![b'a'; max - 1];
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"op\":\"ping\"}\n{\"op\"");
        let mut frames = Frames::default();
        let mut out = Vec::new();
        for piece in stream.chunks(4096) {
            frames.buf.extend_from_slice(piece);
            while let Some(frame) = frames.next_frame() {
                out.push(frame);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].len(), max - 1);
        assert!(out[0].iter().all(|&b| b == b'a'));
        assert_eq!(out[1], b"{\"op\":\"ping\"}");
        assert_eq!(frames.buf, b"{\"op\"", "the partial frame stays buffered");
        assert_eq!(frames.examined, stream.len(), "each byte examined once");
    }
}
