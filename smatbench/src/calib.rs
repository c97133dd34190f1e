//! The benchmark's own yardstick: a CSR SpMV written here, not in the
//! workspace, so no change to the program can move it.
//!
//! The shared 2-vCPU host this benchmark runs on drifts by 2x and more
//! in phases that last seconds to minutes. The yardstick — a CSR SpMV
//! pass over the same matrices as the program calls it stands beside,
//! timed all through the run — drifts with it. It comes in two kinds:
//! serial, and split over the pool's width with a barrier after each
//! matrix. Work that hands its kernels to the pool slows far more than
//! serial work when waking the other vCPU takes long, or when either
//! vCPU is descheduled, so the suite (whose prepares measure candidate
//! kernels and whose steady calls run the tuned one, on the pool) is
//! measured against the second kind. The AMG workload (set-ups that
//! tune dozens of small operators, mostly predicted without measuring,
//! and V-cycles whose smoothers are serial) and the daemon's requests
//! are measured against the first, which tracked them closer. Dividing a
//! call's time by the yardstick's, each summarised the same way over
//! the run, turns it into multiples of what the host needed, in the
//! same stretch of time, for a fixed amount of the same kind of work.
//! The gated `*_refspmv` metrics are such ratios; the raw times are
//! printed beside them.
//!
//! Program time and yardstick are summarised the same way over the run,
//! chosen per workload by the shape of its samples (`Summary`). The
//! host runs in a fast and a slow mode that alternate within seconds,
//! so a median flips between the modes as their shares shift, while a
//! plain mean follows the rare call that stalls for many times its
//! length. The suite's calls and the AMG workload's set-ups and solves
//! therefore use the mean of the middle 80% of samples, which moves
//! with the shares smoothly, and the same way for program and
//! yardstick. The daemon's round trips wait on several thread wake-ups
//! each and are bimodal on their own; for them the fastest round trip
//! over the fastest pass is the steadiest figure, since the host's
//! noise only ever adds time.

use crate::stats::{mean, median};
use smat_matrix::Csr;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Samples per timing; the median is kept.
const SAMPLES: usize = 3;
/// Each sample repeats the pass until it spans about this long, so a
/// small matrix is not timed at the clock's resolution.
const SPAN: Duration = Duration::from_micros(500);

/// Thread `t`'s share of one pass: a CSR SpMV with each matrix in turn,
/// its rows split evenly over `threads`, the threads meeting at a
/// barrier after each matrix as the pool's workers join after each
/// kernel call.
fn part(ms: &[&Csr<f64>], x: &[f64], y: &mut [f64], t: usize, threads: usize, barrier: &Barrier) {
    for m in ms {
        let (row_ptr, col_idx, values) = (m.row_ptr(), m.col_idx(), m.values());
        let (lo, hi) = (m.rows() * t / threads, m.rows() * (t + 1) / threads);
        for (r, y) in (lo..hi).zip(y.iter_mut()) {
            let mut acc = 0.0;
            for i in row_ptr[r]..row_ptr[r + 1] {
                acc += values[i] * x[col_idx[i]];
            }
            *y = acc;
        }
        black_box(&*y);
        barrier.wait();
    }
}

/// `samples` timings of `reps` passes each, in seconds per pass, after
/// one untimed pass that brings the matrices into cache.
fn run(ms: &[&Csr<f64>], x: &[f64], threads: usize, samples: usize, reps: usize) -> Vec<f64> {
    let rows = ms.iter().map(|m| m.rows()).max().unwrap_or(0);
    let chunk = rows.div_ceil(threads) + 1;
    let barrier = &Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 1..threads {
            scope.spawn(move || {
                let mut y = vec![0.0; chunk];
                for _ in 0..=samples * reps {
                    part(ms, x, &mut y, t, threads, barrier);
                }
            });
        }
        let mut y = vec![0.0; chunk];
        part(ms, x, &mut y, 0, threads, barrier);
        (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..reps {
                    part(ms, x, &mut y, 0, threads, barrier);
                }
                t0.elapsed().as_secs_f64() / reps as f64
            })
            .collect()
    })
}

/// The yardstick of one item and its samples over the run.
pub struct Yardstick {
    threads: usize,
    /// Passes per sample; 0 until first used.
    reps: usize,
    /// Seconds per pass, one sample per call to `sample`.
    pub samples: Vec<f64>,
}

impl Yardstick {
    /// A serial yardstick (`threads` = 1), or one that splits each pass
    /// over `threads` as the tuned kernels split over the pool.
    pub fn new(threads: usize) -> Self {
        Yardstick {
            threads: threads.max(1),
            reps: 0,
            samples: Vec::new(),
        }
    }

    /// Times the pass over `ms` with the program's own input vector `x`
    /// (at least as long as the widest matrix) now: the median of a few
    /// samples. Pass the same matrices (their values may change) on
    /// every call.
    pub fn sample(&mut self, ms: &[&Csr<f64>], x: &[f64]) {
        if self.reps == 0 {
            let one = run(ms, x, self.threads, 1, 1)[0].max(1e-7);
            self.reps = ((SPAN.as_secs_f64() / one).ceil() as usize).clamp(1, 10_000);
        }
        self.samples
            .push(median(&run(ms, x, self.threads, SAMPLES, self.reps)));
    }
}

/// How a run's samples of one item are summarised.
#[derive(Debug, Clone, Copy)]
pub enum Summary {
    /// The mean of the samples left after dropping the fastest and the
    /// slowest tenth.
    TrimmedMean,
    Fastest,
}

impl Summary {
    fn of(self, v: &[f64]) -> f64 {
        match self {
            Summary::TrimmedMean => {
                let mut s = v.to_vec();
                s.sort_by(f64::total_cmp);
                let cut = s.len() / 10;
                mean(&s[cut..s.len() - cut])
            }
            Summary::Fastest => v.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// A program time in multiples of the yardstick pass, both summarised
/// over the run by `how`.
pub fn in_refs(t: &[f64], yardstick: &Yardstick, how: Summary) -> f64 {
    how.of(t) / how.of(&yardstick.samples)
}
