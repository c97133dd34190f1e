//! Machine facts recorded with every run: core count, cache sizes and
//! a measured triad bandwidth.

use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(L2, L3)` sizes in bytes of cpu0's unified caches, 0 when unknown.
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0;
    let mut l3 = 0;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        match level.trim() {
            "2" => l2 = bytes,
            "3" => l3 = bytes,
            _ => {}
        }
    }
    (l2, l3)
}

/// Bytes per triad array. The HPC rule asks for four times the last
/// level cache; on hosts whose shared L3 is hundreds of MiB that would
/// not fit the memory this benchmark allows itself, so the arrays are
/// capped and the record states both sizes.
pub const TRIAD_ARRAY_BYTES: usize = 64 << 20;

/// Sustained `a = b + s*c` bandwidth in GB/s over `threads` threads
/// (median of five passes; bytes counted as three arrays per pass).
pub fn stream_triad_gbs(threads: usize) -> f64 {
    let n = TRIAD_ARRAY_BYTES / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let threads = threads.max(1);
    let chunk = n.div_ceil(threads);
    let mut times = Vec::new();
    for _ in 0..6 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for i in 0..a.len() {
                        a[i] = b[i] + 3.0 * c[i];
                    }
                });
            }
        });
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&mut a);
    }
    // The first pass faults the output pages in; drop it.
    let med = crate::stats::median(&times[1..]);
    (3 * TRIAD_ARRAY_BYTES) as f64 / med / 1e9
}
