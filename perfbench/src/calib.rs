//! Machine-speed calibration.
//!
//! On a shared host the speed of a virtual CPU changes from second to
//! second: for stretches of a few seconds the same derivation takes up
//! to half again as long, on the CPU clock as on the wall clock, as
//! other tenants load the machine. A run whose figures came straight
//! from the clocks would measure those stretches as much as the
//! program. So the benchmark runs a fixed kernel of its own, which no
//! change to the program touches, between the measured operations,
//! and scales each operation's time by how fast the kernel ran around
//! it: a calibrated time is the time the operation would have taken
//! had the kernel run at its reference speed ([`REFERENCE_NS`]). The
//! kernel builds, probes and drops a small hash map of vectors, which
//! slows down in those stretches as the program's own allocation- and
//! hash-heavy code does; a pure arithmetic loop or a pointer chase
//! through memory does not (measured on the reference machine).
//!
//! Calibrated: `derive` problem times, `wire-steady` throughput and
//! round trips (on the process CPU clock), and every workload's
//! `setup_s`. Not calibrated: `wire-churn` round trips and
//! throughput, which are mostly system calls and waking the serving
//! thread at low load; there the kernel's speed did not follow theirs,
//! and calibrating them made them noisier. Every calibrated figure is
//! printed raw beside it.
//!
//! The kernel shares the process's allocator with the program: a
//! change of global allocator moves both and cancels out.

use crate::util::{median, thread_cpu_ns, Rng};
use std::collections::HashMap;

/// Kernel size: inserts into, and probes of, the hash map.
const KERNEL_KEYS: u32 = 1000;

/// The kernel's CPU time on the reference machine, an Intel Xeon
/// (Sapphire Rapids) virtual CPU of a two-vCPU KVM guest at a quiet
/// time. Calibrated times are in this machine's units.
pub const REFERENCE_NS: f64 = 140_000.0;

/// Calibration samples on either side of an operation that its local
/// speed is the median of.
pub const NEIGHBOURS: usize = 10;

/// Runs the kernel once; returns the calling thread's CPU time for it,
/// in nanoseconds.
pub fn kernel() -> f64 {
    let t = thread_cpu_ns();
    let mut rng = Rng::new(0x5eed);
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let keys = u64::from(KERNEL_KEYS) * 3 / 4;
    for i in 0..KERNEL_KEYS {
        map.entry(rng.next_u64() % keys).or_default().push(i);
    }
    let mut found = 0usize;
    for k in 0..u64::from(KERNEL_KEYS) {
        found += map.get(&k).map_or(0, Vec::len);
    }
    std::hint::black_box(found);
    drop(map);
    (thread_cpu_ns() - t) as f64
}

/// The factor for a time measured just before: [`REFERENCE_NS`] over
/// the median of `runs` kernel runs made now.
pub fn factor_now(runs: usize) -> f64 {
    let k: Vec<f64> = (0..runs.max(1)).map(|_| kernel()).collect();
    REFERENCE_NS / median(&k).max(1.0)
}

/// The factor that brings a time measured next to sample `i` of
/// `samples` to the reference speed: [`REFERENCE_NS`] over the median
/// of the samples within [`NEIGHBOURS`] of `i`.
pub fn factors(samples: &[f64]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(samples.len());
            REFERENCE_NS / median(&samples[lo..hi]).max(1.0)
        })
        .collect()
}
