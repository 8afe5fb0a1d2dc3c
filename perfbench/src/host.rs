//! A fixed reference kernel that calls no code of the repository. Timed
//! between passes, it tells a slower host apart from a slower program: a
//! program change moves the passes and leaves the kernel where it was.
//!
//! The host has spells of a minute or more in which memory-bound code
//! runs 10-50% slower throughout, so even the pass floor rises. The
//! kernel's floor rises with it: over ten 40-second runs of one seed of
//! `fleet-baselines` on a 2-core Xeon VM the pass floor spread 0.106
//! (interquartile range over median) and the floor over the kernel's
//! floor 0.039. `run_ref` reports that ratio.

use std::hint::black_box;
use std::time::Instant;

/// Elements in the kernel's working set (4 MiB of `u64`), larger than a
/// core's private caches, as the fleets' per-cell matrices are.
const N: usize = 1 << 19;

/// One run of the kernel: random gathers, a dependent floating-point
/// chain and an unstable sort over a seeded array, the mix of memory
/// latency, arithmetic and branches the workloads spend their time on.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..N).map(|_| next()).collect();
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..N {
        i = (v[i] as usize ^ i).wrapping_mul(0x2545_F491) & (N - 1);
        acc = acc.wrapping_add(v[i]);
    }
    let mut f = 1.0f64;
    for &e in &v {
        f = f.mul_add(0.999_999, (e >> 11) as f64 * 1e-16);
        if f > 2.0 {
            f -= 1.0;
        }
    }
    v.sort_unstable();
    acc ^ v[N / 2] ^ f.to_bits()
}

/// Kernel runs per sample, about 80 ms on a 2.1 GHz Xeon core: long
/// enough that a sample's floor moves with the host's slow spells as the
/// pass floor does, where single runs of 16 ms find quiet gaps in them.
const RUNS: usize = 5;

/// Wall seconds of one sample (`RUNS` kernel runs), taken after every
/// pass; the run's `host.ref_s` is the fastest sample.
pub fn reference_secs() -> f64 {
    let t = Instant::now();
    for _ in 0..RUNS {
        black_box(kernel());
    }
    t.elapsed().as_secs_f64()
}
