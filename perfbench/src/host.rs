//! The host-speed reference.
//!
//! The benchmark's work is deterministic and single-threaded, so its time
//! changes only with the program or with the host. On a shared two-vCPU
//! cloud host the same replay ran up to 2× slower in spells of seconds to
//! minutes, with no steal time reported. A fixed kernel of the same kind of
//! work as the simulator — ordered-map and heap updates with small
//! allocations — is therefore timed between replays, and measured times are
//! scaled to a host that runs the kernel in [`NOMINAL_S`]. The kernel is
//! the benchmark's own code, so a change to the program cannot move it.
//! Over thirty 20 s runs of `paper_year` on that host, the scaled replay
//! rate spread 3.5 % (quartile distance over median) against 12 % unscaled.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per kernel run on the nominal host: about the typical speed of
/// the cloud host above, so that scaled figures read as plain ones there.
pub const NOMINAL_S: f64 = 0.000_8;
/// Kernel runs in one sample (about 16 ms on the nominal host).
const RUNS_PER_SAMPLE: u64 = 20;

/// Reference samples taken over some stretch of a run.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    /// Seconds per kernel run, one entry per sample.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Time one sample of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for run in 0..RUNS_PER_SAMPLE {
            black_box(kernel(black_box(run)));
        }
        self.samples
            .push(t.elapsed().as_secs_f64() / RUNS_PER_SAMPLE as f64);
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    pub fn extend(&mut self, other: &HostSpeed) {
        self.samples.extend(&other.samples);
    }

    /// Mean seconds per kernel run over the samples.
    pub fn kernel_s(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no reference sample taken");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// `secs`, measured while these samples were taken, on the nominal host.
    pub fn scale(&self, secs: f64) -> f64 {
        secs * NOMINAL_S / self.kernel_s()
    }
}

/// The reference kernel: 4,000 ordered-map inserts into 8,192 keys, as many
/// heap pushes, and a pop and a map removal every third step.
fn kernel(seed: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for k in 0..4_000u64 {
        let x = splitmix(seed, k);
        map.insert(x % 8_192, k);
        heap.push(std::cmp::Reverse(x));
        if k % 3 == 0 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
            map.remove(&((x >> 7) % 8_192));
        }
    }
    acc ^ map.len() as u64
}

/// The `k`th value of the splitmix64 sequence seeded with `seed`.
pub fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
