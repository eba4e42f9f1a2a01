//! Calibrated seconds: host time expressed in units of a fixed kernel.
//!
//! The sandbox host drifts between fast and slow regimes that last
//! seconds (the same pass measured 1.56 s and 2.80 s a minute apart), and
//! CPU time drifts with wall time, so neither repeats. The kernel below
//! shares no code with the simulator and is run before and after every
//! timed region; the region's wall time is divided by the kernel's, then
//! multiplied by the kernel's frozen nominal time so the result still
//! reads as seconds on the reference host.
//!
//! The kernel has two phases, chosen by measuring which candidates track
//! `Gpu::run_trace` best across five workloads and two host moods
//! (README.md, "Choosing the calibration kernel"): random
//! read-modify-write over a 1 MiB table for a third of its time, and
//! allocation churn for two thirds — the simulator allocates three to
//! seven times per simulated cycle. One pass still deviates 6–18 % after
//! calibration, so the metrics are medians over many short passes.

use std::hint::black_box;
use std::time::Instant;

use crate::summary::Summary;

/// The kernel's time on the host the benchmark was defined on, frozen.
/// Changing it rescales every timing metric: re-measure the baseline.
pub const CALIB_NOMINAL_S: f64 = 0.023;

const TABLE_WORDS: usize = 1 << 18; // 1 MiB of u32
const TABLE_ITERATIONS: u32 = 1_000_000;
const CHURN_SLOTS: usize = 256;
const CHURN_ITERATIONS: u32 = 1_000_000;

/// Calibration above this IQR/median marks the whole run as noisy.
pub const NOISY_SPREAD: f64 = 0.15;

/// `wall_s` in calibrated seconds, given the mean kernel time around it.
pub fn calibrated(wall_s: f64, calib_s: f64) -> f64 {
    wall_s * CALIB_NOMINAL_S / calib_s
}

/// Wall time of a region and the calibration samples that bracket it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    pub calib_s: f64,
}

impl Timing {
    pub fn cal_s(&self) -> f64 {
        calibrated(self.raw_s, self.calib_s)
    }
}

/// The calibration kernel's state plus every sample it has produced.
pub struct Host {
    table: Vec<u32>,
    churn: Vec<Option<Vec<u8>>>,
    state: u64,
    /// Divides both iteration counts.
    shrink: u32,
    samples: Vec<f64>,
}

impl Host {
    pub fn new() -> Host {
        Host::shrunk_by(1)
    }

    /// A tenth of the kernel, for `--check`, which discards its numbers.
    pub fn quick() -> Host {
        Host::shrunk_by(10)
    }

    fn shrunk_by(shrink: u32) -> Host {
        let mut host = Host {
            table: (0..TABLE_WORDS as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
            churn: (0..CHURN_SLOTS).map(|_| None).collect(),
            state: 0x2545_F491_4F6C_DD1D,
            shrink,
            samples: Vec::new(),
        };
        // First touches of the table and cold code are not host speed.
        for _ in 0..3 {
            host.kernel();
        }
        host.samples.clear();
        host
    }

    /// One kernel run. Phase 1: xorshift-driven read-modify-write over
    /// the table, an f32 accumulate and one data-dependent branch per
    /// iteration. Phase 2: a ring of 256 live buffers of 16–527 bytes,
    /// one allocated and one freed per iteration.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let mut acc = 0.0f32;
        for _ in 0..TABLE_ITERATIONS / self.shrink {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (TABLE_WORDS - 1)];
            if *slot & 1 == 0 {
                acc += (*slot >> 8) as f32;
            } else {
                acc *= 0.5;
            }
            *slot = slot.wrapping_add(x as u32) ^ (x >> 32) as u32;
        }
        let mut freed = 0usize;
        for _ in 0..CHURN_ITERATIONS / self.shrink {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut buffer = Vec::with_capacity(16 + ((x >> 20) as usize & 0x1FF));
            buffer.push(x as u8);
            if let Some(old) = self.churn[(x as usize) & (CHURN_SLOTS - 1)].replace(buffer) {
                freed += old.capacity();
            }
        }
        self.state = x;
        black_box((acc, freed));
        let s = start.elapsed().as_secs_f64();
        self.samples.push(s);
        s
    }

    /// Times `f` with one kernel run before and one after.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timing) {
        let before = self.kernel();
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        let after = self.kernel();
        (
            out,
            Timing {
                raw_s,
                calib_s: (before + after) / 2.0,
            },
        )
    }

    /// Summary of all kernel samples so far, in milliseconds.
    pub fn calib_ms(&self) -> Summary {
        Summary::of(&self.samples).scaled(1e3)
    }

    pub fn noisy(&self) -> bool {
        self.calib_ms().spread() > NOISY_SPREAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_out_host_speed() {
        // A host running at half speed doubles both the region and the
        // kernel: the calibrated time is unchanged.
        let fast = calibrated(2.0, CALIB_NOMINAL_S);
        let slow = calibrated(4.0, 2.0 * CALIB_NOMINAL_S);
        assert_eq!(fast, 2.0);
        assert!((slow - fast).abs() < 1e-12);
        let t = Timing {
            raw_s: 1.0,
            calib_s: CALIB_NOMINAL_S / 2.0,
        };
        assert!((t.cal_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timed_brackets_the_region_with_two_samples() {
        let mut host = Host::new();
        let (v, t) = host.timed(|| 7);
        assert_eq!(v, 7);
        assert_eq!(host.samples.len(), 2);
        assert!(t.raw_s >= 0.0 && t.calib_s > 0.0);
        assert!((t.calib_s - (host.samples[0] + host.samples[1]) / 2.0).abs() < 1e-12);
    }
}
