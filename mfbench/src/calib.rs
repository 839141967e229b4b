//! Speed calibration: every timing the suite reports is scaled to a
//! reference machine speed.
//!
//! On a shared host, neighbours contending for caches and memory slow
//! the whole process by 10–30% for seconds at a time, without any CPU
//! time being stolen. That drift, not per-sample jitter, dominates the
//! run-to-run spread of any timing taken here. The suite therefore times
//! a fixed kernel of the benchmark's own — allocation, a sort and map
//! inserts, the kind of work the synthesizer does — right before each
//! stretch of measured work, and scales that work's timings by
//! [`REFERENCE_MS`] over the kernel's time. The kernel never calls into
//! the program, so a change to the program moves the scaled timings as
//! much as the raw ones; a slow stretch of the host moves both the
//! kernel and the work, and cancels.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a calibration point scales the timings after it: the host's
/// slow stretches last seconds, and a point costs about 10 ms.
pub const POINT_SPAN: Duration = Duration::from_millis(250);

/// Kernel time, in milliseconds, of the reference speed timings are
/// scaled to: about the kernel's median on the 2-vCPU 2.1 GHz Xeon host
/// the 0.11.0 baseline was recorded on.
pub const REFERENCE_MS: f64 = 3.0;

/// Elements the kernel sorts and inserts.
const KERNEL_ELEMENTS: u64 = 20_000;

/// Kernel repetitions per calibration point; the point is their median.
const REPS: u64 = 3;

fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map = BTreeMap::new();
    let mut v = Vec::with_capacity(KERNEL_ELEMENTS as usize);
    for i in 0..KERNEL_ELEMENTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        map.insert(x % (2 * KERNEL_ELEMENTS + 3), i);
    }
    v.sort_unstable();
    v[v.len() / 2] ^ map.len() as u64
}

/// One calibration point: the median kernel time, milliseconds.
pub fn measure() -> f64 {
    let mut times: Vec<f64> = (1..=REPS)
        .map(|seed| {
            let t0 = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(seed)));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The factor that scales a timing taken next to a calibration point of
/// `kernel_ms` to the reference speed.
pub fn factor(kernel_ms: f64) -> f64 {
    REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_is_deterministic_and_timed() {
        assert_eq!(super::kernel(1), super::kernel(1));
        let ms = super::measure();
        assert!(ms > 0.0 && ms.is_finite());
        assert!((super::factor(super::REFERENCE_MS) - 1.0).abs() < 1e-12);
    }
}
