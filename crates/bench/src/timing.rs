//! A minimal wall-clock benchmarking harness.
//!
//! The workspace builds with no network access, so instead of Criterion we
//! carry this small warm-up + sample loop. It reports min/median/mean over
//! a fixed sample count — enough to spot order-of-magnitude regressions in
//! the substrate algorithms. `cargo bench` still works because the bench
//! targets keep `harness = false` and provide plain `fn main()`s.

use std::time::{Duration, Instant};

/// Timing summary of one benchmark: min/median/mean over the samples.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
    /// Number of recorded samples.
    pub count: usize,
}

/// Times `f` over `samples` runs (after `warmup` unrecorded runs) and
/// returns the timing summary together with the last run's output.
pub fn measure<T>(samples: usize, mut f: impl FnMut() -> T) -> (Sample, T) {
    let warmup = samples.div_ceil(5).max(1);
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t0.elapsed());
    }
    times.sort();
    let median = times[times.len() / 2];
    let total: Duration = times.iter().sum();
    let mean = total / times.len() as u32;
    let sample = Sample {
        min: times[0],
        median,
        mean,
        count: times.len(),
    };
    (sample, last.expect("at least one sample runs"))
}

/// Times `f` over `samples` runs (after `warmup` unrecorded runs) and
/// prints one `group/name` result line.
pub fn bench<T>(group: &str, name: &str, samples: usize, f: impl FnMut() -> T) {
    let (s, _) = measure(samples, f);
    println!(
        "{group}/{name:<24} min {:>12?}  median {:>12?}  mean {:>12?}  ({} samples)",
        s.min, s.median, s.mean, s.count
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_runs_and_counts() {
        let mut calls = 0u32;
        super::bench("t", "noop", 3, || calls += 1);
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
    }
}
