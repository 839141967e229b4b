//! Machine-readable benchmark reports.
//!
//! The `synthesis` bench target writes a `BENCH_synthesis.json` next to its
//! console output so CI (and regression tooling) can diff per-assay
//! wall-clock, execution time, and layer-cache hit rates without scraping
//! stdout. The workspace builds offline, so the JSON is hand-rolled here —
//! the schema is flat enough that serde would be overkill anyway.

use std::fmt::Write as _;
use std::time::Duration;

use crate::timing::Sample;

/// Schema tag stamped into every report, bumped on breaking changes.
/// `v2` added the exact-solver counters (`ilp_solves`, `ilp_nodes`,
/// `lp_pivots`, `warm_solves`, `cold_solves`, `warm_start_rate`).
/// `v3` added the SDC counters (`sdc_solves`, `sdc_constraints`,
/// `sdc_retracts`, `sdc_relaxations`) and the portfolio race counters
/// (`portfolio_races`, `wins_heuristic`, `wins_sdc`, `wins_ilp`).
pub const SCHEMA: &str = "mfhls-bench-synthesis/v3";

/// One benchmarked (assay, method) pair.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Bench case name, e.g. `ours_case2`.
    pub name: String,
    /// `ours` or `conventional`.
    pub method: String,
    /// Wall-clock timing over the samples.
    pub wall: Sample,
    /// Execution time string in the paper's format (e.g. `244m+I1`).
    pub exec: String,
    /// Fixed part of the execution time, in time units.
    pub exec_fixed: u64,
    /// Devices used.
    pub devices: usize,
    /// Transportation paths used.
    pub paths: usize,
    /// Re-synthesis iterations run.
    pub iterations: usize,
    /// Layer sub-problems served from the memo cache, summed over
    /// iterations.
    pub cache_hits: u64,
    /// Layer sub-problems solved from scratch, summed over iterations.
    pub cache_misses: u64,
    /// Exact-solver work behind the run, summed over iterations (all zero
    /// under the pure heuristic solver).
    pub solver: mfhls_core::SolverStats,
}

impl CaseReport {
    /// Cache hit rate in `[0, 1]`, or 0 when the cache saw no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The full report written to `BENCH_synthesis.json`.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Worker threads the run used (`mfhls_par::max_threads()`).
    pub threads: usize,
    /// Samples per case.
    pub samples: usize,
    /// One entry per benchmarked (assay, method) pair.
    pub cases: Vec<CaseReport>,
}

impl SynthesisReport {
    /// Renders the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"samples\": {},", self.samples);
        let _ = writeln!(out, "  \"cases\": [");
        for (k, c) in self.cases.iter().enumerate() {
            let comma = if k + 1 < self.cases.len() { "," } else { "" };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": {},", json_str(&c.name));
            let _ = writeln!(out, "      \"method\": {},", json_str(&c.method));
            let _ = writeln!(out, "      \"wall_ms\": {{");
            let _ = writeln!(out, "        \"min\": {},", json_ms(c.wall.min));
            let _ = writeln!(out, "        \"median\": {},", json_ms(c.wall.median));
            let _ = writeln!(out, "        \"mean\": {},", json_ms(c.wall.mean));
            let _ = writeln!(out, "        \"count\": {}", c.wall.count);
            let _ = writeln!(out, "      }},");
            let _ = writeln!(out, "      \"exec\": {},", json_str(&c.exec));
            let _ = writeln!(out, "      \"exec_fixed\": {},", c.exec_fixed);
            let _ = writeln!(out, "      \"devices\": {},", c.devices);
            let _ = writeln!(out, "      \"paths\": {},", c.paths);
            let _ = writeln!(out, "      \"iterations\": {},", c.iterations);
            let _ = writeln!(out, "      \"cache_hits\": {},", c.cache_hits);
            let _ = writeln!(out, "      \"cache_misses\": {},", c.cache_misses);
            let _ = writeln!(out, "      \"cache_hit_rate\": {:.6},", c.hit_rate());
            let _ = writeln!(out, "      \"ilp_solves\": {},", c.solver.ilp_solves);
            let _ = writeln!(out, "      \"ilp_optimal\": {},", c.solver.proven_optimal);
            let _ = writeln!(out, "      \"ilp_nodes\": {},", c.solver.nodes);
            let _ = writeln!(out, "      \"lp_pivots\": {},", c.solver.pivots);
            let _ = writeln!(out, "      \"warm_solves\": {},", c.solver.warm_solves);
            let _ = writeln!(out, "      \"cold_solves\": {},", c.solver.cold_solves);
            let _ = writeln!(
                out,
                "      \"warm_start_rate\": {:.6},",
                c.solver.warm_start_rate()
            );
            let _ = writeln!(out, "      \"sdc_solves\": {},", c.solver.sdc_solves);
            let _ = writeln!(
                out,
                "      \"sdc_constraints\": {},",
                c.solver.sdc_constraints
            );
            let _ = writeln!(out, "      \"sdc_retracts\": {},", c.solver.sdc_retracts);
            let _ = writeln!(
                out,
                "      \"sdc_relaxations\": {},",
                c.solver.sdc_relaxations
            );
            let _ = writeln!(
                out,
                "      \"portfolio_races\": {},",
                c.solver.portfolio_races
            );
            let _ = writeln!(
                out,
                "      \"wins_heuristic\": {},",
                c.solver.wins_heuristic
            );
            let _ = writeln!(out, "      \"wins_sdc\": {},", c.solver.wins_sdc);
            let _ = writeln!(out, "      \"wins_ilp\": {}", c.solver.wins_ilp);
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Writes the JSON report to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Schema tag for serve-plane load reports (`BENCH_serve.json`),
/// bumped on breaking changes. `v2` added the workload `mix` object and
/// the per-run cache counters (`cache_exact_hits`, `cache_store_hits`,
/// `cache_misses`, `delta_hits`, `reuse_rate`). Points before 0.16.0 also
/// carry the hit count of a since-removed canonical layer index.
pub const SERVE_SCHEMA: &str = "mfhls-bench-serve/v2";

/// The workload composition driven through the serve plane, as whole
/// percentages summing to 100 (the `--mix` flag of `serve_load`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixReport {
    /// Exact duplicates of base-pool requests.
    pub dup: u64,
    /// Near-duplicates: re-labelled, op-renamed, or op-permuted variants.
    pub neardup: u64,
    /// Malformed lines the admitter must reject.
    pub err: u64,
    /// Assays past the admission `max_ops` bound.
    pub oversized: u64,
}

/// Per-request latency quantiles from an `mfhls-obs` log2 histogram.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// Median latency in microseconds (histogram bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Smallest observed latency in microseconds.
    pub min_us: u64,
    /// Largest observed latency in microseconds.
    pub max_us: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Observations behind the quantiles (one per response line).
    pub count: u64,
}

impl LatencyReport {
    /// Extracts the report fields from a histogram of microsecond
    /// observations.
    pub fn from_histogram(h: &mfhls_obs::Log2Histogram) -> LatencyReport {
        LatencyReport {
            p50_us: h.quantile(0.50),
            p99_us: h.quantile(0.99),
            min_us: h.min(),
            max_us: h.max(),
            mean_us: h.mean(),
            count: h.count(),
        }
    }
}

/// One configuration the load generator drove through the serve plane.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Run label, e.g. `drain_baseline` or `pipelined_s4`.
    pub name: String,
    /// Transport: `stdin` (in-process) or `tcp` (loopback).
    pub mode: String,
    /// Shard worker-groups (`ServiceConfig::shards`).
    pub shards: usize,
    /// Windows in flight (`ServiceConfig::pipeline_windows`; 1 = drain).
    pub pipeline_windows: usize,
    /// Worker threads per shard pool (0 = auto).
    pub workers: usize,
    /// End-to-end wall clock for the whole request stream.
    pub wall: Duration,
    /// Responses per second (`responses_total / wall`).
    pub throughput_rps: f64,
    /// Requests solved successfully.
    pub solved: u64,
    /// Requests rejected (parse errors, oversized, overload).
    pub rejected: u64,
    /// Total response lines observed on the output stream.
    pub responses_total: u64,
    /// Layer-cache demand hits served by the exact in-memory index.
    pub cache_exact_hits: u64,
    /// Layer-cache demand lookups filled by store read-through.
    pub cache_store_hits: u64,
    /// Layer-cache demand lookups that missed everywhere.
    pub cache_misses: u64,
    /// Whole-request delta-cache replays (full-shape match, no synthesis).
    pub delta_hits: u64,
    /// Per-response latency distribution (admission-to-flush).
    pub latency: LatencyReport,
}

impl ServeRun {
    /// Solved requests answered without fresh synthesis work: delta
    /// replays plus requests whose every layer came out of the cache, as
    /// a fraction of layer lookups + replays. 0.0 when nothing was
    /// looked up.
    pub fn reuse_rate(&self) -> f64 {
        let reused = self.cache_exact_hits + self.cache_store_hits + self.delta_hits;
        let total = reused + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            reused as f64 / total as f64
        }
    }
}

/// The full report written to `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Worker threads available to the process.
    pub threads: usize,
    /// Requests in the generated workload (including invalid lines).
    pub requests: usize,
    /// Requests per admission window.
    pub window: usize,
    /// Workload generator seed.
    pub seed: u64,
    /// Workload composition percentages.
    pub mix: MixReport,
    /// Throughput of the best pipelined run over the drain baseline.
    /// The ≥2× goal is pinned here as data, not as a flaky assert.
    pub speedup_vs_drain: f64,
    /// The throughput target the serve rework aims for.
    pub target_speedup: f64,
    /// One entry per driven configuration.
    pub runs: Vec<ServeRun>,
}

impl ServeReport {
    /// Renders the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SERVE_SCHEMA));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"window\": {},", self.window);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"mix\": {{");
        let _ = writeln!(out, "    \"dup\": {},", self.mix.dup);
        let _ = writeln!(out, "    \"neardup\": {},", self.mix.neardup);
        let _ = writeln!(out, "    \"err\": {},", self.mix.err);
        let _ = writeln!(out, "    \"oversized\": {}", self.mix.oversized);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"speedup_vs_drain\": {:.6},", self.speedup_vs_drain);
        let _ = writeln!(out, "  \"target_speedup\": {:.6},", self.target_speedup);
        let _ = writeln!(out, "  \"runs\": [");
        for (k, r) in self.runs.iter().enumerate() {
            let comma = if k + 1 < self.runs.len() { "," } else { "" };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": {},", json_str(&r.name));
            let _ = writeln!(out, "      \"mode\": {},", json_str(&r.mode));
            let _ = writeln!(out, "      \"shards\": {},", r.shards);
            let _ = writeln!(out, "      \"pipeline_windows\": {},", r.pipeline_windows);
            let _ = writeln!(out, "      \"workers\": {},", r.workers);
            let _ = writeln!(out, "      \"wall_ms\": {},", json_ms(r.wall));
            let _ = writeln!(out, "      \"throughput_rps\": {:.6},", r.throughput_rps);
            let _ = writeln!(out, "      \"solved\": {},", r.solved);
            let _ = writeln!(out, "      \"rejected\": {},", r.rejected);
            let _ = writeln!(out, "      \"responses_total\": {},", r.responses_total);
            let _ = writeln!(out, "      \"cache_exact_hits\": {},", r.cache_exact_hits);
            let _ = writeln!(out, "      \"cache_store_hits\": {},", r.cache_store_hits);
            let _ = writeln!(out, "      \"cache_misses\": {},", r.cache_misses);
            let _ = writeln!(out, "      \"delta_hits\": {},", r.delta_hits);
            let _ = writeln!(out, "      \"reuse_rate\": {:.6},", r.reuse_rate());
            let _ = writeln!(out, "      \"latency_us\": {{");
            let _ = writeln!(out, "        \"p50\": {},", r.latency.p50_us);
            let _ = writeln!(out, "        \"p99\": {},", r.latency.p99_us);
            let _ = writeln!(out, "        \"min\": {},", r.latency.min_us);
            let _ = writeln!(out, "        \"max\": {},", r.latency.max_us);
            let _ = writeln!(out, "        \"mean\": {:.6},", r.latency.mean_us);
            let _ = writeln!(out, "        \"count\": {}", r.latency.count);
            let _ = writeln!(out, "      }}");
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

fn json_ms(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64() * 1e3)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> SynthesisReport {
        SynthesisReport {
            threads: 4,
            samples: 3,
            cases: vec![CaseReport {
                name: "ours_case1".into(),
                method: "ours".into(),
                wall: Sample {
                    min: Duration::from_micros(1500),
                    median: Duration::from_micros(2000),
                    mean: Duration::from_micros(1800),
                    count: 3,
                },
                exec: "110m".into(),
                exec_fixed: 110,
                devices: 5,
                paths: 5,
                iterations: 2,
                cache_hits: 3,
                cache_misses: 5,
                solver: mfhls_core::SolverStats {
                    ilp_solves: 4,
                    proven_optimal: 3,
                    nodes: 17,
                    pivots: 120,
                    warm_solves: 15,
                    cold_solves: 5,
                    sdc_solves: 6,
                    sdc_constraints: 301,
                    sdc_retracts: 61,
                    sdc_relaxations: 3368,
                    portfolio_races: 3,
                    wins_heuristic: 1,
                    wins_sdc: 1,
                    wins_ilp: 1,
                    ..Default::default()
                },
            }],
        }
    }

    #[test]
    fn json_has_schema_and_case_fields() {
        let json = sample_report().to_json();
        assert!(json.contains("\"schema\": \"mfhls-bench-synthesis/v3\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"name\": \"ours_case1\""));
        assert!(json.contains("\"min\": 1.500000"));
        assert!(json.contains("\"cache_hit_rate\": 0.375000,"));
        assert!(json.contains("\"ilp_solves\": 4"));
        assert!(json.contains("\"ilp_nodes\": 17"));
        assert!(json.contains("\"lp_pivots\": 120"));
        assert!(json.contains("\"warm_start_rate\": 0.750000,"));
        assert!(json.contains("\"sdc_solves\": 6"));
        assert!(json.contains("\"sdc_constraints\": 301"));
        assert!(json.contains("\"sdc_retracts\": 61"));
        assert!(json.contains("\"sdc_relaxations\": 3368"));
        assert!(json.contains("\"portfolio_races\": 3"));
        assert!(json.contains("\"wins_heuristic\": 1"));
        assert!(json.contains("\"wins_sdc\": 1"));
        assert!(json.contains("\"wins_ilp\": 1"));
        // Balanced braces/brackets — a cheap structural sanity check in
        // lieu of a JSON parser.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn serve_report_json_is_balanced_and_tagged() {
        let mut hist = mfhls_obs::Log2Histogram::new();
        for v in [120, 480, 900, 4100] {
            hist.observe(v);
        }
        let report = ServeReport {
            threads: 4,
            requests: 2000,
            window: 16,
            seed: 0xC0FFEE,
            mix: MixReport {
                dup: 60,
                neardup: 25,
                err: 10,
                oversized: 5,
            },
            speedup_vs_drain: 2.4,
            target_speedup: 2.0,
            runs: vec![ServeRun {
                name: "pipelined_s4".into(),
                mode: "stdin".into(),
                shards: 4,
                pipeline_windows: 2,
                workers: 0,
                wall: Duration::from_millis(350),
                throughput_rps: 5714.28,
                solved: 1700,
                rejected: 300,
                responses_total: 2000,
                cache_exact_hits: 900,
                cache_store_hits: 50,
                cache_misses: 350,
                delta_hits: 600,
                latency: LatencyReport::from_histogram(&hist),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mfhls-bench-serve/v2\""));
        assert!(json.contains("\"speedup_vs_drain\": 2.400000"));
        assert!(json.contains("\"name\": \"pipelined_s4\""));
        assert!(json.contains("\"neardup\": 25"));
        assert!(json.contains("\"cache_store_hits\": 50"));
        assert!(json.contains("\"delta_hits\": 600"));
        // (900 + 50 + 600) / (900 + 50 + 600 + 350) = 0.815789
        assert!(json.contains("\"reuse_rate\": 0.815789"));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"count\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn reuse_rate_handles_zero_lookups() {
        let run = ServeRun {
            name: "drain".into(),
            mode: "stdin".into(),
            shards: 1,
            pipeline_windows: 1,
            workers: 0,
            wall: Duration::from_millis(1),
            throughput_rps: 0.0,
            solved: 0,
            rejected: 0,
            responses_total: 0,
            cache_exact_hits: 0,
            cache_store_hits: 0,
            cache_misses: 0,
            delta_hits: 0,
            latency: LatencyReport::default(),
        };
        assert_eq!(run.reuse_rate(), 0.0);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let mut report = sample_report();
        report.cases[0].cache_hits = 0;
        report.cases[0].cache_misses = 0;
        assert_eq!(report.cases[0].hit_rate(), 0.0);
    }
}
