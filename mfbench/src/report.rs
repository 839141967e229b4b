//! Run outcomes: the result line the suite prints and the records
//! `bench_diff` reads back.

use mfhls_svc::Json;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations whose outcome differed from the expected one.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts and failed checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (each metric as `{"value": v, "unit": u}`).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Object(vec![
                        ("value".to_owned(), Json::Float(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Json::Object(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::Int(to_i64(self.attempted))),
            ("failed".to_owned(), Json::Int(to_i64(self.failed))),
            ("metrics".to_owned(), Json::Object(metrics)),
        ])
    }

    /// One human-readable row: every metric by name with its unit.
    pub fn row(&self, workload: &str) -> String {
        let mut row = format!(
            "{workload}: correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            row.push_str(&format!(" | {} {:.4} {}", m.name, m.value, m.unit));
        }
        row
    }
}

fn to_i64(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// A result line tagged for `bench_diff`: the result object's entries
/// followed by `workload`, `seed`, `trace` and the free-form `set` label.
pub fn record(result: &Json, workload: &str, seed: u64, trace: bool, set: &str) -> Json {
    let mut entries = result.as_object().map(<[_]>::to_vec).unwrap_or_default();
    entries.push(("workload".to_owned(), Json::Str(workload.to_owned())));
    entries.push(("seed".to_owned(), Json::Str(seed.to_string())));
    entries.push(("trace".to_owned(), Json::Bool(trace)));
    entries.push(("set".to_owned(), Json::Str(set.to_owned())));
    Json::Object(entries)
}

/// Peak resident set size of this process in kB, from `VmHWM` in
/// `/proc/self/status` (`None` where the file or the field is missing).
pub fn peak_rss_kb() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            ..Outcome::default()
        };
        o.push("latency_ms", "ms", 1.25);
        let text = o.to_json().to_string();
        assert_eq!(
            text,
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        let rec = record(&o.to_json(), "w", 7, false, "a").to_string();
        assert!(rec.ends_with(r#""workload":"w","seed":"7","trace":false,"set":"a"}"#));
        assert!(o.row("w").contains("latency_ms 1.2500 ms"));
    }
}
