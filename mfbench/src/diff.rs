//! Parent-versus-change comparison of suite results, by the rule the
//! benchmark's bounds define.
//!
//! For each workload and end-to-end metric, with `bound` the metric's
//! regression bound from `BENCHMARK.json`:
//!
//! * **regressed** — the change's median is worse than the parent's by
//!   more than `bound` (as a share of the parent's median);
//! * **improved** — at least [`MIN_PAIRS`] run pairs were compared, the
//!   change is better in at least nine tenths of them (ties count for
//!   neither side) and its median beats the parent's by more than the
//!   parent's interquartile range;
//! * **unresolved** — neither, while the parent's own spread (IQR over
//!   median) is wider than `bound`, unless every change run reads better
//!   than every parent run;
//! * **no-worse** — otherwise.

use mfhls_svc::Json;

use crate::stats::Summary;

/// Run pairs a gain needs: with fewer, the parent's IQR is too rough an
/// estimate of its spread to rule out noise.
pub const MIN_PAIRS: usize = 10;

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` entries of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the first malformed entry.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let better = e.get("better").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_owned(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {e}")),
            }
        })
        .collect()
}

/// The outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the gain rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent runs.
    pub parent: Summary,
    /// Change runs.
    pub change: Summary,
    /// Pairs (parent run `i`, change run `i`) the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares runs of one metric; runs pair up by position. `None` when
/// either side has no runs.
pub fn compare(parent: &[f64], change: &[f64], bound: &Bound) -> Option<Comparison> {
    let p = Summary::of(parent)?;
    let c = Summary::of(change)?;
    // `gain(a, b)` > 0 when `b` is better than `a`.
    let gain = |a: f64, b: f64| if bound.higher_is_better { b - a } else { a - b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| gain(a, b) > 0.0)
        .count();
    let worse = -gain(p.median, c.median);
    let regressed = if p.median == 0.0 {
        worse > 0.0
    } else {
        worse / p.median.abs() > bound.bound
    };
    let every_run_better = if bound.higher_is_better {
        c.min > p.max
    } else {
        c.max < p.min
    };
    let verdict = if regressed {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && -worse > p.iqr() {
        Verdict::Improved
    } else if p.relative_iqr() > bound.bound && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::NoWorse
    };
    Some(Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    })
}

/// One suite result record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Set label (empty when absent).
    pub set: String,
    /// Whether the record comes from a traced run.
    pub trace: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Parses JSON-lines suite records, skipping blank lines.
///
/// # Errors
///
/// A message with the 1-based number of the first malformed line.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload: workload.to_owned(),
            set: v.get("set").and_then(Json::as_str).unwrap_or("").to_owned(),
            trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
            metrics,
        });
    }
    Ok(out)
}

/// The values of `metric` over the untraced records of `workload`, in
/// file order.
pub fn values(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|&(_, v)| v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_ms".to_owned(),
            higher_is_better: false,
            bound,
        }
    }

    fn verdict(parent: &[f64], change: &[f64], bound: &Bound) -> Verdict {
        compare(parent, change, bound).unwrap().verdict
    }

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05];

    #[test]
    fn identical_runs_are_no_worse() {
        let c = compare(&PARENT, &PARENT, &lower(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::NoWorse);
        assert_eq!((c.wins, c.pairs), (0, 10));
    }

    #[test]
    fn a_worse_median_beyond_the_bound_regresses() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.15).collect();
        assert_eq!(verdict(&PARENT, &change, &lower(0.1)), Verdict::Regressed);
        // The same drift within a wider bound is no worse.
        assert_eq!(verdict(&PARENT, &change, &lower(0.2)), Verdict::NoWorse);
        // Higher-is-better metrics regress downwards.
        let rps = Bound {
            higher_is_better: true,
            ..lower(0.1)
        };
        let slower: Vec<f64> = PARENT.iter().map(|v| v * 0.85).collect();
        assert_eq!(verdict(&PARENT, &slower, &rps), Verdict::Regressed);
        assert_eq!(verdict(&PARENT, &change, &rps), Verdict::Improved);
    }

    #[test]
    fn improvement_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr() {
        let faster: Vec<f64> = PARENT.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&PARENT, &faster, &lower(0.1)), Verdict::Improved);
        // Two lost pairs out of ten: not a gain, but not worse either.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        let c = compare(&PARENT, &mixed, &lower(0.1)).unwrap();
        assert_eq!((c.wins, c.verdict), (8, Verdict::NoWorse));
        // Every pair won, but by less than the parent's IQR.
        let nudged: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(verdict(&PARENT, &nudged, &lower(0.1)), Verdict::NoWorse);
        // Ties count for neither side.
        let c = compare(&[1.0, 2.0], &[1.0, 1.0], &lower(0.5)).unwrap();
        assert_eq!(c.wins, 1);
        // Five pairs won outright are too few to claim a gain.
        let c = compare(&PARENT[..5], &faster[..5], &lower(0.1)).unwrap();
        assert_eq!((c.wins, c.verdict), (5, Verdict::NoWorse));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0, 10.0];
        let change: Vec<f64> = noisy.iter().map(|v| v * 1.02).collect();
        assert_eq!(verdict(&noisy, &change, &lower(0.1)), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let change: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_ne!(verdict(&noisy, &change, &lower(0.1)), Verdict::Unresolved);
        assert_eq!(compare(&[], &[1.0], &lower(0.1)), None);
    }

    #[test]
    fn zero_medians_regress_on_any_worsening() {
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.5], &lower(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[0.0, 0.0], &[0.0, 0.0], &lower(0.1)),
            Verdict::NoWorse
        );
    }

    #[test]
    fn bounds_and_records_parse() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"throughput_ops","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b[0].name, "throughput_ops");
        assert!(b[0].higher_is_better);
        assert!(bounds(&Json::parse(r#"{"end_to_end":[{"name":"x"}]}"#).unwrap()).is_err());

        let text = concat!(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":2.5,"unit":"ms"}},"workload":"w","seed":"1","trace":false,"set":"a"}"#,
            "\n\n",
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"m":{"value":9.0,"unit":"ms"}},"workload":"w","seed":"1","trace":true,"set":"a"}"#,
        );
        let recs = records(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(values(&recs, "w", "m"), vec![2.5]);
        assert!(records("{\"metrics\":{}}").is_err());
    }
}
