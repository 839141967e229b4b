//! Shared harness code for the table/ablation binaries.
//!
//! Every binary prints the same rows/series as the corresponding table of
//! the paper (`cargo run --release -p mfhls-bench --bin table2`, …); the
//! [`timing`]-based benches in `benches/` time the underlying algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod timing;

use mfhls_core::{Assay, SynthConfig, SynthesisResult, Synthesizer};

/// One side (ours or conventional) of a Table 2 row.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Execution time string in the paper's format (e.g. `244m+I1`).
    pub exec: String,
    /// Devices used (`#D.`).
    pub devices: usize,
    /// Transportation paths (`#P.`).
    pub paths: usize,
    /// Program runtime.
    pub runtime: std::time::Duration,
    /// The full synthesis result, for further inspection.
    pub result: SynthesisResult,
}

/// Runs the component-oriented flow on `assay`.
///
/// # Panics
///
/// Panics if synthesis fails — the benchmark assays are all synthesizable.
pub fn run_ours(assay: &Assay, config: SynthConfig) -> CaseResult {
    let result = Synthesizer::new(config)
        .run(assay)
        .expect("benchmark assay must synthesize");
    case_result(assay, result)
}

/// Runs the modified conventional baseline on `assay`.
///
/// # Panics
///
/// Panics if synthesis fails.
pub fn run_conventional(assay: &Assay, config: SynthConfig) -> CaseResult {
    let result =
        mfhls_core::conventional::run(assay, config).expect("benchmark assay must synthesize");
    case_result(assay, result)
}

fn case_result(assay: &Assay, result: SynthesisResult) -> CaseResult {
    CaseResult {
        exec: result.schedule.exec_time(assay).to_string(),
        devices: result.schedule.used_device_count(),
        paths: result.schedule.path_count(),
        runtime: result.runtime,
        result,
    }
}

/// Captures an execution trace of a benchmark run when the
/// `MFHLS_TRACE_OUT` environment variable names an output path.
///
/// Construct one at the top of a benchmark `main`; the trace is written as
/// JSONL (schema `mfhls-obs/v1`, see `mfhls trace-check`) when the guard
/// drops. Recording is thread-local to the constructing thread, so work the
/// harness dispatches to pool workers is not recorded — the trace covers
/// the sequential driver portion of the run.
pub struct EnvTrace {
    path: Option<String>,
}

impl EnvTrace {
    /// Starts a capture if `MFHLS_TRACE_OUT` is set and non-empty.
    #[must_use]
    pub fn from_env() -> Self {
        let path = std::env::var("MFHLS_TRACE_OUT")
            .ok()
            .filter(|p| !p.is_empty());
        if path.is_some() {
            mfhls_obs::start_capture(mfhls_obs::CaptureConfig::default());
        }
        EnvTrace { path }
    }
}

impl Drop for EnvTrace {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        if let Some(trace) = mfhls_obs::finish_capture() {
            match std::fs::write(&path, trace.to_jsonl()) {
                Ok(()) => eprintln!("trace: {} records written to {path}", trace.len()),
                Err(e) => eprintln!("trace: cannot write {path}: {e}"),
            }
        }
    }
}

/// Formats a duration the way the paper's Runtime column does
/// (`5.531s` / `5m12s`).
pub fn fmt_runtime(d: std::time::Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{}m{:.0}s", (secs / 60.0) as u64, secs % 60.0)
    } else {
        format!("{secs:.3}s")
    }
}

/// Prints a Markdown-ish table: a header row and aligned value rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}
