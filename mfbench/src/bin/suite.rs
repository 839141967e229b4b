//! The benchmark suite.
//!
//! ```text
//! cargo run --release --offline --manifest-path mfbench/Cargo.toml --bin suite -- \
//!     --workload serve-replay --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--workload` it runs that workload in this process, prints a
//! human-readable row on stderr and the result object as the last line
//! of stdout. Without it, it runs every workload, each in a child
//! process of its own. `--trace 1` reports the per-layer metrics of a
//! traced run and writes its Chrome trace to `--trace-dir`; `--out FILE`
//! appends each result, tagged with the workload, seed and `--set`
//! label, for `bench_diff`. Exits 1 when an output check fails.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use mfbench::report::record;
use mfbench::workload::{self, Params};
use mfbench::{DEFAULT_SEED, WORKLOADS};
use mfhls_svc::Json;

struct Args {
    workload: Option<String>,
    params: Params,
    out: Option<PathBuf>,
    set: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        params: Params {
            seed: DEFAULT_SEED,
            seconds: 15.0,
            trace: false,
            trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
        out: None,
        set: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag '{flag}' wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "--workload wants one of {}, got '{value}'",
                        WORKLOADS.join("|")
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => {
                args.params.seed = value
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got '{value}'"))?;
            }
            "--seconds" => {
                args.params.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds wants a number in (0, 3600], got '{value}'")
                    })?;
            }
            "--trace" => {
                args.params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                };
            }
            "--trace-dir" => args.params.trace_dir = PathBuf::from(value),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--set" => args.set = value,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suite: {e}");
            std::process::exit(2);
        }
    };
    let ok = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("suite: {e}");
            std::process::exit(1);
        }
    }
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let outcome = workload::run(workload, &args.params)?;
    eprintln!("{}", outcome.row(workload));
    for note in &outcome.notes {
        eprintln!("  {workload}: {note}");
    }
    let result = outcome.to_json();
    if let Some(path) = &args.out {
        let line = record(
            &result,
            workload,
            args.params.seed,
            args.params.trace,
            &args.set,
        );
        append(path, &line).map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(outcome.correct)
}

fn append(path: &PathBuf, line: &Json) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Runs every workload in a child process of its own, so no workload
/// inherits another's heap, caches or threads.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.params.seed.to_string()])
            .args(["--seconds", &args.params.seconds.to_string()])
            .args(["--trace", if args.params.trace { "1" } else { "0" }])
            .arg("--trace-dir")
            .arg(&args.params.trace_dir)
            .args(["--set", &args.set]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        let output = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let correct = Json::parse(last)
            .ok()
            .and_then(|v| v.get("correct").and_then(Json::as_bool))
            .unwrap_or(false);
        all_correct &= output.status.success() && correct;
        println!("{workload} {last}");
    }
    Ok(all_correct)
}
