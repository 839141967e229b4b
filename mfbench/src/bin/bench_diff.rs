//! Compares two sets of suite results.
//!
//! ```text
//! cargo run --release --offline --manifest-path mfbench/Cargo.toml --bin bench_diff -- \
//!     [--bounds BENCHMARK.json] PARENT[#SET] CHANGE[#SET]
//! ```
//!
//! `PARENT` and `CHANGE` are files of result records written by `suite
//! --out`; `#SET` keeps only the records of that `--set` label. For each
//! workload and end-to-end metric it prints both sides' median and
//! quartiles, the parent's IQR, the pairs the change won and the verdict
//! (see `mfbench::diff`). Exits 1 when any metric regressed, 2 on bad
//! input.

use mfbench::diff::{bounds, compare, records, values, Record, Verdict};
use mfbench::stats::Summary;
use mfhls_svc::Json;

fn load(spec: &str) -> Result<Vec<Record>, String> {
    let (path, set) = match spec.split_once('#') {
        Some((path, set)) => (path, Some(set)),
        None => (spec, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let all = records(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(all
        .into_iter()
        .filter(|r| set.is_none_or(|s| r.set == s))
        .collect())
}

fn run() -> Result<bool, String> {
    let mut bounds_path = "BENCHMARK.json".to_owned();
    let mut sides = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds wants a path")?;
        } else {
            sides.push(arg);
        }
    }
    let [parent, change] = &sides[..] else {
        return Err("usage: bench_diff [--bounds BENCHMARK.json] PARENT[#SET] CHANGE[#SET]".into());
    };
    let doc = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("cannot read {bounds_path}: {e}"))?;
    let metrics = bounds(&Json::parse(&doc).map_err(|e| format!("{bounds_path}: {e}"))?)?;
    let (parent, change) = (load(parent)?, load(change)?);
    let mut workloads: Vec<&str> = parent
        .iter()
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    if workloads.is_empty() {
        return Err("no untraced parent records".into());
    }
    let mut clean = true;
    println!(
        "{:<16} {:<16} {:>30} {:>30} {:>10} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "parent IQR",
        "wins"
    );
    for w in workloads {
        for m in &metrics {
            let Some(c) = compare(
                &values(&parent, w, &m.name),
                &values(&change, w, &m.name),
                m,
            ) else {
                println!("{w:<16} {:<16} missing on one side", m.name);
                continue;
            };
            let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{w:<16} {:<16} {:>30} {:>30} {:>10.4} {:>6}  {}",
                m.name,
                side(&c.parent),
                side(&c.change),
                c.parent.iqr(),
                format!("{}/{}", c.wins, c.pairs),
                c.verdict.as_str()
            );
            clean &= c.verdict != Verdict::Regressed;
        }
    }
    Ok(clean)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    }
}
