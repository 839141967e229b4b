//! The `mfhls` command-line tool: synthesize, validate, inspect, and
//! simulate assay descriptions written in the text DSL.
//!
//! ```text
//! mfhls synth protocol.mfa [--conventional] [--max-devices N] [--threshold T]
//!                          [--weights Ct,Ca,Cpr,Cp] [--threads N] [--gantt]
//!                          [--svg FILE] [--report] [--iterations]
//! mfhls validate protocol.mfa
//! mfhls simulate protocol.mfa [--trials N] [--policy hybrid|online]
//!                             [--success-probability P] [--latency M]
//! mfhls faultsim protocol.mfa [--trials N] [--seed S] [--fault-rate R]
//!                             [--fail-device D[@L]] [--max-retries K]
//!                             [--pad-factor F] [--threads N] [--exact]
//! mfhls export-lp protocol.mfa [--layer K] [--out FILE]
//! mfhls trace-check trace.jsonl
//! mfhls serve [--workers N] [--shards S] [--window D] [--queue N]
//!             [--cache-entries N] [--max-ops N] [--no-shared-cache]
//!             [--no-delta-cache] [--store DIR] [--tcp ADDR] [--once]
//! mfhls bench
//! mfhls gen [--seed S] [--count N] [--profile P|all] [--format dsl|netlist]
//!           [--out DIR] [--check] [--threads N]
//! ```
//!
//! `synth`, `simulate`, and `faultsim` additionally accept
//! `--trace FILE [--trace-format jsonl|chrome] [--log LEVEL]` to capture a
//! deterministic execution trace (see `mfhls-obs`), and
//! `--format text|json` to emit their result as one `mfhls-api/v1` JSON
//! object instead of prose. `serve` runs the batched synthesis service of
//! `mfhls-svc` over stdin/stdout NDJSON (or a local TCP listener),
//! sharding each window over `--shards` worker-groups, pipelining up to
//! `--window` admission windows through ingest/solve/write stages, and
//! sharing a bounded layer cache across requests. Unknown flags, flags
//! missing their value, and zero/absurd sizing values are rejected with a
//! targeted error naming the flag and a nonzero exit code.

use mfhls::core::recovery::{resynthesize_suffix, RetryPolicy};
use mfhls::core::{analysis, export, ilp_model, render};
use mfhls::sim::{
    run_with_recovery, simulate_hybrid, trials, DurationModel, FaultModel, ForcedFailure,
    RunOutcome, SimConfig,
};
use mfhls::{Assay, SynthConfig, Synthesizer, Weights};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        print_usage();
        return Ok(());
    };
    match cmd.as_str() {
        "synth" => synth(&args[1..]),
        "validate" => validate(&args[1..]),
        "simulate" => simulate(&args[1..]),
        "faultsim" => faultsim(&args[1..]),
        "export-lp" => export_lp(&args[1..]),
        "graph" => graph(&args[1..]),
        "trace-check" => trace_check(&args[1..]),
        "serve" => serve(&args[1..]),
        "bench" => bench(&args[1..]),
        "gen" => gen(&args[1..]),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'mfhls help')").into()),
    }
}

fn print_usage() {
    println!(
        "mfhls — component-oriented HLS for continuous-flow microfluidics (DAC'17)\n\n\
         USAGE:\n  \
         mfhls synth <file.mfa> [--conventional] [--max-devices N] [--threshold T]\n             \
         [--weights Ct,Ca,Cpr,Cp] [--solver SPEC] [--threads N]\n             \
         [--svg FILE] [--csv FILE] [--gantt] [--report] [--iterations]\n  \
         mfhls validate <file.mfa>\n  \
         mfhls simulate <file.mfa> [--trials N] [--policy hybrid|online]\n             \
         [--success-probability P] [--latency M]\n  \
         mfhls faultsim <file.mfa> [--trials N] [--seed S] [--fault-rate R]\n             \
         [--device-failure P] [--op-abort P] [--degradation P] [--path-blockage P]\n             \
         [--fail-device D[@L]] [--max-retries K] [--pad-factor F]\n             \
         [--success-probability P] [--latency M] [--threads N] [--exact]\n  \
         mfhls export-lp <file.mfa> [--layer K] [--out FILE]\n  \
         mfhls graph <file.mfa> [--layers] [--out FILE]\n  \
         mfhls trace-check <trace.jsonl>\n  \
         mfhls serve [--workers N] [--shards S] [--window D] [--queue N]\n             \
         [--cache-entries N] [--max-ops N] [--no-shared-cache]\n             \
         [--no-delta-cache] [--store DIR] [--tcp ADDR] [--once]\n  \
         mfhls bench\n  \
         mfhls gen [--seed S] [--count N] [--profile P|all]\n             \
         [--format dsl|netlist] [--out DIR] [--check] [--threads N]\n\n\
         OPTIONS:\n  \
         --solver SPEC layer-solver strategy: a backend name\n                \
         (heuristic|sdc|ilp|hybrid|portfolio), a parameterized\n                \
         form like hybrid:max_nodes=20000 or\n                \
         sdc:improvement_passes=3, or a deterministic race\n                \
         like portfolio:heuristic+sdc+ilp (default: heuristic).\n  \
         --format F    (synth|simulate|faultsim) text (default) or json — one\n                \
         mfhls-api/v1 object on stdout.\n  \
         --threads N   worker-pool size for simulation trials and gen --check\n                \
         (default: MFHLS_THREADS env var, then the CPU count);\n                \
         synthesis itself is sequential. Output is\n                \
         bitwise-identical at any thread count.\n  \
         --trace FILE  (synth|simulate|faultsim) capture a deterministic\n                \
         execution trace; --trace-format jsonl|chrome picks the\n                \
         encoding (default jsonl, validated by 'mfhls trace-check').\n  \
         --log LEVEL   echo trace records at or above LEVEL to stderr\n                \
         (error|warn|info|debug|trace).\n  \
         --store DIR   (serve) persist solved layers to DIR (mfhls-store/v1\n                \
         segments) so a restarted server warms instantly; corrupt\n                \
         or unwritable stores degrade to memory-only, never fail\n                \
         a request.\n  \
         --workers N   (serve) worker threads per shard pool; 0 (the\n                \
         default) = auto, i.e. MFHLS_THREADS, then the CPU count.\n  \
         --shards S    (serve) shard worker-groups per window (default 1);\n                \
         requests route by a stable FNV hash of their canonical\n                \
         bytes. Responses are byte-identical at any setting.\n  \
         --window D    (serve) admission windows in flight across the\n                \
         ingest/solve/write pipeline (default 2; 1 = pipelining\n                \
         off). Responses are byte-identical at any setting."
    );
}

/// Flags shared by every subcommand that builds a [`SynthConfig`].
const CONFIG_FLAGS: &[(&str, bool)] = &[
    ("--threads", true),
    ("--max-devices", true),
    ("--threshold", true),
    ("--weights", true),
    ("--solver", true),
    ("--conventional", false),
];

/// Flags shared by every subcommand that can capture an execution trace.
const TRACE_FLAGS: &[(&str, bool)] =
    &[("--trace", true), ("--trace-format", true), ("--log", true)];

/// Validates the argument list of subcommand `cmd` against its flag
/// specification before anything else runs: every `--flag` must appear in
/// `specs` (each entry is `(name, takes_value)`), value-taking flags must be
/// followed by a value, and at most `max_positionals` bare arguments are
/// accepted. Typos like `--trails` fail here with a targeted error instead
/// of being silently ignored.
fn check_flags(
    cmd: &str,
    args: &[String],
    max_positionals: usize,
    specs: &[&[(&str, bool)]],
) -> Result<(), CliError> {
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            match specs
                .iter()
                .flat_map(|s| s.iter())
                .find(|(name, _)| *name == a)
            {
                None => {
                    return Err(
                        format!("unknown flag '{a}' for 'mfhls {cmd}' (try 'mfhls help')").into(),
                    )
                }
                Some((_, true)) => match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 1,
                    _ => return Err(format!("flag '{a}' of 'mfhls {cmd}' expects a value").into()),
                },
                Some((_, false)) => {}
            }
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(format!("unexpected argument '{a}' for 'mfhls {cmd}'").into());
            }
        }
        i += 1;
    }
    Ok(())
}

/// Minimal flag cursor over the argument list.
struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value for {name}: {e}").into()),
        }
    }
}

fn load_assay(args: &[String]) -> Result<(Assay, Flags<'_>), CliError> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("expected a .mfa file path".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let assay = mfhls::dsl::parse(&text).map_err(|e| format!("{path}:{e}"))?;
    Ok((assay, Flags { args: &args[1..] }))
}

/// Parsed `--trace FILE [--trace-format jsonl|chrome] [--log LEVEL]`.
struct TraceOpts {
    path: Option<String>,
    chrome: bool,
    echo: Option<mfhls::obs::Level>,
}

fn trace_opts(flags: &Flags<'_>) -> Result<TraceOpts, CliError> {
    let chrome = match flags.value("--trace-format").unwrap_or("jsonl") {
        "jsonl" => false,
        "chrome" => true,
        other => {
            return Err(format!("unknown trace format '{other}' (expected jsonl|chrome)").into())
        }
    };
    let echo = match flags.value("--log") {
        None => None,
        Some(l) => Some(l.parse::<mfhls::obs::Level>()?),
    };
    Ok(TraceOpts {
        path: flags.value("--trace").map(str::to_owned),
        chrome,
        echo,
    })
}

/// Starts a capture when `--trace` or `--log` was given. Wall-clock
/// timestamps stay off so `--trace` output is byte-for-byte reproducible;
/// the Chrome exporter falls back to sequence numbers for its timeline.
fn start_trace(opts: &TraceOpts) {
    if opts.path.is_some() || opts.echo.is_some() {
        mfhls::obs::start_capture(mfhls::obs::CaptureConfig {
            wall_clock: false,
            echo: opts.echo,
        });
    }
}

fn finish_trace(opts: &TraceOpts) -> Result<(), CliError> {
    finish_trace_quietly(opts, false)
}

/// `quiet_stdout` diverts the confirmation line to stderr — used when
/// stdout carries machine-readable output (`--format json`, `serve`).
fn finish_trace_quietly(opts: &TraceOpts, quiet_stdout: bool) -> Result<(), CliError> {
    let Some(trace) = mfhls::obs::finish_capture() else {
        return Ok(());
    };
    if let Some(path) = &opts.path {
        let text = if opts.chrome {
            trace.to_chrome_trace()
        } else {
            trace.to_jsonl()
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        let message = format!("trace: {} records written to {path}", trace.len());
        if quiet_stdout {
            eprintln!("{message}");
        } else {
            println!("{message}");
        }
    }
    Ok(())
}

fn config_from(flags: &Flags<'_>) -> Result<SynthConfig, CliError> {
    if let Some(n) = flags.value("--threads") {
        let n: usize = n
            .parse()
            .map_err(|e| format!("invalid value for --threads: {e}"))?;
        if n == 0 {
            return Err("--threads wants at least 1".into());
        }
        mfhls::par::set_default_threads(Some(n));
    }
    // Flag defaults come from `SynthConfig::default()` itself, so the CLI
    // can never drift from the library (the old code re-stated the paper
    // values as literals here).
    let defaults = SynthConfig::default();
    let mut builder = SynthConfig::builder()
        .max_devices(flags.parsed("--max-devices", defaults.max_devices)?)
        .indeterminate_threshold(flags.parsed("--threshold", defaults.indeterminate_threshold)?);
    if let Some(w) = flags.value("--weights") {
        let parts: Vec<u64> = w
            .split(',')
            .map(|p| p.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("invalid --weights (want Ct,Ca,Cpr,Cp): {e}"))?;
        let [time, area, processing, paths] = parts[..] else {
            return Err("--weights wants exactly four numbers: Ct,Ca,Cpr,Cp".into());
        };
        builder = builder.weights(Weights {
            time,
            area,
            processing,
            paths,
        });
    }
    if let Some(name) = flags.value("--solver") {
        // Same name -> SolverKind mapping as the service API.
        builder = builder.solver(mfhls::svc::solver_from_str(name)?);
    }
    let mut config = builder.build()?;
    if flags.has("--conventional") {
        config = mfhls::core::conventional::conventional_config(config);
    }
    Ok(config)
}

/// Parsed `--format text|json`.
fn json_format(flags: &Flags<'_>) -> Result<bool, CliError> {
    match flags.value("--format").unwrap_or("text") {
        "text" => Ok(false),
        "json" => Ok(true),
        other => Err(format!("unknown format '{other}' (expected text|json)").into()),
    }
}

const SYNTH_FLAGS: &[(&str, bool)] = &[
    ("--svg", true),
    ("--csv", true),
    ("--format", true),
    ("--gantt", false),
    ("--report", false),
    ("--iterations", false),
];

fn synth(args: &[String]) -> Result<(), CliError> {
    check_flags("synth", args, 1, &[CONFIG_FLAGS, TRACE_FLAGS, SYNTH_FLAGS])?;
    let (assay, flags) = load_assay(args)?;
    let config = config_from(&flags)?;
    let json = json_format(&flags)?;
    let trace = trace_opts(&flags)?;
    start_trace(&trace);
    let result = Synthesizer::new(config).run(&assay)?;
    result.schedule.validate(&assay)?;
    finish_trace_quietly(&trace, json)?;

    if json {
        // One mfhls-api/v1 object on stdout; file artifacts still work,
        // with their confirmations diverted to stderr.
        println!("{}", mfhls::svc::api::synth_json(&assay, &result));
        if let Some(path) = flags.value("--svg") {
            std::fs::write(path, render::to_svg(&assay, &result.schedule))?;
            eprintln!("schedule SVG written to {path}");
        }
        if let Some(path) = flags.value("--csv") {
            std::fs::write(path, export::schedule_csv(&assay, &result.schedule))?;
            eprintln!("schedule CSV written to {path}");
        }
        return Ok(());
    }
    println!(
        "{}: {} ops ({} indeterminate) -> {} layers",
        assay.name(),
        assay.len(),
        assay.indeterminate_ops().len(),
        result.layering.num_layers()
    );
    println!(
        "exec time {} | devices {} | paths {} | runtime {:.3?}",
        result.schedule.exec_time(&assay),
        result.schedule.used_device_count(),
        result.schedule.path_count(),
        result.runtime
    );
    let mut solver = mfhls::core::SolverStats::default();
    for it in &result.iterations {
        solver.merge(&it.solver);
    }
    if solver.ilp_solves > 0 {
        println!(
            "exact solver: {} solves ({} proven optimal) | {} nodes | {} LP pivots | warm-start rate {:.1}%",
            solver.ilp_solves,
            solver.proven_optimal,
            solver.nodes,
            solver.pivots,
            solver.warm_start_rate() * 100.0
        );
    }
    if solver.sdc_solves > 0 {
        println!(
            "sdc solver: {} solves | {} constraints (+{} retracted) | {} relaxations",
            solver.sdc_solves, solver.sdc_constraints, solver.sdc_retracts, solver.sdc_relaxations
        );
    }
    if solver.portfolio_races > 0 {
        println!(
            "portfolio: {} races | wins heuristic {} / sdc {} / ilp {}",
            solver.portfolio_races, solver.wins_heuristic, solver.wins_sdc, solver.wins_ilp
        );
    }
    if flags.has("--iterations") {
        for (k, it) in result.iterations.iter().enumerate() {
            println!(
                "  iteration {k}: exec {} devices {} paths {}",
                it.exec_time, it.device_count, it.path_count
            );
        }
    }
    if flags.has("--gantt") {
        println!("\n{}", render::gantt(&assay, &result.schedule, 90));
    }
    if flags.has("--report") {
        let report = analysis::analyse(&assay, &result.schedule);
        println!("\ncritical path:");
        for op in &report.critical_path {
            println!("  {op} {}", assay.op(*op).name());
        }
        println!("device utilisation:");
        for d in &report.devices {
            println!(
                "  d{:<3} {:>3} ops  {:>5.1}%",
                d.device,
                d.ops,
                d.utilisation * 100.0
            );
        }
    }
    if let Some(path) = flags.value("--svg") {
        std::fs::write(path, render::to_svg(&assay, &result.schedule))?;
        println!("schedule SVG written to {path}");
    }
    if let Some(path) = flags.value("--csv") {
        std::fs::write(path, export::schedule_csv(&assay, &result.schedule))?;
        println!("schedule CSV written to {path}");
    }
    Ok(())
}

fn validate(args: &[String]) -> Result<(), CliError> {
    check_flags("validate", args, 1, &[])?;
    let (assay, _) = load_assay(args)?;
    println!(
        "OK: '{}' parses — {} ops, {} dependencies, {} indeterminate",
        assay.name(),
        assay.len(),
        assay.dependencies().count(),
        assay.indeterminate_ops().len()
    );
    let layering = mfhls::layer_assay(&assay, 10)?;
    layering.validate(&assay, 10)?;
    println!(
        "OK: layers into {} layers at threshold 10",
        layering.num_layers()
    );
    Ok(())
}

const SIMULATE_FLAGS: &[(&str, bool)] = &[
    ("--trials", true),
    ("--policy", true),
    ("--success-probability", true),
    ("--latency", true),
    ("--format", true),
];

fn simulate(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "simulate",
        args,
        1,
        &[CONFIG_FLAGS, TRACE_FLAGS, SIMULATE_FLAGS],
    )?;
    let (assay, flags) = load_assay(args)?;
    let config = config_from(&flags)?;
    let json = json_format(&flags)?;
    let n = flags.parsed("--trials", 100u64)?;
    let p = flags.parsed("--success-probability", 0.53f64)?;
    let latency = flags.parsed("--latency", 2u64)?;
    let trace = trace_opts(&flags)?;
    start_trace(&trace);
    let result = Synthesizer::new(config).run(&assay)?;
    let model = DurationModel::GeometricRetry {
        success_probability: p,
        max_attempts: 20,
    };
    let policy = flags.value("--policy").unwrap_or("hybrid");
    let stats = match policy {
        "hybrid" => trials::run_hybrid_trials(&assay, &result.schedule, model, n)?,
        "online" => trials::run_online_trials(&assay, &result.schedule, model, n, latency, true)?,
        other => return Err(format!("unknown policy '{other}' (expected hybrid|online)").into()),
    };
    finish_trace_quietly(&trace, json)?;
    if json {
        println!(
            "{}",
            mfhls::svc::api::trial_stats_json(assay.name(), policy, &stats)
        );
    } else {
        println!("{stats}");
    }
    Ok(())
}

const FAULTSIM_FLAGS: &[(&str, bool)] = &[
    ("--trials", true),
    ("--seed", true),
    ("--fault-rate", true),
    ("--device-failure", true),
    ("--op-abort", true),
    ("--degradation", true),
    ("--path-blockage", true),
    ("--fail-device", true),
    ("--max-retries", true),
    ("--pad-factor", true),
    ("--success-probability", true),
    ("--latency", true),
    ("--format", true),
    ("--exact", false),
];

fn faultsim(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "faultsim",
        args,
        1,
        &[CONFIG_FLAGS, TRACE_FLAGS, FAULTSIM_FLAGS],
    )?;
    let (assay, flags) = load_assay(args)?;
    let config = config_from(&flags)?;
    let json = json_format(&flags)?;
    let trace = trace_opts(&flags)?;
    let n = flags.parsed("--trials", 100u64)?;
    let seed = flags.parsed("--seed", 0u64)?;
    let p = flags.parsed("--success-probability", 0.53f64)?;
    let latency = flags.parsed("--latency", 2u64)?;
    let pad_factor = flags.parsed("--pad-factor", 3.0f64)?;

    let rate = flags.parsed("--fault-rate", 0.0f64)?;
    let mut faults = if rate > 0.0 {
        FaultModel::uniform(rate)
    } else {
        FaultModel::none()
    };
    faults.device_failure = flags.parsed("--device-failure", faults.device_failure)?;
    faults.op_abort = flags.parsed("--op-abort", faults.op_abort)?;
    faults.accessory_degradation = flags.parsed("--degradation", faults.accessory_degradation)?;
    faults.path_blockage = flags.parsed("--path-blockage", faults.path_blockage)?;
    let policy = RetryPolicy {
        max_retries: flags.parsed("--max-retries", 3usize)?,
        ..RetryPolicy::default()
    };
    let model = if flags.has("--exact") {
        DurationModel::Exact
    } else {
        DurationModel::GeometricRetry {
            success_probability: p,
            max_attempts: 20,
        }
    };

    start_trace(&trace);
    let result = Synthesizer::new(config.clone()).run(&assay)?;
    let schedule = &result.schedule;
    schedule.validate(&assay)?;
    let cfg = SimConfig { model, seed };
    let base = simulate_hybrid(&assay, schedule, &cfg)?;
    if !json {
        println!(
            "{}: {} ops -> {} layers, {} devices | baseline hybrid makespan {}m (seed {seed})",
            assay.name(),
            assay.len(),
            schedule.layers.len(),
            schedule.used_device_count(),
            base.makespan
        );
    }

    // Deterministic forced failure: emit the recovered schedule itself.
    // Narrative sections are text-mode only; `--format json` reports the
    // baseline and the survivability comparison.
    if let Some(spec) = flags.value("--fail-device").filter(|_| !json) {
        let (device, layer): (usize, usize) = match spec.split_once('@') {
            Some((d, l)) => (
                d.parse()
                    .map_err(|e| format!("invalid --fail-device: {e}"))?,
                l.parse()
                    .map_err(|e| format!("invalid --fail-device: {e}"))?,
            ),
            None => (
                spec.parse()
                    .map_err(|e| format!("invalid --fail-device: {e}"))?,
                0,
            ),
        };
        faults.forced_failures.push(ForcedFailure { device, layer });
        println!("\nforced failure: device d{device} at layer boundary {layer}");
        let quarantined: BTreeSet<usize> = [device].into_iter().collect();
        match resynthesize_suffix(&assay, schedule, &BTreeSet::new(), &quarantined, &config) {
            Ok(plan) => {
                plan.schedule.validate(&plan.assay)?;
                println!(
                    "recovered schedule: {} ops over {} layers, exec time {}, devices {:?} (quarantined d{device} unused: {})",
                    plan.assay.len(),
                    plan.schedule.layers.len(),
                    plan.schedule.exec_time(&plan.assay),
                    plan.devices_used(),
                    !plan.uses_quarantined()
                );
            }
            Err(e) => println!("recovery infeasible from the start boundary: {e}"),
        }
    }

    // One narrated fault-injected run with recovery.
    if json {
        let stats = if n > 0 {
            let faults = FaultModel {
                forced_failures: Vec::new(),
                ..faults
            };
            trials::survivability_trials(
                &assay, schedule, model, &faults, &policy, &config, n, pad_factor, latency,
            )?
        } else {
            Vec::new()
        };
        let mut out = mfhls::svc::api::survival_stats_json(assay.name(), &stats);
        if let mfhls::svc::Json::Object(entries) = &mut out {
            entries.insert(
                3,
                (
                    "baseline_makespan".to_owned(),
                    mfhls::svc::Json::Int(base.makespan as i64),
                ),
            );
        }
        finish_trace_quietly(&trace, true)?;
        println!("{out}");
        return Ok(());
    }
    let run = run_with_recovery(&assay, schedule, &cfg, &faults, &policy, &config)?;
    if faults.is_none() {
        println!(
            "\nfault-free run: makespan {}m ({} baseline — {})",
            run.makespan,
            if run.makespan == base.makespan {
                "=="
            } else {
                "!="
            },
            if run.makespan == base.makespan {
                "reproduces simulate_hybrid exactly"
            } else {
                "MISMATCH, please report"
            }
        );
    } else {
        println!("\nfault-injected run (seed {seed}):");
        for ev in &run.fault_events {
            println!("  {ev:?}");
        }
        match &run.outcome {
            RunOutcome::Completed => println!(
                "  completed all {} ops in {}m after {} re-synthesis(es)",
                run.completed.len(),
                run.makespan,
                run.resyntheses
            ),
            RunOutcome::Degraded(d) => println!("  {d}"),
        }
    }

    // Monte-Carlo survivability comparison across policies. Forced
    // failures are a single-run demo feature; the trials compare the
    // policies under the stochastic fault process only.
    if n > 0 {
        let faults = FaultModel {
            forced_failures: Vec::new(),
            ..faults
        };
        println!(
            "\nsurvivability over {n} seeded trials (device failure {:.1}%, op abort {:.1}%, \
             degradation {:.1}%, path blockage {:.1}%):",
            faults.device_failure * 100.0,
            faults.op_abort * 100.0,
            faults.accessory_degradation * 100.0,
            faults.path_blockage * 100.0
        );
        let stats = trials::survivability_trials(
            &assay, schedule, model, &faults, &policy, &config, n, pad_factor, latency,
        )?;
        for st in &stats {
            println!("  {st}");
        }
    }
    finish_trace(&trace)?;
    Ok(())
}

const EXPORT_LP_FLAGS: &[(&str, bool)] = &[("--layer", true), ("--out", true)];

fn export_lp(args: &[String]) -> Result<(), CliError> {
    check_flags("export-lp", args, 1, &[CONFIG_FLAGS, EXPORT_LP_FLAGS])?;
    let (assay, flags) = load_assay(args)?;
    let layer_idx = flags.parsed("--layer", 0usize)?;
    let config = config_from(&flags)?;
    let layering = mfhls::layer_assay(&assay, config.indeterminate_threshold)?;
    if layer_idx >= layering.num_layers() {
        return Err(format!(
            "layer {layer_idx} out of range (assay has {} layers)",
            layering.num_layers()
        )
        .into());
    }
    let transport = mfhls::core::TransportTimes::initial(&assay, &config.transport);
    let problem = mfhls::core::LayerProblem {
        assay: &assay,
        ops: layering.layers()[layer_idx].clone(),
        devices: vec![],
        bindable: vec![],
        max_devices: config.max_devices,
        transport: &transport,
        weights: config.weights,
        costs: &config.costs,
        existing_paths: Default::default(),
        cross_inputs: vec![],
        component_oriented: true,
    };
    let text = ilp_model::export_lp(&problem);
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!("LP model for layer {layer_idx} written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

const GRAPH_FLAGS: &[(&str, bool)] = &[("--layers", false), ("--threshold", true), ("--out", true)];

fn graph(args: &[String]) -> Result<(), CliError> {
    check_flags("graph", args, 1, &[GRAPH_FLAGS])?;
    let (assay, flags) = load_assay(args)?;
    let layering = if flags.has("--layers") {
        Some(mfhls::layer_assay(
            &assay,
            flags.parsed("--threshold", 10usize)?,
        )?)
    } else {
        None
    };
    let text = render::dot(&assay, layering.as_ref());
    match flags.value("--out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!("DOT graph written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Validates a JSONL trace produced by `--trace` (schema `mfhls-obs/v1`).
fn trace_check(args: &[String]) -> Result<(), CliError> {
    check_flags("trace-check", args, 1, &[])?;
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("expected a trace file path".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let n = mfhls::obs::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("OK: {path} is a valid mfhls-obs/v1 trace ({n} records)");
    Ok(())
}

const SERVE_FLAGS: &[(&str, bool)] = &[
    ("--workers", true),
    ("--shards", true),
    ("--window", true),
    ("--queue", true),
    ("--cache-entries", true),
    ("--max-ops", true),
    ("--no-shared-cache", false),
    ("--no-delta-cache", false),
    ("--store", true),
    ("--tcp", true),
    ("--once", false),
];

/// Upper sanity bound on `--shards`/`--window`/`--queue`: values past
/// this are far beyond any useful setting on one machine and almost
/// certainly a typo (e.g. a byte size pasted into the wrong flag).
const SERVE_ABSURD: usize = 65_536;

/// Runs the `mfhls-svc` batched synthesis service. NDJSON requests come
/// from stdin (responses on stdout) or, with `--tcp ADDR`, from local TCP
/// connections served one at a time. The lifetime summary goes to stderr
/// so stdout stays protocol-clean.
fn serve(args: &[String]) -> Result<(), CliError> {
    check_flags("serve", args, 0, &[SERVE_FLAGS, TRACE_FLAGS])?;
    let flags = Flags { args };
    let trace = trace_opts(&flags)?;
    let defaults = mfhls::svc::ServiceConfig::default();
    // Zero or absurd values on the serve-plane sizing flags are always a
    // mistake; fail at parse time naming the flag rather than spinning up
    // a degenerate service.
    let bounded = |flag: &str, value: usize| -> Result<usize, CliError> {
        if value == 0 {
            return Err(format!("flag '{flag}' of 'mfhls serve' wants at least 1").into());
        }
        if value > SERVE_ABSURD {
            return Err(format!(
                "flag '{flag}' of 'mfhls serve' wants at most {SERVE_ABSURD} (got {value})"
            )
            .into());
        }
        Ok(value)
    };
    let queue_capacity = bounded("--queue", flags.parsed("--queue", defaults.queue_capacity)?)?;
    let shards = bounded("--shards", flags.parsed("--shards", defaults.shards)?)?;
    let pipeline_windows = bounded(
        "--window",
        flags.parsed("--window", defaults.pipeline_windows)?,
    )?;
    let max_ops = flags.parsed("--max-ops", defaults.max_ops)?;
    if max_ops == 0 {
        return Err("--max-ops wants at least 1".into());
    }
    let config = mfhls::svc::ServiceConfig {
        workers: flags.parsed("--workers", defaults.workers)?,
        queue_capacity,
        cache_entries: flags.parsed("--cache-entries", defaults.cache_entries)?,
        shared_cache: !flags.has("--no-shared-cache"),
        delta_cache: !flags.has("--no-delta-cache"),
        max_ops,
        shards,
        pipeline_windows,
    };
    let service = match flags.value("--store") {
        Some(dir) => {
            if flags.has("--no-shared-cache") {
                return Err("--store needs the shared cache; drop --no-shared-cache".into());
            }
            let store = mfhls::store::SolutionStore::open(
                std::path::Path::new(dir),
                mfhls::store::StoreConfig::default(),
                std::sync::Arc::new(mfhls::store::RealIo),
            );
            let stats = store.stats();
            eprintln!("mfhls serve: store {dir}: {stats}");
            mfhls::svc::SynthesisService::with_store(config, std::sync::Arc::new(store))
        }
        None => mfhls::svc::SynthesisService::new(config),
    };
    start_trace(&trace);
    let summary = match flags.value("--tcp") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            eprintln!("mfhls serve: listening on {}", listener.local_addr()?);
            service.serve_listener(&listener, flags.has("--once"))?
        }
        None => {
            // stdout() rather than stdout().lock(): the pipelined serve
            // plane moves the writer onto its write stage, so it must be
            // Send (StdoutLock is not). Stdout locks per write anyway.
            let stdin = std::io::stdin();
            service.serve(stdin.lock(), std::io::stdout())?
        }
    };
    finish_trace_quietly(&trace, true)?;
    eprintln!("mfhls serve: {summary}");
    Ok(())
}

fn bench(args: &[String]) -> Result<(), CliError> {
    check_flags("bench", args, 0, &[])?;
    println!("Running the Table 2 benchmark cases (see mfhls-bench for the full harness):\n");
    for (case, tag, assay) in mfhls::assays::benchmarks() {
        let ours = Synthesizer::new(SynthConfig::default()).run(&assay)?;
        let conv = mfhls::core::conventional::run(&assay, SynthConfig::default())?;
        println!(
            "case {case} {tag} ({} ops): ours {} D{} P{} | conv {} D{} P{}",
            assay.len(),
            ours.schedule.exec_time(&assay),
            ours.schedule.used_device_count(),
            ours.schedule.path_count(),
            conv.schedule.exec_time(&assay),
            conv.schedule.used_device_count(),
            conv.schedule.path_count(),
        );
    }
    Ok(())
}

const GEN_FLAGS: &[(&str, bool)] = &[
    ("--seed", true),
    ("--count", true),
    ("--profile", true),
    ("--format", true),
    ("--out", true),
    ("--check", false),
    ("--threads", true),
];

/// `mfhls gen`: the seeded assay generator and metamorphic check harness
/// of `mfhls-bench::gen`. Pure function of `(--profile, --seed)` — output
/// is byte-identical across runs, machines, and thread counts.
fn gen(args: &[String]) -> Result<(), CliError> {
    use mfhls::bench::gen::{check, generate, Profile};

    check_flags("gen", args, 0, &[GEN_FLAGS])?;
    let flags = Flags { args };
    if let Some(n) = flags.value("--threads") {
        let n: usize = n
            .parse()
            .map_err(|e| format!("invalid value for --threads: {e}"))?;
        if n == 0 {
            return Err("--threads wants at least 1".into());
        }
        mfhls::par::set_default_threads(Some(n));
    }
    let seed: u64 = flags.parsed("--seed", 0)?;
    let count: u64 = flags.parsed("--count", 1)?;
    if count == 0 {
        return Err("flag '--count' of 'mfhls gen' wants at least 1".into());
    }
    let profiles: Vec<Profile> = match flags.value("--profile").unwrap_or("mixed") {
        "all" => Profile::ALL.to_vec(),
        p => vec![Profile::parse(p).ok_or_else(|| {
            let known: Vec<&str> = Profile::ALL.iter().map(|q| q.name()).collect();
            format!(
                "unknown profile '{p}' (expected one of: {}, all)",
                known.join(", ")
            )
        })?],
    };
    let format = flags.value("--format").unwrap_or("netlist");
    if !matches!(format, "netlist" | "dsl") {
        return Err(format!("unknown format '{format}' (expected dsl|netlist)").into());
    }
    let out_dir = flags.value("--out");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }

    if flags.has("--check") {
        // Checks are pure functions of (profile, seed): fan them out over
        // the worker pool (honouring --threads / MFHLS_THREADS like every
        // other subcommand) and print in case order, so the output is
        // byte-identical at any thread count.
        let case_list: Vec<(Profile, u64)> = (seed..seed.saturating_add(count))
            .flat_map(|s| profiles.iter().map(move |&p| (p, s)))
            .collect();
        let outcomes = mfhls::par::par_map(&case_list, |&(profile, s)| check(profile, s));
        let mut failures = 0usize;
        for outcome in &outcomes {
            if outcome.passed() {
                println!(
                    "ok   {} ops={} edges={} exec={}",
                    outcome.name,
                    outcome.ops,
                    outcome.edges,
                    outcome.exec.as_deref().unwrap_or("-")
                );
            } else {
                failures += 1;
                println!("FAIL {}:", outcome.name);
                for v in &outcome.violations {
                    println!("  - {v}");
                }
            }
        }
        println!("{} checked, {failures} failed", outcomes.len());
        if failures > 0 {
            return Err(
                format!("{failures} of {} metamorphic checks failed", outcomes.len()).into(),
            );
        }
        return Ok(());
    }

    for s in seed..seed.saturating_add(count) {
        for &profile in &profiles {
            let assay = generate(profile, s);
            let (ext, doc) = match format {
                "dsl" => ("mfa", mfhls::dsl::to_text(&assay)),
                _ => ("json", export::netlist_json(&assay) + "\n"),
            };
            match out_dir {
                Some(dir) => {
                    let path = format!("{dir}/{}.{ext}", assay.name());
                    std::fs::write(&path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
                }
                None => print!("{doc}"),
            }
        }
    }
    if let Some(dir) = out_dir {
        eprintln!("wrote {} assays to {dir}", count as usize * profiles.len());
    }
    Ok(())
}
