//! The replays time the same work the program does: the first-pass
//! replay places every operation where `Synthesizer::run` does, and the
//! stage replay writes the bytes the service writes.

use mfbench::load::{self, Expected, Line};
use mfbench::serve::StageReplay;
use mfbench::spans::Spans;
use mfbench::synth::{replay_pass1, result_slots};
use mfhls_core::{SynthConfig, Synthesizer};
use mfhls_svc::{ServiceConfig, SynthesisService};

/// A single pass with no layer cache: exactly the work the replay redoes.
fn first_pass(portfolio: bool) -> SynthConfig {
    let mut builder = SynthConfig::builder().max_iterations(1).layer_cache(false);
    if portfolio {
        builder = builder.solver(mfbench::synth::portfolio_solver());
    }
    builder.build().expect("valid configuration")
}

#[test]
fn pass1_replay_matches_a_single_pass_run_on_every_paper_case() {
    for (case, _, assay) in mfhls_assays::benchmarks() {
        let config = first_pass(false);
        let run = Synthesizer::new(config.clone())
            .run(&assay)
            .expect("paper cases synthesize");
        let mut spans = Spans::new();
        let replay = replay_pass1(&assay, &config, &mut spans).expect("replay succeeds");
        assert_eq!(replay.layers, result_slots(&run), "case {case}");
        assert_eq!(replay.counts.layers, run.layering.num_layers() as u64);
        assert_eq!(spans.calls("core.heuristic"), replay.counts.layers);
        assert_eq!(spans.calls("core.layering"), 1);
    }
}

#[test]
fn pass1_replay_follows_the_portfolio_race() {
    let (_, _, assay) = mfhls_assays::benchmarks().remove(0);
    let config = first_pass(true);
    let run = Synthesizer::new(config.clone())
        .run(&assay)
        .expect("case 1 synthesizes");
    let mut spans = Spans::new();
    let replay = replay_pass1(&assay, &config, &mut spans).expect("replay succeeds");
    assert_eq!(replay.layers, result_slots(&run));
    let races: u64 = run
        .iterations
        .iter()
        .map(|it| it.solver.portfolio_races)
        .sum();
    let ilp_wins: u64 = run.iterations.iter().map(|it| it.solver.wins_ilp).sum();
    assert_eq!(replay.counts.layers, races);
    assert_eq!(replay.counts.ilp_adopted, ilp_wins);
    assert_eq!(spans.calls("core.sdc_model"), races);
}

/// One window mixing every arm: duplicates (one repeated, so the delta
/// cache answers it), near-duplicates, parse errors, an oversized assay
/// and a generated netlist assay.
fn mixed_window() -> Vec<Line> {
    let replay = load::replay_stream(5, 400, load::REPLAY_MIX);
    let mut lines: Vec<Line> = Vec::new();
    for arm in [load::Arm::Dup, load::Arm::NearDup, load::Arm::ParseError] {
        lines.extend(replay.iter().filter(|l| l.arm == arm).take(3).cloned());
    }
    lines.push(lines[0].clone());
    let unique = load::unique_stream(5, 120);
    lines.extend(
        unique
            .iter()
            .find(|l| l.arm == load::Arm::Oversized)
            .cloned(),
    );
    lines.extend(unique.iter().find(|l| l.arm == load::Arm::Unique).cloned());
    lines
}

#[test]
fn stage_replay_reproduces_the_service_bytes_for_a_mixed_window() {
    let lines = mixed_window();
    let mut input = String::new();
    for line in &lines {
        input.push_str(&line.text);
        input.push('\n');
    }
    let service = SynthesisService::new(ServiceConfig::default());
    let mut served = Vec::new();
    service
        .serve(std::io::BufReader::new(input.as_bytes()), &mut served)
        .expect("in-memory serve cannot fail");

    let mut replay = StageReplay::new(&ServiceConfig::default());
    let mut spans = Spans::new();
    let outputs: Vec<String> = lines
        .iter()
        .map(|l| replay.line(&l.text, &mut spans))
        .collect();
    // The service answers rejections as it reads them, ahead of the
    // window's solved responses.
    let mut expected = String::new();
    for pass_rejected in [true, false] {
        for (line, out) in lines.iter().zip(&outputs) {
            if (line.expected != Expected::Ok) == pass_rejected {
                expected.push_str(out);
                expected.push('\n');
            }
        }
    }
    assert_eq!(String::from_utf8(served).unwrap(), expected);
    assert_eq!(spans.calls("svc.api.parse"), lines.len() as u64);
    assert_eq!(replay.counts.resolve_rejected, 1);
    assert!(replay.counts.parse_failed >= 1);
    assert!(replay.counts.delta_hits >= 1);
}
