//! The metamorphic test harness over seeded generated assays.
//!
//! Every case comes from `mfhls_bench::gen::generate(profile, seed)` — a
//! pure function of its arguments — and is judged by oracles that need no
//! golden outputs (see `mfhls_bench::gen::check` for the full battery):
//! schedule validity, rename/permutation invariance, cache purity,
//! proven-optimal ILP dominance, and export round-trip fixed points.
//!
//! `MFHLS_METAMORPHIC_SEEDS` scales the per-profile seed range (CI runs
//! 50 × 10 profiles = 500 cases; the default keeps plain `cargo test`
//! fast). The serve-plane oracle below additionally pushes generated
//! assays through the `mfhls-svc` service as both DSL and netlist
//! sources, with every cache on and off, asserting byte-identical
//! responses.

use mfhls::bench::gen::{self, Profile};
use mfhls::core::export;
use mfhls::svc::{Json, ServiceConfig, ServiceSummary, SynthesisService, VERSION};
use std::io::BufReader;

fn seeds_per_profile() -> u64 {
    std::env::var("MFHLS_METAMORPHIC_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

#[test]
fn metamorphic_battery_over_seeded_assays() {
    let per_profile = seeds_per_profile();
    let cases: Vec<(Profile, u64)> = Profile::ALL
        .into_iter()
        .flat_map(|p| (0..per_profile).map(move |s| (p, s)))
        .collect();
    // Each check is a pure function of (profile, seed); fan out over the
    // deterministic worker pool (MFHLS_THREADS) and report in case order.
    let failures: Vec<String> = mfhls::par::par_map(&cases, |&(profile, seed)| {
        let outcome = gen::check(profile, seed);
        (!outcome.passed()).then(|| {
            format!(
                "{} (ops={}): {}",
                outcome.name,
                outcome.ops,
                outcome.violations.join("; ")
            )
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases violated an oracle:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

/// Satellite regression for the DSL escaping / duplicate-name fixes: the
/// three paper bioassays plus a 64-assay seeded corpus (which includes
/// hostile names — quotes, backslashes, newlines, tabs, duplicates) must
/// round-trip through both interchange formats as byte fixed points.
#[test]
fn exports_round_trip_on_bioassays_and_generated_corpus() {
    let mut cases: Vec<(String, mfhls::Assay)> = mfhls::assays::benchmarks()
        .into_iter()
        .map(|(scale, tag, a)| (format!("{tag}-{scale}"), a))
        .collect();
    assert_eq!(cases.len(), 3, "the paper has three benchmark bioassays");
    for seed in 0..48 {
        let a = gen::generate(Profile::Mixed, seed);
        cases.push((a.name().to_owned(), a));
    }
    for seed in 0..16 {
        let a = gen::generate(Profile::Adversarial, seed);
        cases.push((a.name().to_owned(), a));
    }
    for (tag, assay) in &cases {
        // DSL: export → parse → export is the identity on the text.
        let text = mfhls::dsl::to_text(assay);
        let reparsed = mfhls::dsl::parse(&text)
            .unwrap_or_else(|e| panic!("{tag}: exported DSL rejected: {e}"));
        assert_eq!(
            mfhls::dsl::to_text(&reparsed),
            text,
            "{tag}: DSL fixed point"
        );
        assert_eq!(reparsed.len(), assay.len(), "{tag}: op count");

        // Netlist: export → service import → export is the identity on
        // the bytes.
        let netlist = export::netlist_json(assay);
        let value = Json::parse(&netlist)
            .unwrap_or_else(|e| panic!("{tag}: netlist export is invalid JSON: {e}"));
        let imported = mfhls::svc::assay_from_json(&value, assay.len().max(1))
            .unwrap_or_else(|e| panic!("{tag}: netlist export rejected on import: {e}"));
        assert_eq!(
            export::netlist_json(&imported),
            netlist,
            "{tag}: netlist fixed point"
        );
    }
}

fn serve(config: ServiceConfig, input: &str) -> (String, ServiceSummary) {
    let service = SynthesisService::new(config);
    let mut out = Vec::new();
    let summary = service
        .serve(BufReader::new(input.as_bytes()), &mut out)
        .expect("in-memory serve cannot fail");
    (
        String::from_utf8(out).expect("responses are UTF-8"),
        summary,
    )
}

/// The serve-plane cache oracle: one window of generated assays, half
/// submitted as inline DSL and half as `mfhls-netlist/v1` sources, must
/// produce byte-identical NDJSON with the delta cache on or off.
#[test]
fn serve_plane_is_cache_oblivious_over_generated_assays() {
    let mut input = String::new();
    let mut expected = 0u64;
    for profile in [
        Profile::Tiny,
        Profile::Small,
        Profile::IndeterminateHeavy,
        Profile::Adversarial,
    ] {
        for seed in 0..8u64 {
            let assay = gen::generate(profile, seed);
            let source = if seed % 2 == 0 {
                let netlist = export::netlist_json(&assay);
                (
                    "netlist".to_owned(),
                    Json::parse(&netlist).expect("netlist export is valid JSON"),
                )
            } else {
                ("dsl".to_owned(), Json::Str(mfhls::dsl::to_text(&assay)))
            };
            let request = Json::Object(vec![
                ("version".to_owned(), Json::Str(VERSION.to_owned())),
                ("type".to_owned(), Json::Str("synthesize".to_owned())),
                ("id".to_owned(), Json::Str(format!("{profile}-{seed}"))),
                ("assay".to_owned(), Json::Object(vec![source])),
            ]);
            let mut line = String::new();
            request.write(&mut line);
            input.push_str(&line);
            input.push('\n');
            expected += 1;
        }
    }

    let cached = serve(ServiceConfig::default(), &input);
    let uncached = serve(
        ServiceConfig {
            delta_cache: false,
            ..ServiceConfig::default()
        },
        &input,
    );
    assert_eq!(
        cached.0, uncached.0,
        "cache-on and cache-off responses must be byte-identical"
    );
    assert_eq!(cached.1.solved, expected, "every generated assay solves");
    assert_eq!(uncached.1.solved, expected);
    assert_eq!(cached.1.rejected, 0);
}

/// The committed corpus under `bench/corpus/` is a pure function of the
/// pinned command in its README (`mfhls gen --seed 1 --count 2 --profile
/// all --format netlist --out bench/corpus`). Anyone changing the
/// generator's distribution must regenerate it; this test fails until the
/// committed bytes match again.
#[test]
fn committed_corpus_matches_the_generator() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/corpus");
    let mut checked = 0usize;
    for profile in Profile::ALL {
        for seed in [1u64, 2] {
            let assay = gen::generate(profile, seed);
            let path = format!("{dir}/{}.json", assay.name());
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{path}: corpus file missing ({e}) — regenerate"));
            assert_eq!(
                committed,
                export::netlist_json(&assay) + "\n",
                "{path}: committed corpus is stale — regenerate with the README command"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 20, "two seeds of every profile are committed");
}

/// `mfhls gen` determinism: the same `(profile, seed)` renders the same
/// bytes in both formats, across repeated calls and for every profile.
#[test]
fn generation_is_byte_deterministic() {
    for profile in Profile::ALL {
        for seed in [0u64, 1, 99, u64::MAX] {
            let a = gen::generate(profile, seed);
            let b = gen::generate(profile, seed);
            assert_eq!(
                export::netlist_json(&a),
                export::netlist_json(&b),
                "{profile}/{seed}: netlist"
            );
            assert_eq!(
                mfhls::dsl::to_text(&a),
                mfhls::dsl::to_text(&b),
                "{profile}/{seed}: dsl"
            );
        }
    }
}
