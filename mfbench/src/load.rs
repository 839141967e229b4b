//! Seeded NDJSON request streams for the serving workloads.
//!
//! Two generators, both pure functions of their seed:
//!
//! * [`replay_stream`] follows `serve_load`'s composition — exact
//!   duplicates from a small fixed pool, near-duplicates (re-labelled,
//!   op-renamed and op-permuted variants), parse errors and oversized
//!   assays — in proportions set by a [`Mix`]. The pool is fixed, so
//!   every seed sends the same few distinct assays in another order;
//!   [`replay_pool`] lists each of them once.
//! * [`unique_stream`] sends a distinct generated assay on every line, as
//!   an inline `mfhls-netlist/v1` object, plus a fixed share of oversized
//!   requests.
//!
//! Every line carries the outcome the service must give it, so the
//! benchmark can count each response that differs as a failed operation.

use mfhls_bench::gen::{generate, Profile};
use mfhls_core::export::netlist_json;
use mfhls_graph::rng::SplitMix64;
use mfhls_svc::{ErrorKind, Json};

/// The outcome a request line must draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// A synthesis response with `"status":"ok"`.
    Ok,
    /// An error response rejected while the line is read, before its
    /// window is solved; such responses precede the window's solved
    /// responses in the output.
    Rejected(ErrorKind),
}

/// Which arm of a [`Mix`] produced a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// An exact duplicate of a pool request.
    Dup,
    /// A near-duplicate of a pool request.
    NearDup,
    /// A line the service cannot parse.
    ParseError,
    /// An assay past the admission bound on operations.
    Oversized,
    /// A distinct generated assay.
    Unique,
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The NDJSON line, without its newline.
    pub text: String,
    /// The arm that produced it.
    pub arm: Arm,
    /// The outcome the service must give it.
    pub expected: Expected,
}

/// Workload composition as whole percentages summing to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Exact duplicates of pool requests.
    pub dup: u32,
    /// Near-duplicates of pool requests.
    pub neardup: u32,
    /// Parse errors.
    pub err: u32,
    /// Oversized assays rejected at admission.
    pub oversized: u32,
}

/// The `serve-replay` composition: duplicate-heavy, no oversized arm.
pub const REPLAY_MIX: Mix = Mix {
    dup: 45,
    neardup: 50,
    err: 5,
    oversized: 0,
};

/// Share of `unique_stream` lines that are oversized, in percent.
const UNIQUE_OVERSIZED_PCT: usize = 1;

/// The profiles `unique_stream` cycles through, one per line.
const UNIQUE_PROFILES: [Profile; 6] = [
    Profile::Small,
    Profile::Medium,
    Profile::Large,
    Profile::DeepChain,
    Profile::IndeterminateHeavy,
    Profile::WideFanout,
];

/// Device budget requested for the profiles that can exhaust the default
/// budget of 25 (about 1 seed in 300 does); no sampled seed exhausts 40.
const ROOMY_DEVICES: u64 = 40;

/// The (ops, fan) shapes of the inline-DSL pool assays: a chain of `ops`
/// operations, the last `fan` of which hang off the first operation.
/// Near-duplicate variants are cut from the same list so their shapes
/// (and per-layer structures) match something the pool already solved.
const DSL_SHAPES: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (3, 3)];

/// The named benchmark assays of the pool, with their scales.
const BENCH_POOL: &[(&str, i64)] = &[
    ("kinase", 1),
    ("kinase", 2),
    ("gene", 4),
    ("cell-culture", 2),
];

/// `requests` lines of the replay workload, composed per `mix`.
pub fn replay_stream(seed: u64, requests: usize, mix: Mix) -> Vec<Line> {
    assert_eq!(
        mix.dup + mix.neardup + mix.err + mix.oversized,
        100,
        "mix percentages must sum to 100"
    );
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x7265_706c);
    let pool = base_pool();
    (0..requests)
        .map(|k| {
            let roll = rng.next_f64() * 100.0;
            if roll < f64::from(mix.dup) {
                let text = pool[rng.gen_index(0, pool.len())].clone();
                ok_line(text, Arm::Dup)
            } else if roll < f64::from(mix.dup + mix.neardup) {
                ok_line(neardup_line(k, &pool, &mut rng), Arm::NearDup)
            } else if roll < f64::from(mix.dup + mix.neardup + mix.err) {
                parse_error_line(k, &mut rng)
            } else {
                oversized_line(k)
            }
        })
        .collect()
}

/// Every distinct assay [`replay_stream`] can send, once each, under
/// fresh ids: the pool, each op-renamed chain and each op-permuted chain.
pub fn replay_pool() -> Vec<Line> {
    let mut lines: Vec<Line> = base_pool()
        .into_iter()
        .map(|text| ok_line(text, Arm::Dup))
        .collect();
    for (k, &(ops, fan)) in DSL_SHAPES.iter().enumerate() {
        lines.push(ok_line(
            dsl_request(&format!("warm-ren{k}"), &dsl_chain(ops, fan, "q", 0)),
            Arm::NearDup,
        ));
        for rotate in 1..rotatable(ops, fan) {
            lines.push(ok_line(
                dsl_request(
                    &format!("warm-perm{k}-{rotate}"),
                    &dsl_chain(ops, fan, "p", rotate),
                ),
                Arm::NearDup,
            ));
        }
    }
    lines
}

/// `requests` lines of the unique workload: each line carries a fresh
/// assay, its profile cycling through `small`, `medium`, `large`,
/// `deep-chain`, `indeterminate-heavy` and `wide-fanout`, except the
/// last line of every hundred, which is oversized. The fixed position
/// keeps the requests sharing a window with the oversized ones the same
/// profiles for every seed, so the latency tail they set does not
/// depend on the seed.
pub fn unique_stream(seed: u64, requests: usize) -> Vec<Line> {
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x756e_6971);
    let period = 100 / UNIQUE_OVERSIZED_PCT;
    let mut profile_slot = 0;
    (0..requests)
        .map(|k| {
            if k % period == period - 1 {
                return oversized_line(k);
            }
            let profile = UNIQUE_PROFILES[profile_slot % UNIQUE_PROFILES.len()];
            profile_slot += 1;
            let assay = generate(profile, rng.next_u64());
            let config = if matches!(profile, Profile::Large | Profile::WideFanout) {
                format!(",\"config\":{{\"max_devices\":{ROOMY_DEVICES}}}")
            } else {
                String::new()
            };
            let text = format!(
                "{{\"version\":\"mfhls-api/v1\",\"type\":\"synthesize\",\"id\":\"u{k}\",\
                 \"assay\":{{\"netlist\":{}}}{config}}}",
                netlist_json(&assay)
            );
            ok_line(text, Arm::Unique)
        })
        .collect()
}

fn ok_line(text: String, arm: Arm) -> Line {
    Line {
        text,
        arm,
        expected: Expected::Ok,
    }
}

/// Malformed framing the admitter must reject without disturbing the
/// rest of the window.
fn parse_error_line(k: usize, rng: &mut SplitMix64) -> Line {
    let (text, kind) = match rng.gen_index(0, 3) {
        0 => (
            format!("not json at all ({k})"),
            ErrorKind::MalformedRequest,
        ),
        1 => (
            r#"{"version":"mfhls-api/v1","type":"synthesize","#.to_owned(),
            ErrorKind::MalformedRequest,
        ),
        _ => (
            format!(r#"{{"version":"mfhls-api/v0","type":"synthesize","id":"old{k}"}}"#),
            ErrorKind::UnsupportedVersion,
        ),
    };
    Line {
        text,
        arm: Arm::ParseError,
        expected: Expected::Rejected(kind),
    }
}

/// A benchmark instantiation past the admission `max_ops` bound.
fn oversized_line(k: usize) -> Line {
    Line {
        text: format!(
            r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"big{k}","assay":{{"benchmark":"rtqpcr","scale":200}}}}"#
        ),
        arm: Arm::Oversized,
        expected: Expected::Rejected(ErrorKind::ParseError),
    }
}

/// The distinct requests duplicates are drawn from: small inline-DSL
/// chains and fans plus the named benchmark assays at small scales.
fn base_pool() -> Vec<String> {
    let mut pool: Vec<String> = DSL_SHAPES
        .iter()
        .enumerate()
        .map(|(k, &(ops, fan))| dsl_request(&format!("dsl{k}"), &dsl_chain(ops, fan, "p", 0)))
        .collect();
    for (k, &(name, scale)) in BENCH_POOL.iter().enumerate() {
        pool.push(request_line(
            &format!("bench{k}"),
            Json::Object(vec![
                ("benchmark".to_owned(), Json::Str(name.to_owned())),
                ("scale".to_owned(), Json::Int(scale)),
            ]),
        ));
    }
    pool
}

/// Fan operations of a `(ops, fan)` chain whose declaration order can
/// rotate: op 0 is always the root, so the set starts at index 1 or
/// later.
fn rotatable(ops: usize, fan: usize) -> usize {
    ops - (ops - fan).max(1)
}

/// A small deterministic DSL assay: a chain of `ops` operations, the
/// last `fan` of which hang off the first operation instead.
///
/// `prefix` renames every operation (a renamed chain differs on the wire
/// but not in structure: the delta cache's case). `rotate` shifts the
/// declaration order of the independent fan operations: the graph is
/// unchanged but operations get other ids, so exact layer keys differ
/// while the canonical keys still match (the canonical index's case).
fn dsl_chain(ops: usize, fan: usize, prefix: &str, rotate: usize) -> String {
    let mut s = String::from("assay \"load\"\n");
    let op_line = |k: usize| {
        let dur = 2 + (k * 3) % 7;
        if k == 0 {
            format!("op {prefix}0 {{ duration: {dur}m }}\n")
        } else if k + fan >= ops {
            format!("op {prefix}{k} {{ duration: {dur}m after: [{prefix}0] }}\n")
        } else {
            format!(
                "op {prefix}{k} {{ duration: >= {dur}m after: [{prefix}{}] }}\n",
                k - 1
            )
        }
    };
    let nfan = rotatable(ops, fan);
    let first_fan = ops - nfan;
    for k in 0..first_fan {
        s.push_str(&op_line(k));
    }
    for j in 0..nfan {
        s.push_str(&op_line(first_fan + (j + rotate) % nfan));
    }
    s
}

/// One near-duplicate request, uniformly one of three flavours:
/// re-labelled (a pool request under a fresh id), op-renamed (a pool
/// chain with every op renamed) or op-permuted (a pool chain with its fan
/// ops declared in rotated order).
fn neardup_line(k: usize, pool: &[String], rng: &mut SplitMix64) -> String {
    match rng.gen_index(0, 3) {
        0 => {
            let line = &pool[rng.gen_index(0, pool.len())];
            let v = Json::parse(line).expect("pool lines are valid JSON");
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .expect("pool lines carry ids");
            let assay = v.get("assay").expect("pool lines carry assays").clone();
            request_line(&format!("{id}-dup{k}"), assay)
        }
        1 => {
            let (ops, fan) = DSL_SHAPES[rng.gen_index(0, DSL_SHAPES.len())];
            dsl_request(&format!("ren{k}"), &dsl_chain(ops, fan, "q", 0))
        }
        _ => {
            let wide: Vec<(usize, usize)> = DSL_SHAPES
                .iter()
                .copied()
                .filter(|&(ops, fan)| rotatable(ops, fan) >= 2)
                .collect();
            let (ops, fan) = wide[rng.gen_index(0, wide.len())];
            let rotate = 1 + rng.gen_index(0, rotatable(ops, fan) - 1);
            dsl_request(&format!("perm{k}"), &dsl_chain(ops, fan, "p", rotate))
        }
    }
}

fn dsl_request(id: &str, dsl: &str) -> String {
    request_line(
        id,
        Json::Object(vec![("dsl".to_owned(), Json::Str(dsl.to_owned()))]),
    )
}

fn request_line(id: &str, assay: Json) -> String {
    let v = Json::Object(vec![
        ("version".to_owned(), Json::Str("mfhls-api/v1".to_owned())),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("assay".to_owned(), assay),
    ]);
    let mut out = String::new();
    v.write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfhls_core::AssayShape;
    use mfhls_svc::{parse_incoming, Incoming};
    use std::collections::BTreeSet;

    fn joined(lines: &[Line]) -> String {
        lines.iter().map(|l| format!("{}\n", l.text)).collect()
    }

    #[test]
    fn streams_are_byte_identical_per_seed() {
        assert_eq!(
            joined(&replay_stream(7, 500, REPLAY_MIX)),
            joined(&replay_stream(7, 500, REPLAY_MIX))
        );
        assert_ne!(
            joined(&replay_stream(7, 500, REPLAY_MIX)),
            joined(&replay_stream(8, 500, REPLAY_MIX))
        );
        assert_eq!(joined(&unique_stream(7, 60)), joined(&unique_stream(7, 60)));
        assert_ne!(joined(&unique_stream(7, 60)), joined(&unique_stream(8, 60)));
    }

    #[test]
    fn replay_arms_follow_the_mix() {
        let lines = replay_stream(crate::DEFAULT_SEED, 20_000, REPLAY_MIX);
        let pct = |arm: Arm| {
            100.0 * lines.iter().filter(|l| l.arm == arm).count() as f64 / lines.len() as f64
        };
        for (arm, want) in [
            (Arm::Dup, REPLAY_MIX.dup),
            (Arm::NearDup, REPLAY_MIX.neardup),
            (Arm::ParseError, REPLAY_MIX.err),
            (Arm::Oversized, REPLAY_MIX.oversized),
        ] {
            let got = pct(arm);
            assert!(
                (got - f64::from(want)).abs() <= 1.0,
                "{arm:?}: {got:.2}% vs {want}%"
            );
        }
        let mixed = Mix {
            dup: 40,
            neardup: 50,
            err: 8,
            oversized: 2,
        };
        let lines = replay_stream(crate::DEFAULT_SEED, 20_000, mixed);
        let oversized = lines.iter().filter(|l| l.arm == Arm::Oversized).count();
        assert!((oversized as f64 / 200.0 - 2.0).abs() <= 1.0);
    }

    #[test]
    fn unique_arms_hold_their_shares() {
        let lines = unique_stream(crate::DEFAULT_SEED, 1_000);
        let oversized = lines.iter().filter(|l| l.arm == Arm::Oversized).count();
        assert_eq!(oversized, 1_000 * UNIQUE_OVERSIZED_PCT / 100);
        assert!(lines
            .iter()
            .all(|l| (l.arm == Arm::Oversized) == (l.expected != Expected::Ok)));
    }

    #[test]
    fn unique_assay_shapes_are_pairwise_distinct() {
        let mut seen = BTreeSet::new();
        for line in unique_stream(crate::DEFAULT_SEED, 600) {
            if line.arm != Arm::Unique {
                continue;
            }
            let Ok(Incoming::Synthesize(req)) = parse_incoming(&line.text) else {
                panic!("unique lines parse: {}", &line.text[..80]);
            };
            let assay = req.resolve_assay(512).expect("unique assays resolve");
            let config = req.resolve_config().expect("unique configs resolve");
            let shape = AssayShape::of(&assay, &config).expect("generated assays layer");
            assert!(
                seen.insert(shape.fingerprint()),
                "repeated shape at {}",
                req.id
            );
        }
        assert!(seen.len() >= 590);
    }

    #[test]
    fn the_pool_covers_every_replay_assay_and_rejection() {
        let key = |text: &str| {
            let Ok(Incoming::Synthesize(req)) = parse_incoming(text) else {
                return None;
            };
            let assay = req.resolve_assay(512).ok()?;
            let config = req.resolve_config().ok()?;
            Some(AssayShape::of(&assay, &config).ok()?.fingerprint())
        };
        let pool: BTreeSet<u64> = replay_pool().iter().filter_map(|l| key(&l.text)).collect();
        for line in replay_stream(3, 3_000, REPLAY_MIX) {
            match line.expected {
                Expected::Ok => {
                    let k = key(&line.text).expect("ok lines resolve");
                    assert!(pool.contains(&k), "{} is not in the pool", line.text);
                }
                Expected::Rejected(kind) => {
                    let got = parse_incoming(&line.text)
                        .err()
                        .map(|e| e.kind)
                        .or_else(|| key(&line.text).is_none().then_some(ErrorKind::ParseError));
                    assert_eq!(got, Some(kind), "{}", line.text);
                }
            }
        }
    }
}
