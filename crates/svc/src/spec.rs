//! Structured solver selection — one registry behind every surface.
//!
//! The CLI's `--solver` flag, the `mfhls-api/v1` `config.solver` field,
//! help text, error messages and the diagnostics echo all resolve through
//! this module, so a new backend added to [`BACKENDS`] appears everywhere
//! at once and the listed names can never drift apart.
//!
//! Two equivalent surfaces map onto [`SolverKind`]:
//!
//! * **Flag syntax** ([`parse_spec`]): `name`, `name:field=value,...`, or
//!   `portfolio:leg+leg+leg` — e.g. `sdc`, `ilp:max_nodes=20000`,
//!   `portfolio:heuristic+sdc+ilp`.
//! * **JSON** ([`spec_from_json`]): a bare string in flag syntax (the
//!   pre-0.11 compatible form), or a structured object such as
//!   `{"kind": "portfolio", "backends": [{"kind": "ilp", "max_nodes":
//!   20000}, "sdc"]}`.
//!
//! [`spec_json`] is the inverse: the fully-resolved spec (defaults filled
//! in) as a structured object, echoed in response diagnostics so clients
//! can see exactly which strategy served them.
//!
//! `hybrid` is a field-less alias kept for v1 clients: it resolves to
//! `portfolio:heuristic+ilp` and is echoed as that portfolio.

use crate::json::{obj, Json};
use mfhls_core::SolverKind;

/// One registered solver backend: its wire name and accepted fields.
#[derive(Debug, Clone, Copy)]
pub struct BackendInfo {
    /// The name used in flag syntax and the JSON `kind` field.
    pub name: &'static str,
    /// Fields accepted in `name:field=value,...` / the JSON object form.
    pub fields: &'static [&'static str],
}

/// The solver backend registry. Error messages and help text derive the
/// listed names from here — extend this table and every surface follows.
pub const BACKENDS: &[BackendInfo] = &[
    BackendInfo {
        name: "heuristic",
        fields: &["improvement_passes"],
    },
    BackendInfo {
        name: "sdc",
        fields: &["improvement_passes"],
    },
    BackendInfo {
        name: "ilp",
        fields: &["max_nodes"],
    },
    BackendInfo {
        name: "hybrid",
        fields: &[],
    },
    BackendInfo {
        name: "portfolio",
        fields: &[],
    },
];

/// What the field-less `hybrid` name resolves to: the heuristic, then an
/// exact leg bounded by its objective and the deterministic pivot-work
/// budget, adopted only on a strict improvement.
const HYBRID_ALIAS: &str = "portfolio:heuristic+ilp";

/// Node budget of an `ilp` leg *inside a portfolio*: the exact search is
/// already warm-bounded by the best cheap result (`cutoff`), so a small
/// budget keeps the race cheap while still closing most optimality gaps.
pub const PORTFOLIO_ILP_MAX_NODES: usize = 20_000;

/// `heuristic|sdc|ilp|hybrid|portfolio` — derived from [`BACKENDS`].
pub fn backend_names() -> String {
    BACKENDS
        .iter()
        .map(|b| b.name)
        .collect::<Vec<_>>()
        .join("|")
}

fn info_of(name: &str) -> Result<&'static BackendInfo, String> {
    BACKENDS
        .iter()
        .find(|b| b.name == name)
        .ok_or_else(|| format!("unknown solver '{name}' ({})", backend_names()))
}

/// The default strategy of each registered backend (what a bare name
/// resolves to).
fn default_of(name: &str) -> Result<SolverKind, String> {
    Ok(match info_of(name)?.name {
        "heuristic" => SolverKind::default(),
        "sdc" => SolverKind::Sdc {
            improvement_passes: 2,
        },
        "ilp" => SolverKind::Ilp { max_nodes: 500_000 },
        "hybrid" => return parse_spec(HYBRID_ALIAS),
        "portfolio" => SolverKind::Portfolio {
            backends: vec![
                SolverKind::Heuristic {
                    improvement_passes: 2,
                },
                SolverKind::Sdc {
                    improvement_passes: 2,
                },
                SolverKind::Ilp {
                    max_nodes: PORTFOLIO_ILP_MAX_NODES,
                },
            ],
        },
        _ => unreachable!("info_of returned an unregistered backend"),
    })
}

/// A leaf backend by name, with the defaults a portfolio leg gets (the
/// `ilp` leg uses the bounded [`PORTFOLIO_ILP_MAX_NODES`] budget).
fn portfolio_leg(name: &str) -> Result<SolverKind, String> {
    let info = info_of(name)?;
    let leg = match info.name {
        "ilp" => SolverKind::Ilp {
            max_nodes: PORTFOLIO_ILP_MAX_NODES,
        },
        _ => default_of(info.name)?,
    };
    if !leg.is_portfolio_leaf() {
        return Err(format!(
            "portfolio backend '{name}' must be a leaf strategy (heuristic|sdc|ilp)"
        ));
    }
    Ok(leg)
}

fn parse_usize(backend: &str, field: &str, raw: &str) -> Result<usize, String> {
    raw.parse::<usize>().map_err(|_| {
        format!("solver '{backend}': field '{field}' wants a non-negative integer, got '{raw}'")
    })
}

fn set_field(
    kind: &mut SolverKind,
    backend: &str,
    field: &str,
    value: usize,
) -> Result<(), String> {
    match (kind, field) {
        (SolverKind::Heuristic { improvement_passes }, "improvement_passes")
        | (SolverKind::Sdc { improvement_passes }, "improvement_passes") => {
            *improvement_passes = value
        }
        (SolverKind::Ilp { max_nodes }, "max_nodes") => *max_nodes = value,
        _ => return Err(no_field(info_of(backend)?, field)),
    }
    Ok(())
}

/// The error for a field that `info`'s backend does not have.
fn no_field(info: &BackendInfo, field: &str) -> String {
    let listed = if info.fields.is_empty() {
        "no fields".to_owned()
    } else {
        info.fields.join("|")
    };
    format!("solver '{}' has no field '{field}' ({listed})", info.name)
}

/// Parses the flag syntax (`--solver` and the JSON bare-string form):
/// `name`, `name:field=value,...`, or `portfolio:leg+leg+leg`.
///
/// # Errors
///
/// A targeted message naming the unknown solver (with the registered
/// names), the unknown field (with the backend's fields), or the
/// malformed value.
pub fn parse_spec(text: &str) -> Result<SolverKind, String> {
    let (name, args) = match text.split_once(':') {
        Some((n, a)) => (n.trim(), Some(a.trim())),
        None => (text.trim(), None),
    };
    let info = info_of(name)?;
    let Some(args) = args else {
        return default_of(name);
    };
    if args.is_empty() {
        return Err(format!("solver '{name}': empty argument list after ':'"));
    }
    if info.name == "portfolio" {
        if args.contains('=') {
            return Err("solver 'portfolio' takes '+'-separated backends (e.g. \
                 portfolio:heuristic+sdc+ilp), not field assignments"
                .to_owned());
        }
        let legs = args
            .split('+')
            .map(|leg| portfolio_leg(leg.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        if legs.is_empty() {
            return Err("portfolio backend list is empty".to_owned());
        }
        return Ok(SolverKind::Portfolio { backends: legs });
    }
    let mut kind = default_of(name)?;
    for assign in args.split(',') {
        let Some((field, raw)) = assign.split_once('=') else {
            return Err(format!(
                "solver '{name}': expected field=value, got '{}'",
                assign.trim()
            ));
        };
        let field = field.trim();
        let value = parse_usize(name, field, raw.trim())?;
        set_field(&mut kind, name, field, value)?;
    }
    Ok(kind)
}

/// Resolves the `config.solver` JSON value: a bare string in flag syntax
/// (compatible with pre-0.11 clients), or a structured object with a
/// `kind` field, typed fields, and — for portfolios — a `backends` array
/// whose entries are themselves strings or objects.
///
/// # Errors
///
/// The same targeted messages as [`parse_spec`], plus shape errors for
/// non-string/non-object values and non-integer fields.
pub fn spec_from_json(value: &Json) -> Result<SolverKind, String> {
    if let Some(text) = value.as_str() {
        return parse_spec(text);
    }
    let Some(entries) = value.as_object() else {
        return Err(format!(
            "'solver' must be a string or an object with a 'kind' field ({})",
            backend_names()
        ));
    };
    let name = value.get("kind").and_then(Json::as_str).ok_or_else(|| {
        format!(
            "'solver' object wants a string 'kind' ({})",
            backend_names()
        )
    })?;
    let info = info_of(name)?;
    if info.name == "portfolio" {
        let mut legs = Vec::new();
        for (key, v) in entries {
            match key.as_str() {
                "kind" => {}
                "backends" => {
                    let items = v.as_array().ok_or_else(|| {
                        "solver 'portfolio': 'backends' must be an array".to_owned()
                    })?;
                    for item in items {
                        let leg = spec_from_json(item)?;
                        if !leg.is_portfolio_leaf() {
                            return Err(format!(
                                "portfolio backend '{}' must be a leaf strategy (heuristic|sdc|ilp)",
                                leg.name()
                            ));
                        }
                        legs.push(leg);
                    }
                }
                other => {
                    return Err(format!(
                        "solver 'portfolio' has no field '{other}' (backends)"
                    ))
                }
            }
        }
        if legs.is_empty() {
            // `{"kind": "portfolio"}` without backends = the default race.
            return default_of("portfolio");
        }
        return Ok(SolverKind::Portfolio { backends: legs });
    }
    let mut kind = default_of(info.name)?;
    for (key, v) in entries {
        if key == "kind" {
            continue;
        }
        if !info.fields.contains(&key.as_str()) {
            return Err(no_field(info, key));
        }
        let value = v
            .as_u64()
            .ok_or_else(|| format!("solver '{name}': field '{key}' wants a non-negative integer"))?
            as usize;
        set_field(&mut kind, name, key, value)?;
    }
    Ok(kind)
}

/// The fully-resolved spec as a structured JSON object (every field
/// explicit), as echoed in response diagnostics.
pub fn spec_json(kind: &SolverKind) -> Json {
    match kind {
        SolverKind::Heuristic { improvement_passes } => obj(vec![
            ("kind", Json::Str("heuristic".to_owned())),
            ("improvement_passes", Json::Int(*improvement_passes as i64)),
        ]),
        SolverKind::Sdc { improvement_passes } => obj(vec![
            ("kind", Json::Str("sdc".to_owned())),
            ("improvement_passes", Json::Int(*improvement_passes as i64)),
        ]),
        SolverKind::Ilp { max_nodes } => obj(vec![
            ("kind", Json::Str("ilp".to_owned())),
            ("max_nodes", Json::Int(*max_nodes as i64)),
        ]),
        SolverKind::Portfolio { backends } => obj(vec![
            ("kind", Json::Str("portfolio".to_owned())),
            (
                "backends",
                Json::Array(backends.iter().map(spec_json).collect()),
            ),
        ]),
        // `SolverKind` is #[non_exhaustive].
        other => obj(vec![("kind", Json::Str(other.name().to_owned()))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_resolve_to_defaults() {
        assert!(matches!(
            parse_spec("heuristic").unwrap(),
            SolverKind::Heuristic {
                improvement_passes: 2
            }
        ));
        assert!(matches!(
            parse_spec("sdc").unwrap(),
            SolverKind::Sdc {
                improvement_passes: 2
            }
        ));
        assert!(matches!(
            parse_spec("ilp").unwrap(),
            SolverKind::Ilp { max_nodes: 500_000 }
        ));
        let SolverKind::Portfolio { backends } = parse_spec("portfolio").unwrap() else {
            panic!("expected portfolio");
        };
        assert_eq!(backends.len(), 3);
        assert!(matches!(
            backends[2],
            SolverKind::Ilp {
                max_nodes: PORTFOLIO_ILP_MAX_NODES
            }
        ));
    }

    #[test]
    fn field_assignments_parse() {
        assert!(matches!(
            parse_spec("ilp:max_nodes=20000").unwrap(),
            SolverKind::Ilp { max_nodes: 20_000 }
        ));
        assert!(matches!(
            parse_spec("sdc:improvement_passes=5").unwrap(),
            SolverKind::Sdc {
                improvement_passes: 5
            }
        ));
        // Repeated assignments apply in order; the last one wins.
        assert!(matches!(
            parse_spec("heuristic:improvement_passes=1, improvement_passes=0").unwrap(),
            SolverKind::Heuristic {
                improvement_passes: 0
            }
        ));
    }

    #[test]
    fn hybrid_is_the_heuristic_ilp_portfolio() {
        let portfolio = parse_spec(HYBRID_ALIAS).unwrap();
        let want = format!("{portfolio:?}");
        for spec in [
            parse_spec("hybrid").unwrap(),
            spec_from_json(&Json::Str("hybrid".to_owned())).unwrap(),
            spec_from_json(&obj(vec![("kind", Json::Str("hybrid".to_owned()))])).unwrap(),
        ] {
            assert_eq!(format!("{spec:?}"), want);
            assert_eq!(spec_json(&spec), spec_json(&portfolio));
        }
        assert_eq!(
            spec_json(&portfolio).get("kind").and_then(Json::as_str),
            Some("portfolio")
        );
        let e = parse_spec("hybrid:max_nodes=9").unwrap_err();
        assert!(e.contains("'hybrid'") && e.contains("no field"), "{e}");
        let e = spec_from_json(&obj(vec![
            ("kind", Json::Str("hybrid".to_owned())),
            ("max_nodes", Json::Int(9)),
        ]))
        .unwrap_err();
        assert!(e.contains("'hybrid'") && e.contains("no field"), "{e}");
    }

    #[test]
    fn portfolio_legs_parse_in_order() {
        let SolverKind::Portfolio { backends } = parse_spec("portfolio:sdc+heuristic+ilp").unwrap()
        else {
            panic!("expected portfolio");
        };
        assert_eq!(
            backends.iter().map(SolverKind::name).collect::<Vec<_>>(),
            vec!["sdc", "heuristic", "ilp"]
        );
    }

    #[test]
    fn errors_name_backend_field_and_registry() {
        let e = parse_spec("quantum").unwrap_err();
        assert!(e.contains("quantum") && e.contains("heuristic|sdc|ilp|hybrid|portfolio"));
        let e = parse_spec("ilp:improvement_passes=2").unwrap_err();
        assert!(e.contains("'ilp'") && e.contains("improvement_passes") && e.contains("max_nodes"));
        let e = parse_spec("ilp:max_nodes=lots").unwrap_err();
        assert!(e.contains("'max_nodes'") && e.contains("'lots'"));
        let e = parse_spec("portfolio:heuristic+hybrid").unwrap_err();
        assert!(e.contains("'hybrid'") && e.contains("leaf"));
        let e = parse_spec("portfolio:max_nodes=5").unwrap_err();
        assert!(e.contains("'+'-separated"));
        let e = parse_spec("sdc:").unwrap_err();
        assert!(e.contains("empty argument list"));
    }

    #[test]
    fn json_string_and_object_forms_agree() {
        let from_str = spec_from_json(&Json::Str("ilp:max_nodes=9".to_owned())).unwrap();
        let from_obj = spec_from_json(&obj(vec![
            ("kind", Json::Str("ilp".to_owned())),
            ("max_nodes", Json::Int(9)),
        ]))
        .unwrap();
        assert_eq!(format!("{from_str:?}"), format!("{from_obj:?}"));
    }

    #[test]
    fn json_portfolio_mixes_strings_and_objects() {
        let spec = spec_from_json(&obj(vec![
            ("kind", Json::Str("portfolio".to_owned())),
            (
                "backends",
                Json::Array(vec![
                    Json::Str("heuristic".to_owned()),
                    obj(vec![
                        ("kind", Json::Str("ilp".to_owned())),
                        ("max_nodes", Json::Int(123)),
                    ]),
                ]),
            ),
        ]))
        .unwrap();
        let SolverKind::Portfolio { backends } = spec else {
            panic!("expected portfolio");
        };
        assert_eq!(backends.len(), 2);
        assert!(matches!(backends[1], SolverKind::Ilp { max_nodes: 123 }));
    }

    #[test]
    fn json_errors_are_targeted() {
        let e = spec_from_json(&Json::Int(3)).unwrap_err();
        assert!(e.contains("string or an object"));
        let e = spec_from_json(&obj(vec![
            ("kind", Json::Str("portfolio".to_owned())),
            ("max_nodes", Json::Int(1)),
        ]))
        .unwrap_err();
        assert!(e.contains("'portfolio'") && e.contains("backends"));
        let e = spec_from_json(&obj(vec![
            ("kind", Json::Str("portfolio".to_owned())),
            (
                "backends",
                Json::Array(vec![Json::Str("hybrid".to_owned())]),
            ),
        ]))
        .unwrap_err();
        assert!(e.contains("leaf"));
    }

    #[test]
    fn echo_round_trips_through_the_parser() {
        for text in [
            "heuristic",
            "sdc",
            "ilp",
            "ilp:max_nodes=77",
            "portfolio:heuristic+sdc+ilp",
        ] {
            let spec = parse_spec(text).unwrap();
            let reparsed = spec_from_json(&spec_json(&spec)).unwrap();
            assert_eq!(
                format!("{spec:?}"),
                format!("{reparsed:?}"),
                "echo of {text}"
            );
        }
    }
}
