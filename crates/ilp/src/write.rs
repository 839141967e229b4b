//! CPLEX-LP-format export of models.
//!
//! Dumping a [`Model`] in the ubiquitous `.lp` text format lets a user
//! inspect what the per-layer model builder produced, or feed the exact
//! model to an external solver (Gurobi, as the paper did, reads this
//! format directly) to cross-check our branch-and-bound.

use crate::model::{Model, Sense, VarKind};
use std::fmt::Write as _;

/// Serialises `model` in CPLEX LP format.
///
/// Variable names are sanitised (`[^A-Za-z0-9_]` becomes `_`) and prefixed
/// with their index to stay unique; the objective is always `Minimize`.
///
/// # Example
///
/// ```
/// use mfhls_ilp::{Model, Sense};
///
/// let mut m = Model::minimize();
/// let x = m.binary("x");
/// let y = m.integer("y", 0.0, 5.0);
/// m.add_con(2.0 * x + y, Sense::Le, 4.0);
/// m.set_objective(x + 3.0 * y);
/// let text = mfhls_ilp::write::to_lp_format(&m);
/// assert!(text.contains("Minimize"));
/// assert!(text.contains("Subject To"));
/// assert!(text.contains("Binaries"));
/// ```
pub fn to_lp_format(model: &Model) -> String {
    let name = |i: usize| -> String {
        let raw = &model.vars()[i].name;
        let clean: String = raw
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("v{i}_{clean}")
    };
    let term = |coeff: f64, var: usize, first: bool| -> String {
        let sign = if coeff < 0.0 {
            "- "
        } else if first {
            ""
        } else {
            "+ "
        };
        let mag = coeff.abs();
        if (mag - 1.0).abs() < 1e-12 {
            format!("{sign}{}", name(var))
        } else {
            format!("{sign}{mag} {}", name(var))
        }
    };

    let mut out = String::from("Minimize\n obj:");
    let mut first = true;
    for (v, c) in model.objective().terms() {
        let _ = write!(out, " {}", term(c, v.index(), first));
        first = false;
    }
    if first {
        out.push_str(" 0");
    }
    if model.objective().constant() != 0.0 {
        let k = model.objective().constant();
        let _ = write!(out, " {} {}", if k < 0.0 { "-" } else { "+" }, k.abs());
    }

    out.push_str("\nSubject To\n");
    for (k, con) in model.cons().iter().enumerate() {
        let _ = write!(out, " c{k}:");
        let mut first = true;
        for (v, c) in con.expr.terms() {
            let _ = write!(out, " {}", term(c, v.index(), first));
            first = false;
        }
        if first {
            out.push_str(" 0");
        }
        let op = match con.sense {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        };
        let _ = writeln!(out, " {op} {}", con.rhs);
    }

    out.push_str("Bounds\n");
    for (i, v) in model.vars().iter().enumerate() {
        let _ = writeln!(out, " {} <= {} <= {}", v.lb, name(i), v.ub);
    }

    let binaries: Vec<usize> = (0..model.num_vars())
        .filter(|&i| model.vars()[i].kind == VarKind::Binary)
        .collect();
    if !binaries.is_empty() {
        out.push_str("Binaries\n");
        for i in binaries {
            let _ = writeln!(out, " {}", name(i));
        }
    }
    let generals: Vec<usize> = (0..model.num_vars())
        .filter(|&i| model.vars()[i].kind == VarKind::Integer)
        .collect();
    if !generals.is_empty() {
        out.push_str("Generals\n");
        for i in generals {
            let _ = writeln!(out, " {}", name(i));
        }
    }
    out.push_str("End\n");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{LinExpr, Model, VarId};

    /// Reads back what [`to_lp_format`] writes. Tests use it to bring in
    /// models built by crates that link this crate's library build, whose
    /// `Model` is a distinct type from this test build's.
    pub(crate) fn read_lp(text: &str) -> Model {
        let (mut objective, mut rows, mut vars) = (Vec::new(), Vec::new(), Vec::new());
        let (mut binaries, mut generals) = (Vec::new(), Vec::new());
        let mut section = "";
        for line in text.lines() {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match (section, tokens.as_slice()) {
                (_, ["Minimize" | "Bounds" | "Binaries" | "Generals" | "End"]) => {
                    section = tokens[0]
                }
                (_, ["Subject", "To"]) => section = "Subject",
                ("Minimize", [_, rest @ ..]) => objective = rest.to_vec(),
                ("Subject", [_, rest @ .., sense, rhs]) => rows.push((rest.to_vec(), *sense, *rhs)),
                ("Bounds", [lb, "<=", name, "<=", ub]) => vars.push((*name, *lb, *ub)),
                ("Binaries", [name]) => binaries.push(var_index(name)),
                ("Generals", [name]) => generals.push(var_index(name)),
                _ => panic!("unexpected LP line in {section}: {line}"),
            }
        }
        let mut m = Model::minimize();
        for (i, (name, lb, ub)) in vars.into_iter().enumerate() {
            assert_eq!(var_index(name), i, "bounds are listed in variable order");
            let label = &name[name.find('_').expect("v<index>_<label>") + 1..];
            let (lb, ub) = (number(lb), number(ub));
            let v = if binaries.contains(&i) {
                m.binary(label)
            } else if generals.contains(&i) {
                m.integer(label, lb, ub)
            } else {
                m.continuous(label, lb, ub)
            };
            m.set_bounds(v, lb, ub);
        }
        for (terms, sense, rhs) in rows {
            let sense = match sense {
                "<=" => Sense::Le,
                ">=" => Sense::Ge,
                "=" => Sense::Eq,
                other => panic!("unknown sense {other}"),
            };
            m.add_con(read_terms(&terms).0, sense, number(rhs));
        }
        let (mut expr, used) = read_terms(&objective);
        if let [.., sign, k] = &objective[used..] {
            expr.add_constant(if *sign == "-" { -number(k) } else { number(k) });
        }
        m.set_objective(expr);
        m
    }

    fn var_index(name: &str) -> usize {
        let end = name.find('_').expect("names are v<index>_<label>");
        name[1..end].parse().expect("numeric variable index")
    }

    fn number(token: &str) -> f64 {
        token.parse().expect("numeric token")
    }

    /// Parses `[+|-] [magnitude] name` terms off the front of `tokens`;
    /// returns them and the number of tokens they used.
    fn read_terms(tokens: &[&str]) -> (LinExpr, usize) {
        let mut expr = LinExpr::new();
        let mut used = 0;
        loop {
            let mut at = used;
            let sign = match tokens.get(at) {
                Some(&"-") => {
                    at += 1;
                    -1.0
                }
                Some(&"+") => {
                    at += 1;
                    1.0
                }
                _ => 1.0,
            };
            let magnitude = match tokens.get(at).and_then(|t| t.parse::<f64>().ok()) {
                Some(v) => {
                    at += 1;
                    v
                }
                None => 1.0,
            };
            match tokens.get(at) {
                Some(name) if name.starts_with('v') && name.contains('_') => {
                    expr.add_term(VarId(var_index(name)), sign * magnitude);
                    used = at + 1;
                }
                _ => return (expr, used),
            }
        }
    }

    fn sample() -> Model {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.integer("y total", 0.0, 5.0);
        let z = m.continuous("z", -1.0, 1.0);
        m.add_con(2.0 * x + y - z, Sense::Le, 4.0);
        m.add_con(x + y, Sense::Eq, 2.0);
        m.add_con(y - 0.5 * z, Sense::Ge, 0.0);
        m.set_objective(x + 3.0 * y + 7.0);
        m
    }

    #[test]
    fn all_sections_present() {
        let text = to_lp_format(&sample());
        for section in [
            "Minimize",
            "Subject To",
            "Bounds",
            "Binaries",
            "Generals",
            "End",
        ] {
            assert!(text.contains(section), "missing {section}\n{text}");
        }
    }

    #[test]
    fn read_lp_reads_back_what_it_wrote() {
        let text = to_lp_format(&sample());
        assert_eq!(to_lp_format(&read_lp(&text)), text);
        let text = to_lp_format(&Model::minimize());
        assert_eq!(to_lp_format(&read_lp(&text)), text);
    }

    #[test]
    fn sanitises_names() {
        let text = to_lp_format(&sample());
        assert!(text.contains("v1_y_total"));
        assert!(!text.contains("y total"));
    }

    #[test]
    fn senses_rendered() {
        let text = to_lp_format(&sample());
        assert!(text.contains("<= 4"));
        assert!(text.contains("= 2"));
        assert!(text.contains(">= 0"));
    }

    #[test]
    fn objective_constant_rendered() {
        let text = to_lp_format(&sample());
        assert!(text.contains("+ 7"), "{text}");
    }

    #[test]
    fn empty_model() {
        let m = Model::minimize();
        let text = to_lp_format(&m);
        assert!(text.contains("Minimize"));
        assert!(text.contains("obj: 0"));
        assert!(text.ends_with("End\n"));
    }

    #[test]
    fn negative_coefficients_signed() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_con(x - 2.0 * y, Sense::Le, 0.0);
        let text = to_lp_format(&m);
        assert!(text.contains("- 2 v1_y"), "{text}");
    }
}
