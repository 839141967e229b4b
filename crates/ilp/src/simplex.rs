//! Bounded-variable dual simplex for LP relaxations, warm-startable across
//! branch-and-bound nodes.
//!
//! Design notes (documented because this is the numerical core of the MILP
//! substrate):
//!
//! * Every structural variable must have **finite bounds** `[lb, ub]`, and the
//!   bounds are handled *implicitly*: a nonbasic variable rests at either its
//!   lower or its upper bound, and the ratio test knows about both. No bound
//!   ever becomes an explicit row, which roughly halves the row count of our
//!   scheduling models compared to the earlier two-phase formulation.
//! * Each constraint row gets exactly one slack, turning it into an equality:
//!   `Le` slacks live in `[0, ∞)`, `Ge` slacks in `(−∞, 0]`, and `Eq` slacks
//!   are fixed at `[0, 0]`. Slacks have zero cost, so the all-slack basis with
//!   every structural variable parked at the bound its objective coefficient
//!   prefers (`c_j ≥ 0` → lower, `c_j < 0` → upper) is **dual feasible by
//!   construction**.
//! * The engine is dual-simplex-only. Starting from any dual-feasible basis it
//!   pivots until the basic values satisfy their bounds, at which point the
//!   point is primal *and* dual feasible — i.e. optimal. Crucially, changing
//!   variable *bounds* never touches the tableau coefficients or the reduced
//!   costs, so a basis that was optimal for the parent branch-and-bound node
//!   stays dual feasible for any child (or cousin) node: a warm restart is
//!   "set the new bounds, refresh the basic values, run a few dual pivots".
//! * Degenerate cycling is avoided by switching the leaving-row rule from
//!   max-violation to smallest-basis-index (dual Bland) after a run of
//!   stalled pivots; a hard pivot cap backstops numerical livelock.
//! * The dense tableau is stored column-major, so a pivot eliminates with
//!   one contiguous sweep per nonzero column of the pivot row, and reads
//!   the entering column and the columns of bound flips contiguously.
//! * Tolerances: pivot candidates need magnitude `> PIVOT_EPS`; feasibility
//!   and optimality use `OPT_EPS`.

use crate::{IlpError, Sense};

/// Magnitude below which a coefficient is treated as zero for pivoting.
pub const PIVOT_EPS: f64 = 1e-9;
/// Optimality / feasibility tolerance.
pub const OPT_EPS: f64 = 1e-7;
/// Coefficients below this magnitude are dropped during row canonicalization.
const COEFF_EPS: f64 = 1e-12;
/// Consecutive stalled (no dual-objective progress) pivots before switching
/// the leaving-row rule to dual Bland.
const BLAND_TRIGGER: usize = 64;
/// Default hard cap on simplex pivots for the one-shot entry points, as a
/// defence against numerical livelock.
const MAX_PIVOTS: u64 = 200_000;

/// One row of an [`LpProblem`]: sparse coefficients, sense and rhs.
#[derive(Debug, Clone, PartialEq)]
pub struct LpRow {
    /// `(column, coefficient)` pairs; columns may repeat (they accumulate).
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

impl LpRow {
    /// Canonicalizes the sparse coefficient list in place: sorts by column,
    /// accumulates duplicate columns, and drops near-zero coefficients.
    ///
    /// The public API keeps the documented accumulate semantics — callers may
    /// push `(j, c)` pairs freely — and [`BoundedSimplex::new`] canonicalizes
    /// on ingest so the numerical core never special-cases repeated columns.
    pub fn canonicalize(&mut self) {
        self.coeffs.sort_by_key(|&(j, _)| j);
        let mut out: Vec<(usize, f64)> = Vec::with_capacity(self.coeffs.len());
        for &(j, c) in &self.coeffs {
            match out.last_mut() {
                Some((k, acc)) if *k == j => *acc += c,
                _ => out.push((j, c)),
            }
        }
        out.retain(|&(_, c)| c.abs() > COEFF_EPS);
        self.coeffs = out;
    }
}

/// A bounded linear program `min c·x  s.t.  rows, lb ≤ x ≤ ub`.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    /// Number of structural variables.
    pub ncols: usize,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
    /// Dense objective coefficients (length `ncols`).
    pub objective: Vec<f64>,
    /// Lower bounds (finite).
    pub lb: Vec<f64>,
    /// Upper bounds (finite).
    pub ub: Vec<f64>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// Proven optimal solution.
    Optimal {
        /// Optimal assignment, length `ncols`.
        x: Vec<f64>,
        /// Objective value `c·x`.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (cannot occur when all variables
    /// have finite bounds, but reported defensively).
    Unbounded,
}

/// Outcome of one [`BoundedSimplex::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// Primal and dual feasible: the current basis is optimal.
    Optimal,
    /// A bound violation admits no entering column: the LP is infeasible.
    Infeasible,
    /// The pivot cap was reached before convergence.
    PivotLimit,
}

/// Solves a bounded LP with the bounded-variable dual simplex.
///
/// # Errors
///
/// Returns [`IlpError::UnboundedVariable`] if a bound is not finite, and
/// [`IlpError::ForeignVariable`] if a row references a column `>= ncols`.
///
/// # Example
///
/// ```
/// use mfhls_ilp::simplex::{solve_lp, LpProblem, LpRow, LpResult};
/// use mfhls_ilp::Sense;
///
/// // min -x - y  s.t. x + y <= 3, x,y in [0, 2]
/// let p = LpProblem {
///     ncols: 2,
///     rows: vec![LpRow { coeffs: vec![(0, 1.0), (1, 1.0)], sense: Sense::Le, rhs: 3.0 }],
///     objective: vec![-1.0, -1.0],
///     lb: vec![0.0, 0.0],
///     ub: vec![2.0, 2.0],
/// };
/// match solve_lp(&p)? {
///     LpResult::Optimal { objective, .. } => assert!((objective + 3.0).abs() < 1e-6),
///     other => panic!("unexpected {other:?}"),
/// }
/// # Ok::<(), mfhls_ilp::IlpError>(())
/// ```
pub fn solve_lp(p: &LpProblem) -> Result<LpResult, IlpError> {
    solve_lp_with_bounds(p, &p.lb, &p.ub)
}

/// Like [`solve_lp`], but with the bound vectors supplied separately.
///
/// For repeated solves over the same rows (branch-and-bound), prefer keeping
/// a [`BoundedSimplex`] alive and calling [`BoundedSimplex::set_bounds`] +
/// [`BoundedSimplex::solve`]: this entry point rebuilds the tableau each call.
///
/// # Errors
///
/// Same as [`solve_lp`].
pub fn solve_lp_with_bounds(p: &LpProblem, lb: &[f64], ub: &[f64]) -> Result<LpResult, IlpError> {
    let mut sx = BoundedSimplex::new(p)?;
    sx.set_bounds(lb, ub);
    match sx.solve(MAX_PIVOTS) {
        SimplexOutcome::Optimal => {
            let (x, objective) = sx.extract();
            Ok(LpResult::Optimal { x, objective })
        }
        SimplexOutcome::Infeasible => Ok(LpResult::Infeasible),
        // Defensive: cannot trigger at the model sizes this entry point is
        // used on. Reported as infeasible, matching the two-phase behaviour.
        SimplexOutcome::PivotLimit => Ok(LpResult::Infeasible),
    }
}

fn validate(p: &LpProblem) -> Result<(), IlpError> {
    assert_eq!(p.lb.len(), p.ncols, "lb length mismatch");
    assert_eq!(p.ub.len(), p.ncols, "ub length mismatch");
    assert_eq!(p.objective.len(), p.ncols, "objective length mismatch");
    for j in 0..p.ncols {
        if !p.lb[j].is_finite() || !p.ub[j].is_finite() {
            return Err(IlpError::UnboundedVariable { var: j });
        }
    }
    for row in &p.rows {
        for &(j, _) in &row.coeffs {
            if j >= p.ncols {
                return Err(IlpError::ForeignVariable {
                    var: j,
                    len: p.ncols,
                });
            }
        }
    }
    Ok(())
}

/// A persistent dense dual-simplex tableau over `n` structural columns and
/// one slack column per row.
///
/// The intended lifecycle for branch-and-bound:
///
/// 1. [`BoundedSimplex::new`] once per model (builds the cold all-slack basis),
/// 2. per node: [`BoundedSimplex::set_bounds`] with the node's structural
///    bounds, then [`BoundedSimplex::solve`] — the basis left behind by the
///    previous node is dual feasible for *any* bound assignment, so interior
///    nodes typically cost a handful of pivots,
/// 3. [`BoundedSimplex::cold_reset`] to discard the carried basis (the
///    scratch-solve baseline, and a recovery hatch after a pivot-limit stop).
#[derive(Debug, Clone)]
pub struct BoundedSimplex {
    /// Structural columns.
    n: usize,
    /// Rows.
    m: usize,
    /// Total columns: structural + one slack per row.
    total: usize,
    /// Original canonical matrix, `m × n` column-major (structural part
    /// only): cell `(i, j)` at `a0[j * m + i]`.
    a0: Vec<f64>,
    /// Original right-hand sides.
    b0: Vec<f64>,
    /// Costs, length `total` (slack costs are zero).
    cost: Vec<f64>,
    /// Current bounds, length `total`; slack bounds encode the row sense and
    /// never change, structural bounds change per node.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Current tableau `B⁻¹[A | I]`, `m × total` column-major: cell
    /// `(i, j)` at `tab[j * m + i]`, so a column is one contiguous run.
    tab: Vec<f64>,
    /// `B⁻¹ b`, updated only by pivots.
    binv_b: Vec<f64>,
    /// Reduced costs, length `total`; zero on basic columns.
    d: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Row of each basic column, `usize::MAX` when nonbasic.
    row_of: Vec<usize>,
    /// Whether a nonbasic column rests at its upper bound (vs lower).
    at_upper: Vec<bool>,
    /// Current values of the basic variables.
    xb: Vec<f64>,
    /// Lifetime pivot counter (monotonic, survives `cold_reset`).
    pivots: u64,
    /// Scratch for [`BoundedSimplex::pivot`]: the nonzero `(column,
    /// value)` pairs of the scaled pivot row, reused across pivots.
    pivot_row: Vec<(usize, f64)>,
    /// Scratch for [`BoundedSimplex::pivot`], length `2m`: the entering
    /// column before elimination with the pivot row's entry zeroed, once
    /// with its zeros as `+0.0` and once as `−0.0`.
    entering: Vec<f64>,
}

impl BoundedSimplex {
    /// Builds the tableau from `p` (rows canonicalized on ingest) and
    /// installs the cold all-slack basis.
    ///
    /// # Errors
    ///
    /// Same validation as [`solve_lp`]: [`IlpError::UnboundedVariable`] for a
    /// non-finite structural bound, [`IlpError::ForeignVariable`] for a row
    /// referencing a column `>= ncols`.
    pub fn new(p: &LpProblem) -> Result<BoundedSimplex, IlpError> {
        validate(p)?;
        let n = p.ncols;
        let m = p.rows.len();
        let total = n + m;

        let mut a0 = vec![0.0; m * n];
        let mut b0 = vec![0.0; m];
        let mut lb = vec![0.0; total];
        let mut ub = vec![0.0; total];
        lb[..n].copy_from_slice(&p.lb);
        ub[..n].copy_from_slice(&p.ub);
        for (i, row) in p.rows.iter().enumerate() {
            let mut canon = row.clone();
            canon.canonicalize();
            for &(j, c) in &canon.coeffs {
                a0[j * m + i] = c;
            }
            b0[i] = canon.rhs;
            let s = n + i;
            match canon.sense {
                Sense::Le => {
                    lb[s] = 0.0;
                    ub[s] = f64::INFINITY;
                }
                Sense::Ge => {
                    lb[s] = f64::NEG_INFINITY;
                    ub[s] = 0.0;
                }
                Sense::Eq => {
                    lb[s] = 0.0;
                    ub[s] = 0.0;
                }
            }
        }

        let mut cost = vec![0.0; total];
        cost[..n].copy_from_slice(&p.objective);

        let mut sx = BoundedSimplex {
            n,
            m,
            total,
            a0,
            b0,
            cost,
            lb,
            ub,
            tab: vec![0.0; m * total],
            binv_b: vec![0.0; m],
            d: vec![0.0; total],
            basis: vec![usize::MAX; m],
            row_of: vec![usize::MAX; total],
            at_upper: vec![false; total],
            xb: vec![0.0; m],
            pivots: 0,
            pivot_row: Vec::new(),
            entering: vec![0.0; 2 * m],
        };
        sx.cold_reset();
        Ok(sx)
    }

    /// Discards the carried basis and reinstalls the cold start: all slacks
    /// basic, each structural variable nonbasic at the bound its cost
    /// prefers. This basis is dual feasible for any bound assignment.
    ///
    /// The lifetime pivot counter is *not* reset.
    pub fn cold_reset(&mut self) {
        let (n, m, total) = (self.n, self.m, self.total);
        self.tab.iter_mut().for_each(|v| *v = 0.0);
        self.tab[..n * m].copy_from_slice(&self.a0);
        for i in 0..m {
            self.tab[(n + i) * m + i] = 1.0;
            self.basis[i] = n + i;
        }
        self.binv_b.copy_from_slice(&self.b0);
        self.d.copy_from_slice(&self.cost);
        for j in 0..total {
            self.row_of[j] = usize::MAX;
            self.at_upper[j] = j < n && self.cost[j] < 0.0;
        }
        for i in 0..m {
            self.row_of[n + i] = i;
        }
    }

    /// Installs the structural bounds for the next [`BoundedSimplex::solve`]
    /// call. Panics if the slices are not `ncols` long.
    pub fn set_bounds(&mut self, lb: &[f64], ub: &[f64]) {
        self.lb[..self.n].copy_from_slice(lb);
        self.ub[..self.n].copy_from_slice(ub);
    }

    /// Replaces structural `j`'s bounds for the next
    /// [`BoundedSimplex::solve`] call, keeping every other column's.
    pub fn set_bound(&mut self, j: usize, lb: f64, ub: f64) {
        assert!(j < self.n, "column {j} is not structural");
        self.lb[j] = lb;
        self.ub[j] = ub;
    }

    /// Lifetime pivot count (monotonic across warm restarts and cold resets).
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Recomputes the basic values from `B⁻¹b` and the nonbasic resting
    /// points. Called at the start of every solve, because bound changes move
    /// the nonbasic contributions without any pivot.
    fn refresh_xb(&mut self) {
        self.xb.copy_from_slice(&self.binv_b);
        for j in 0..self.total {
            if self.row_of[j] != usize::MAX {
                continue;
            }
            let v = if self.at_upper[j] {
                self.ub[j]
            } else {
                self.lb[j]
            };
            debug_assert!(v.is_finite(), "nonbasic column {j} rests at {v}");
            if v != 0.0 {
                let col = &self.tab[j * self.m..(j + 1) * self.m];
                for (x, &a) in self.xb.iter_mut().zip(col) {
                    if a != 0.0 {
                        *x -= a * v;
                    }
                }
            }
        }
    }

    /// Runs dual-simplex pivots from the current basis until the basic
    /// values satisfy their bounds (optimal), a violated row admits no
    /// entering column (infeasible), or `max_pivots` pivots have been spent
    /// by this call.
    pub fn solve(&mut self, max_pivots: u64) -> SimplexOutcome {
        // Repair dual feasibility first. Fixed columns (`ub == lb`) are
        // excluded from the ratio test, so eliminations can push their
        // reduced costs to either sign; when a later bound change un-fixes
        // such a column it rests nonbasic with `d` possibly on the wrong
        // side. The resting side of a nonbasic column is a free choice —
        // flip it to match the sign of `d`. If the matching bound is
        // infinite (cannot happen for boxed MILP columns; defensive for
        // raw LP use) fall back to the cold dual-feasible basis.
        let mut need_cold = false;
        for j in 0..self.total {
            if self.row_of[j] != usize::MAX || self.ub[j] - self.lb[j] <= COEFF_EPS {
                continue;
            }
            if self.at_upper[j] {
                if self.d[j] > PIVOT_EPS {
                    if self.lb[j].is_finite() {
                        self.at_upper[j] = false;
                    } else {
                        need_cold = true;
                        break;
                    }
                }
            } else if self.d[j] < -PIVOT_EPS {
                if self.ub[j].is_finite() {
                    self.at_upper[j] = true;
                } else {
                    need_cold = true;
                    break;
                }
            }
        }
        if need_cold {
            self.cold_reset();
        }
        self.refresh_xb();
        let mut spent = 0u64;
        let mut stalled = 0usize;
        let mut bland = false;
        loop {
            // Leaving row: the basic variable most outside its bounds
            // (tie-break: smallest basis index); under dual Bland, the
            // violated row whose basic variable has the smallest index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                let b = self.basis[i];
                let viol = if self.xb[i] > self.ub[b] + OPT_EPS {
                    self.xb[i] - self.ub[b]
                } else if self.xb[i] < self.lb[b] - OPT_EPS {
                    self.lb[b] - self.xb[i]
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((li, lv)) => {
                        if bland {
                            self.basis[i] < self.basis[li]
                        } else {
                            viol > lv + PIVOT_EPS
                                || (viol > lv - PIVOT_EPS && self.basis[i] < self.basis[li])
                        }
                    }
                };
                if better {
                    leave = Some((i, viol));
                }
            }
            let Some((r, _)) = leave else {
                return SimplexOutcome::Optimal;
            };
            if spent >= max_pivots {
                return SimplexOutcome::PivotLimit;
            }

            let bvar = self.basis[r];
            let leaves_up = self.xb[r] > self.ub[bvar];
            let target = if leaves_up {
                self.ub[bvar]
            } else {
                self.lb[bvar]
            };
            // Entering column: dual ratio test. With `ᾱ = sgn·α_rj`
            // (`sgn = +1` when the leaving variable must decrease, `−1` when
            // it must increase), a nonbasic column is admissible when moving
            // off its resting bound pushes the violated row toward `target`:
            // at-lower needs `ᾱ > 0`, at-upper needs `ᾱ < 0`. The minimum of
            // `d_j / ᾱ` keeps every reduced cost on its dual-feasible side.
            let sgn = if leaves_up { 1.0 } else { -1.0 };
            let m = self.m;
            let mut cands: Vec<(f64, usize)> = Vec::new();
            for j in 0..self.total {
                if self.row_of[j] != usize::MAX || self.ub[j] - self.lb[j] <= COEFF_EPS {
                    continue;
                }
                let ab = sgn * self.tab[j * m + r];
                let admissible = if self.at_upper[j] {
                    ab < -PIVOT_EPS
                } else {
                    ab > PIVOT_EPS
                };
                if admissible {
                    cands.push((self.d[j] / ab, j));
                }
            }
            if cands.is_empty() {
                // The violated row cannot be repaired: primal infeasible.
                return SimplexOutcome::Infeasible;
            }
            cands.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });

            // Long-step ("bound-flip") ratio test: walk the candidates in
            // dual-ratio order. A candidate whose full lower↔upper range
            // cannot absorb the row's remaining bound violation is *flipped*
            // to its opposite bound (no basis change — after the eventual
            // pivot its reduced cost crosses zero, so the opposite bound is
            // where dual feasibility wants it anyway); the first candidate
            // that can finish the repair enters the basis. Without this an
            // entering variable lands far outside its own box and the next
            // iterations pivot it straight back out — a ping-pong that can
            // burn thousands of pivots per node on big-M models.
            let mut resid = (self.xb[r] - target).abs();
            let mut q = cands[cands.len() - 1].1;
            let mut flips: Vec<usize> = Vec::new();
            for &(_, j) in &cands {
                let width = self.ub[j] - self.lb[j];
                let cap = self.tab[j * m + r].abs() * width;
                if width.is_finite() && cap < resid - PIVOT_EPS {
                    flips.push(j);
                    resid -= cap;
                } else {
                    q = j;
                    break;
                }
            }
            if flips.len() == cands.len() {
                // Even moving every admissible column across its whole range
                // cannot repair the row: primal infeasible.
                return SimplexOutcome::Infeasible;
            }
            for &j in &flips {
                let (from, to) = if self.at_upper[j] {
                    (self.ub[j], self.lb[j])
                } else {
                    (self.lb[j], self.ub[j])
                };
                self.at_upper[j] = !self.at_upper[j];
                let delta = to - from;
                if delta != 0.0 {
                    for (x, &a) in self.xb.iter_mut().zip(&self.tab[j * m..(j + 1) * m]) {
                        if a != 0.0 {
                            *x -= a * delta;
                        }
                    }
                }
            }

            #[cfg(test)]
            let before = self.clone();
            let progress = self.pivot(r, q, target, leaves_up);
            #[cfg(test)]
            tests::assert_matches_dense(before, (r, q, target, leaves_up), self, progress);
            spent += 1;
            if progress.abs() < 1e-12 {
                stalled += 1;
                if stalled >= BLAND_TRIGGER {
                    bland = true;
                }
            } else {
                stalled = 0;
            }
        }
    }

    /// Performs the `(r, q)` pivot, sending the leaving variable to `target`
    /// (its violated bound). Returns the dual-objective progress `d_q · Δq`
    /// made by the step (used for stall detection).
    fn pivot(&mut self, r: usize, q: usize, target: f64, leaves_up: bool) -> f64 {
        let (m, total) = (self.m, self.total);
        let alpha = self.tab[q * m + r];
        debug_assert!(alpha.abs() > PIVOT_EPS, "pivot too small: {alpha}");

        let vq = if self.at_upper[q] {
            self.ub[q]
        } else {
            self.lb[q]
        };
        let dq_step = (self.xb[r] - target) / alpha;
        let progress = self.d[q] * dq_step;

        // The entering column before elimination, pivot row excluded:
        // a row is eliminated iff its entry `f` here is nonzero. `f_neg`
        // is the same column with its zeros as −0.0 (see the sweep).
        let mut entering = std::mem::take(&mut self.entering);
        let (f, f_neg) = entering.split_at_mut(m);
        f.copy_from_slice(&self.tab[q * m..(q + 1) * m]);
        f[r] = 0.0;
        for (x, n) in f.iter_mut().zip(f_neg.iter_mut()) {
            if *x == 0.0 {
                (*x, *n) = (0.0, -0.0);
            } else {
                *n = *x;
            }
        }

        // Basic values move with the entering variable.
        for (x, &a) in self.xb.iter_mut().zip(f.iter()) {
            if a != 0.0 {
                *x -= a * dq_step;
            }
        }

        // Status bookkeeping: the leaving variable rests at the bound it was
        // pushed to; the entering variable becomes basic at `vq + Δq`.
        let bvar = self.basis[r];
        self.row_of[bvar] = usize::MAX;
        self.at_upper[bvar] = leaves_up;
        self.basis[r] = q;
        self.row_of[q] = r;
        self.xb[r] = vq + dq_step;

        // Eliminate column q: scale the pivot row, clear it elsewhere,
        // keeping `B⁻¹b` and the reduced-cost row in lockstep. Only the
        // pivot row's nonzero columns and the rows with `f ≠ 0` can change
        // a cell, so each such column `k` takes one contiguous sweep down
        // its rows, which vectorizes. The sweep adds `f·(−v)`, which is
        // `c − f·v` bit for bit. A row with `f = 0` must keep its cell, and
        // `c + (−0.0)` is `c` for every `c`, signed zeros included, so its
        // product must be −0.0: `+0.0·(−v)` when `v > 0`, `−0.0·(−v)` when
        // `v < 0` (for finite `v`; a zero times an infinity would be NaN).
        // Every other cell gets the single multiply-subtract a
        // row-by-row sweep would give it, from the same operands, so the
        // tableau is bit-identical.
        let inv = 1.0 / alpha;
        let mut nz = std::mem::take(&mut self.pivot_row);
        nz.clear();
        for k in 0..total {
            let v = &mut self.tab[k * m + r];
            *v = if k == q { 1.0 } else { *v * inv };
            if k != q && *v != 0.0 {
                nz.push((k, *v));
            }
        }
        for &(k, v) in &nz {
            debug_assert!(v.is_finite(), "pivot row cell {k} is {v}");
            let zeros_as = if v > 0.0 { &*f } else { &*f_neg };
            for (c, &fi) in self.tab[k * m..(k + 1) * m].iter_mut().zip(zeros_as) {
                *c += fi * -v;
            }
        }
        self.binv_b[r] *= inv;
        let br = self.binv_b[r];
        let col_q = &mut self.tab[q * m..(q + 1) * m];
        for ((c, b), &fi) in col_q.iter_mut().zip(&mut self.binv_b).zip(f.iter()) {
            if fi != 0.0 {
                *c = 0.0;
                *b -= fi * br;
            }
        }
        let dq = self.d[q];
        if dq != 0.0 {
            for &(k, v) in &nz {
                self.d[k] -= dq * v;
            }
            self.d[q] = 0.0;
        }
        self.pivot_row = nz;
        self.entering = entering;

        self.pivots += 1;
        progress
    }

    /// Extracts `(x, c·x)` for the structural variables from the current
    /// basis. Only meaningful after [`SimplexOutcome::Optimal`]; basic values
    /// are clamped into their bounds (they satisfy them to `OPT_EPS` at
    /// optimality).
    pub fn extract(&self) -> (Vec<f64>, f64) {
        let x: Vec<f64> = (0..self.n).map(|j| self.value(j)).collect();
        let objective = (0..self.n).map(|j| self.cost[j] * x[j]).sum();
        (x, objective)
    }

    /// The objective [`BoundedSimplex::extract`] returns, bit for bit,
    /// without collecting the point.
    pub fn objective(&self) -> f64 {
        (0..self.n).map(|j| self.cost[j] * self.value(j)).sum()
    }

    /// Structural `j`'s value in the current basis, clamped into its bounds.
    fn value(&self, j: usize) -> f64 {
        let v = match self.row_of[j] {
            usize::MAX => {
                if self.at_upper[j] {
                    self.ub[j]
                } else {
                    self.lb[j]
                }
            }
            i => self.xb[i],
        };
        v.max(self.lb[j]).min(self.ub[j])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    type RawRows = Vec<(Vec<(usize, f64)>, Sense, f64)>;

    /// Pivots cross-checked by [`assert_matches_dense`].
    static CROSS_CHECKED: AtomicU64 = AtomicU64::new(0);

    impl BoundedSimplex {
        /// The row-by-row elimination [`BoundedSimplex::pivot`] replaced,
        /// kept as its reference and indexed for the column-major layout:
        /// every other row with a nonzero in column `q` sweeps all `total`
        /// columns, skipping the pivot row's zeros.
        fn pivot_dense(&mut self, r: usize, q: usize, target: f64, leaves_up: bool) -> f64 {
            let (m, total) = (self.m, self.total);
            let at = move |i: usize, k: usize| k * m + i;
            let alpha = self.tab[at(r, q)];
            let vq = if self.at_upper[q] {
                self.ub[q]
            } else {
                self.lb[q]
            };
            let dq_step = (self.xb[r] - target) / alpha;
            let progress = self.d[q] * dq_step;
            for i in 0..m {
                if i != r {
                    let a = self.tab[at(i, q)];
                    if a != 0.0 {
                        self.xb[i] -= a * dq_step;
                    }
                }
            }
            let bvar = self.basis[r];
            self.row_of[bvar] = usize::MAX;
            self.at_upper[bvar] = leaves_up;
            self.basis[r] = q;
            self.row_of[q] = r;
            self.xb[r] = vq + dq_step;

            let inv = 1.0 / alpha;
            for k in 0..total {
                self.tab[at(r, k)] *= inv;
            }
            self.tab[at(r, q)] = 1.0;
            self.binv_b[r] *= inv;
            for i in 0..m {
                if i == r {
                    continue;
                }
                let f = self.tab[at(i, q)];
                if f != 0.0 {
                    for k in 0..total {
                        let v = self.tab[at(r, k)];
                        if v != 0.0 {
                            self.tab[at(i, k)] -= f * v;
                        }
                    }
                    self.tab[at(i, q)] = 0.0;
                    self.binv_b[i] -= f * self.binv_b[r];
                }
            }
            let f = self.d[q];
            if f != 0.0 {
                for k in 0..total {
                    let v = self.tab[at(r, k)];
                    if v != 0.0 {
                        self.d[k] -= f * v;
                    }
                }
                self.d[q] = 0.0;
            }
            self.pivots += 1;
            progress
        }
    }

    /// Run after every pivot in this crate's tests: from the same state,
    /// the row-by-row reference must leave `tab`, `d`, `binv_b` and `xb`
    /// bit-for-bit where the column sweeps left them, with the same basis,
    /// resting sides, pivot count and reported progress.
    pub(super) fn assert_matches_dense(
        mut reference: BoundedSimplex,
        (r, q, target, leaves_up): (usize, usize, f64, bool),
        swept: &BoundedSimplex,
        progress: f64,
    ) {
        let expected = reference.pivot_dense(r, q, target, leaves_up);
        assert_eq!(progress.to_bits(), expected.to_bits(), "pivot ({r}, {q})");
        for (what, got, want) in [
            ("tab", &swept.tab, &reference.tab),
            ("d", &swept.d, &reference.d),
            ("binv_b", &swept.binv_b, &reference.binv_b),
            ("xb", &swept.xb, &reference.xb),
        ] {
            if let Some(k) = (0..want.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
                panic!(
                    "pivot ({r}, {q}): {what}[{k}] is {} swept, {} in the reference",
                    got[k], want[k]
                );
            }
        }
        assert_eq!(swept.basis, reference.basis);
        assert_eq!(swept.row_of, reference.row_of);
        assert_eq!(swept.at_upper, reference.at_upper);
        assert_eq!(swept.pivots, reference.pivots);
        CROSS_CHECKED.fetch_add(1, Ordering::Relaxed);
    }

    fn lp(ncols: usize, rows: RawRows, objective: Vec<f64>, bounds: Vec<(f64, f64)>) -> LpProblem {
        LpProblem {
            ncols,
            rows: rows
                .into_iter()
                .map(|(coeffs, sense, rhs)| LpRow { coeffs, sense, rhs })
                .collect(),
            objective,
            lb: bounds.iter().map(|b| b.0).collect(),
            ub: bounds.iter().map(|b| b.1).collect(),
        }
    }

    fn expect_optimal(p: &LpProblem) -> (Vec<f64>, f64) {
        match solve_lp(p).expect("valid problem") {
            LpResult::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_box_max() {
        // min -x - y s.t. x + y <= 3 with x,y in [0,2]: optimum -3.
        let p = lp(
            2,
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Le, 3.0)],
            vec![-1.0, -1.0],
            vec![(0.0, 2.0), (0.0, 2.0)],
        );
        let (_, obj) = expect_optimal(&p);
        assert!((obj + 3.0).abs() < 1e-6, "obj={obj}");
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y == 2: optimum 2.
        let p = lp(
            2,
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 2.0)],
            vec![1.0, 1.0],
            vec![(0.0, 5.0), (0.0, 5.0)],
        );
        let (x, obj) = expect_optimal(&p);
        assert!((obj - 2.0).abs() < 1e-6);
        assert!((x[0] + x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let p = lp(
            1,
            vec![
                (vec![(0, 1.0)], Sense::Le, 1.0),
                (vec![(0, 1.0)], Sense::Ge, 2.0),
            ],
            vec![0.0],
            vec![(0.0, 5.0)],
        );
        assert_eq!(solve_lp(&p).unwrap(), LpResult::Infeasible);
    }

    #[test]
    fn infeasible_via_bounds() {
        // x >= 3 but ub = 2.
        let p = lp(
            1,
            vec![(vec![(0, 1.0)], Sense::Ge, 3.0)],
            vec![0.0],
            vec![(0.0, 2.0)],
        );
        assert_eq!(solve_lp(&p).unwrap(), LpResult::Infeasible);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x with x in [-5, 5] and x >= -3: optimum -3.
        let p = lp(
            1,
            vec![(vec![(0, 1.0)], Sense::Ge, -3.0)],
            vec![1.0],
            vec![(-5.0, 5.0)],
        );
        let (x, obj) = expect_optimal(&p);
        assert!((obj + 3.0).abs() < 1e-6);
        assert!((x[0] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn bounds_only_problem() {
        // No rows at all: min -x over [1, 4] -> x = 4.
        let p = lp(1, vec![], vec![-1.0], vec![(1.0, 4.0)]);
        let (x, obj) = expect_optimal(&p);
        assert!((x[0] - 4.0).abs() < 1e-6);
        assert!((obj + 4.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_variable() {
        let p = lp(
            2,
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Le, 10.0)],
            vec![-1.0, -1.0],
            vec![(3.0, 3.0), (0.0, 2.0)],
        );
        let (x, obj) = expect_optimal(&p);
        assert!((x[0] - 3.0).abs() < 1e-6);
        assert!((obj + 5.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let rows = (0..8)
            .map(|k| (vec![(0, 1.0 + k as f64 * 0.0), (1, 1.0)], Sense::Le, 2.0))
            .collect();
        let p = lp(2, rows, vec![-1.0, -2.0], vec![(0.0, 2.0), (0.0, 2.0)]);
        let (_, obj) = expect_optimal(&p);
        assert!((obj + 4.0).abs() < 1e-6, "obj={obj}");
    }

    #[test]
    fn redundant_equalities_dropped() {
        // x + y == 2 duplicated: the dual simplex must cope with the
        // dependent row (after the first repair pivot it collapses to an
        // all-zero row whose fixed slack sits exactly on its bound).
        let p = lp(
            2,
            vec![
                (vec![(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
                (vec![(0, 1.0), (1, 1.0)], Sense::Eq, 2.0),
            ],
            vec![1.0, 0.0],
            vec![(0.0, 5.0), (0.0, 5.0)],
        );
        let (x, obj) = expect_optimal(&p);
        assert!(obj.abs() < 1e-6, "x should be 0, got {x:?}");
    }

    #[test]
    fn rejects_infinite_bounds() {
        let p = lp(1, vec![], vec![1.0], vec![(0.0, f64::INFINITY)]);
        assert_eq!(solve_lp(&p), Err(IlpError::UnboundedVariable { var: 0 }));
    }

    #[test]
    fn rejects_foreign_column() {
        let p = lp(
            1,
            vec![(vec![(3, 1.0)], Sense::Le, 1.0)],
            vec![1.0],
            vec![(0.0, 1.0)],
        );
        assert_eq!(
            solve_lp(&p),
            Err(IlpError::ForeignVariable { var: 3, len: 1 })
        );
    }

    #[test]
    fn negative_rhs_normalisation() {
        // -x <= -1  <=>  x >= 1; min x -> 1.
        let p = lp(
            1,
            vec![(vec![(0, -1.0)], Sense::Le, -1.0)],
            vec![1.0],
            vec![(0.0, 5.0)],
        );
        let (x, _) = expect_optimal(&p);
        assert!((x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_columns_accumulate() {
        // (0, 0.5) + (0, 0.5) must act as a single coefficient of 1.0, and a
        // cancelling pair must vanish entirely.
        let p = lp(
            2,
            vec![
                (vec![(0, 0.5), (0, 0.5), (1, 1.0)], Sense::Le, 3.0),
                (vec![(1, 2.0), (1, -2.0), (0, 1.0)], Sense::Ge, 1.0),
            ],
            vec![-1.0, -1.0],
            vec![(0.0, 2.0), (0.0, 2.0)],
        );
        let (x, obj) = expect_optimal(&p);
        assert!((obj + 3.0).abs() < 1e-6, "obj={obj}, x={x:?}");

        let mut row = LpRow {
            coeffs: vec![(1, 2.0), (1, -2.0), (0, 0.5), (0, 0.5)],
            sense: Sense::Le,
            rhs: 0.0,
        };
        row.canonicalize();
        assert_eq!(row.coeffs, vec![(0, 1.0)]);
    }

    #[test]
    fn warm_restart_after_bound_change() {
        // Solve, tighten a bound, re-solve warm: the carried basis must stay
        // dual feasible and land on the new optimum in few pivots.
        let p = lp(
            2,
            vec![(vec![(0, 1.0), (1, 1.0)], Sense::Le, 3.0)],
            vec![-1.0, -2.0],
            vec![(0.0, 2.0), (0.0, 2.0)],
        );
        let mut sx = BoundedSimplex::new(&p).unwrap();
        assert_eq!(sx.solve(1_000), SimplexOutcome::Optimal);
        let (_, obj) = sx.extract();
        assert!((obj + 5.0).abs() < 1e-6, "cold obj={obj}");
        let cold_pivots = sx.pivots();

        // Branch: y <= 0. New optimum: x = 2, y = 0 -> obj -2.
        sx.set_bounds(&[0.0, 0.0], &[2.0, 0.0]);
        assert_eq!(sx.solve(1_000), SimplexOutcome::Optimal);
        let (x, obj) = sx.extract();
        assert!((obj + 2.0).abs() < 1e-6, "warm obj={obj}, x={x:?}");
        assert!(
            sx.pivots() - cold_pivots <= 2,
            "warm repair took {} pivots",
            sx.pivots() - cold_pivots
        );

        // Relax back: the basis from the child is still dual feasible.
        sx.set_bounds(&p.lb, &p.ub);
        assert_eq!(sx.solve(1_000), SimplexOutcome::Optimal);
        let (_, obj) = sx.extract();
        assert!((obj + 5.0).abs() < 1e-6, "relaxed obj={obj}");
    }

    #[test]
    fn sparse_pivots_match_the_dense_reference_on_random_lps() {
        // Sparse rows with fractional coefficients around a random feasible
        // point, solved cold and then re-solved warm after bound
        // tightenings, as branch-and-bound does. `assert_matches_dense`
        // checks every pivot.
        use mfhls_graph::rng::SplitMix64;
        let coeff =
            |rng: &mut SplitMix64| rng.gen_range_i64(-6, 7) as f64 / rng.gen_range_i64(1, 8) as f64;
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0017);
        let checked_before = CROSS_CHECKED.load(Ordering::Relaxed);
        let mut pivots = 0;
        for _ in 0..200 {
            let n = rng.gen_index(2, 20);
            let m = rng.gen_index(1, 14);
            let bounds: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range_i64(-4, 3) as f64;
                    (lo, lo + rng.gen_range_i64(1, 6) as f64)
                })
                .collect();
            let x0: Vec<f64> = bounds
                .iter()
                .map(|&(lo, hi)| rng.gen_range_f64(lo, hi))
                .collect();
            let rows: RawRows = (0..m)
                .map(|_| {
                    let cols: Vec<usize> = (0..n).filter(|_| rng.gen_index(0, 3) == 0).collect();
                    let coeffs: Vec<(usize, f64)> =
                        cols.into_iter().map(|j| (j, coeff(&mut rng))).collect();
                    let at_x0: f64 = coeffs.iter().map(|&(j, c)| c * x0[j]).sum();
                    match rng.gen_index(0, 3) {
                        0 => (coeffs, Sense::Le, at_x0.ceil()),
                        1 => (coeffs, Sense::Ge, at_x0.floor()),
                        _ => (coeffs, Sense::Eq, at_x0),
                    }
                })
                .collect();
            let objective: Vec<f64> = (0..n).map(|_| coeff(&mut rng)).collect();
            let p = lp(n, rows, objective, bounds.clone());
            let mut sx = BoundedSimplex::new(&p).expect("valid problem");
            sx.solve(500);
            let (mut lb, mut ub): (Vec<f64>, Vec<f64>) = bounds.into_iter().unzip();
            for _ in 0..4 {
                let j = rng.gen_index(0, n);
                let mid = ((lb[j] + ub[j]) / 2.0).floor();
                if rng.gen_index(0, 2) == 0 {
                    ub[j] = mid.max(lb[j]);
                } else {
                    lb[j] = (mid + 1.0).min(ub[j]);
                }
                sx.set_bounds(&lb, &ub);
                sx.solve(500);
            }
            pivots += sx.pivots();
        }
        assert!(pivots >= 500, "only {pivots} pivots exercised");
        assert!(CROSS_CHECKED.load(Ordering::Relaxed) - checked_before >= pivots);
    }

    /// The layer models of one pass over `assay`, as LP text: each layer
    /// posed over the devices and paths the heuristic left after the
    /// layers before it, the way the synthesis loop poses them.
    pub(crate) fn layer_models(assay: &mfhls_core::Assay) -> Vec<String> {
        use mfhls_core::{LayerSolver, TransportConfig, TransportTimes};
        let config = mfhls_core::SynthConfig::default();
        let layering = mfhls_core::layer_assay(assay, config.indeterminate_threshold)
            .expect("the assay layers");
        let transport = TransportTimes::initial(assay, &TransportConfig::default());
        let mut devices = Vec::new();
        let mut paths = std::collections::BTreeSet::new();
        let mut device_of = vec![None; assay.len()];
        let mut models = Vec::new();
        for (li, ops) in layering.layers().iter().enumerate() {
            let cross_inputs = assay
                .dependencies()
                .filter(|&(p, c)| layering.layer_of(c) == li && layering.layer_of(p) < li)
                .map(|(p, c)| (c, device_of[p.index()].expect("parent placed earlier")))
                .collect();
            let problem = mfhls_core::LayerProblem {
                assay,
                ops: ops.clone(),
                bindable: vec![true; devices.len()],
                devices: devices.clone(),
                max_devices: config.max_devices,
                transport: &transport,
                weights: config.weights,
                costs: &config.costs,
                existing_paths: paths.clone(),
                cross_inputs,
                component_oriented: true,
            };
            models.push(mfhls_core::ilp_model::export_lp(&problem));
            let sol = config.solver.solve(&problem).expect("the heuristic solves");
            for slot in &sol.slots {
                device_of[slot.op.index()] = Some(slot.device);
            }
            devices = sol.devices;
            paths.extend(sol.new_paths);
        }
        models
    }

    #[test]
    fn sparse_pivots_match_the_dense_reference_on_gen_small_layer_models() {
        // The corpus assays whose exact legs the portfolio admits, their
        // layer models searched by branch-and-bound under a pivot cap; the
        // scaled pivot rows there hold about a sixth of the columns.
        use mfhls_bench::gen::{generate, Profile};
        let checked_before = CROSS_CHECKED.load(Ordering::Relaxed);
        let mut pivots = 0;
        for seed in [1, 2] {
            for text in layer_models(&generate(Profile::Small, seed)) {
                let model = crate::write::tests::read_lp(&text);
                let config = crate::SolverConfig {
                    max_pivots: Some(300),
                    ..crate::SolverConfig::default()
                };
                let mut search =
                    crate::BranchAndBound::new(&model, &config).expect("the model is well formed");
                let _ = search.run();
                pivots += search.stats().pivots;
            }
        }
        assert!(pivots >= 600, "only {pivots} pivots exercised");
        assert!(CROSS_CHECKED.load(Ordering::Relaxed) - checked_before >= pivots);
    }

    /// Random LPs: compare against brute-force over a fine grid is too weak;
    /// instead verify (a) feasibility of the returned point and (b) that it
    /// is no worse than a large random sample of feasible points.
    #[test]
    fn randomised_sanity() {
        let mut rng = mfhls_graph::rng::SplitMix64::seed_from_u64(7);
        for trial in 0..100 {
            let n = rng.gen_index(1, 5);
            let m = rng.gen_index(0, 6);
            let bounds: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let lo: i64 = rng.gen_range_i64(-3, 3);
                    let hi = lo + rng.gen_range_i64(0, 5);
                    (lo as f64, hi as f64)
                })
                .collect();
            let rows: RawRows = (0..m)
                .map(|_| {
                    let coeffs: Vec<(usize, f64)> = (0..n)
                        .map(|j| (j, rng.gen_range_i64(-3, 4) as f64))
                        .collect();
                    let sense = match rng.gen_index(0, 3) {
                        0 => Sense::Le,
                        1 => Sense::Ge,
                        _ => Sense::Eq,
                    };
                    (coeffs, sense, rng.gen_range_i64(-6, 7) as f64)
                })
                .collect();
            let objective: Vec<f64> = (0..n).map(|_| rng.gen_range_i64(-3, 4) as f64).collect();
            let p = lp(n, rows.clone(), objective.clone(), bounds.clone());

            let feasible = |x: &[f64]| -> bool {
                rows.iter().all(|(coeffs, sense, rhs)| {
                    let lhs: f64 = coeffs.iter().map(|&(j, c)| c * x[j]).sum();
                    match sense {
                        Sense::Le => lhs <= rhs + 1e-6,
                        Sense::Ge => lhs >= rhs - 1e-6,
                        Sense::Eq => (lhs - rhs).abs() <= 1e-6,
                    }
                })
            };

            match solve_lp(&p).unwrap() {
                LpResult::Optimal { x, objective: obj } => {
                    assert!(feasible(&x), "trial {trial}: infeasible answer {x:?}");
                    for j in 0..n {
                        assert!(
                            x[j] >= bounds[j].0 - 1e-6 && x[j] <= bounds[j].1 + 1e-6,
                            "trial {trial}: bound violation"
                        );
                    }
                    // Sampled points must not beat the reported optimum.
                    for _ in 0..300 {
                        let cand: Vec<f64> = (0..n)
                            .map(|j| rng.gen_range_f64(bounds[j].0, bounds[j].1))
                            .collect();
                        if feasible(&cand) {
                            let co: f64 = (0..n).map(|j| objective[j] * cand[j]).sum();
                            assert!(
                                co >= obj - 1e-5,
                                "trial {trial}: sampled {co} beats reported {obj}"
                            );
                        }
                    }
                }
                LpResult::Infeasible => {
                    // No sampled point may be feasible.
                    for _ in 0..300 {
                        let cand: Vec<f64> = (0..n)
                            .map(|j| rng.gen_range_f64(bounds[j].0, bounds[j].1))
                            .collect();
                        assert!(
                            !feasible(&cand),
                            "trial {trial}: found feasible point for 'infeasible' LP"
                        );
                    }
                }
                LpResult::Unbounded => panic!("trial {trial}: bounded LP reported unbounded"),
            }
        }
    }
}
