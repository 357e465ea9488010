//! Criterion microbench for the solver's hypothesis hot path (engine
//! v10): µs per sibling-hypothesis solve for the classic quadruple
//! (`push`/`assert`/`solve`/`pop`), [`Session::solve_under`], and
//! [`Session::solve_under_prepared`], each in trail mode (the
//! session default — scopes on the undo log) and clone mode (each
//! scope clones the interval store; the reference the trail is tested
//! against). The workload mirrors
//! the kind-probe sweep: one path condition asserted once, ~a dozen
//! sibling hypotheses solved against it per iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use igjit_solver::{
    CmpOp, Constraint, Kind, LinExpr, PreparedConstraint, Session, VarId, VarSpec,
};

const VARS: usize = 8;

fn specs() -> Vec<VarSpec> {
    (0..VARS).map(|_| VarSpec::any()).collect()
}

/// A VM-shaped path condition: kind-pinned integer operands with
/// bounds, an arithmetic relation, and branchy `Or` kind tests that
/// force the search to take (and unwind) disjunct scopes.
fn path_condition() -> Vec<Constraint> {
    let v = |i: usize| VarId(i as u32);
    vec![
        Constraint::kind_is(v(0), Kind::SmallInt),
        Constraint::kind_is(v(1), Kind::SmallInt),
        Constraint::Int(CmpOp::Ge, LinExpr::var(v(0)), LinExpr::constant(-100)),
        Constraint::Int(CmpOp::Le, LinExpr::var(v(0)), LinExpr::constant(100)),
        Constraint::Int(
            CmpOp::Eq,
            LinExpr::var(v(0)).plus(&LinExpr::var(v(1))),
            LinExpr::constant(7),
        ),
        Constraint::Or(vec![
            Constraint::kind_is(v(2), Kind::SmallInt),
            Constraint::kind_is(v(2), Kind::Float),
        ]),
        Constraint::Or(vec![
            Constraint::kind_is(v(3), Kind::Array),
            Constraint::kind_is(v(3), Kind::SmallInt),
        ]),
    ]
}

/// Sibling hypotheses in probe-sweep style: alternate kinds plus sign
/// probes on the shallow operands. Several are unsatisfiable under the
/// path condition, as in the real sweep.
fn hypotheses() -> Vec<Constraint> {
    let v = |i: usize| VarId(i as u32);
    let mut hs = Vec::new();
    for i in 0..4 {
        for kind in [Kind::Float, Kind::Array, Kind::ExternalAddress] {
            hs.push(Constraint::kind_is(v(i), kind));
        }
        hs.push(Constraint::And(vec![
            Constraint::kind_is(v(i), Kind::SmallInt),
            Constraint::Int(CmpOp::Lt, LinExpr::var(v(i)), LinExpr::constant(-1)),
        ]));
    }
    hs
}

fn session(trail: bool) -> Session {
    let mut s = Session::new();
    s.set_trail(trail);
    s.sync_vars(&specs());
    for c in path_condition() {
        s.assert(c);
    }
    s
}

fn bench_hypothesis_solves(c: &mut Criterion) {
    let hyps = hypotheses();
    let prepared: Vec<PreparedConstraint> =
        hyps.iter().map(|h| PreparedConstraint::new(h.clone())).collect();
    for (mode, trail) in [("trail", true), ("clone", false)] {
        let mut g = c.benchmark_group(format!("solver_{mode}"));
        g.sample_size(30);
        g.bench_function("quadruple", |b| {
            let mut s = session(trail);
            b.iter(|| {
                for h in &hyps {
                    s.push();
                    s.assert(h.clone());
                    let _ = std::hint::black_box(s.solve());
                    s.pop();
                    s.clear_cached_model();
                }
            })
        });
        g.bench_function("solve_under", |b| {
            let mut s = session(trail);
            b.iter(|| {
                for h in &hyps {
                    let _ = std::hint::black_box(s.solve_under(h));
                    s.clear_cached_model();
                }
            })
        });
        g.bench_function("solve_under_prepared", |b| {
            let mut s = session(trail);
            b.iter(|| {
                for p in &prepared {
                    let _ = std::hint::black_box(s.solve_under_prepared(p));
                    s.clear_cached_model();
                }
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_hypothesis_solves);
criterion_main!(benches);
