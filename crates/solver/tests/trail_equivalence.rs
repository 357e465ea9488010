//! Engine v10 equivalence: trail mode (scopes on the undo log, the
//! `Session` default and the campaign's only mode) must be observably
//! identical to clone mode (each scope copies the interval store — the
//! engine-v3 baseline semantics, kept as this test's reference). Two
//! sessions driven by the same random script must return the same
//! SAT/UNSAT/error verdicts, the *same model* (the
//! campaign's reproducibility depends on exact models, not just
//! satisfiability), and the same [`SessionStats`] — the trail is a
//! storage strategy, not a different solver, so even the node and
//! reuse counters must not move. Scripts include `ObjEq` (the
//! dirty-scope rebuild path, where trail marks are taken on a store
//! that is about to be rebuilt from scratch) and `solve_under` /
//! `solve_under_prepared` (the probe hot path the trail was built
//! for).

use igjit_solver::{
    CmpOp, Constraint, Kind, LinExpr, PreparedConstraint, Session, VarId, VarSpec,
};
use proptest::prelude::*;

const NVARS: usize = 4;

/// Same constraint shape as the session-equivalence suite, including
/// `ObjEq` so the aliasing rebuild path runs under both modes.
fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let var = (0u32..NVARS as u32).prop_map(VarId);
    let kind = prop_oneof![
        Just(Kind::SmallInt),
        Just(Kind::Float),
        Just(Kind::Array),
        Just(Kind::Nil),
    ];
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    let lin = (var.clone(), -50i64..50)
        .prop_map(|(v, c)| LinExpr::var(v).offset(c));
    let lin2 = (var.clone(), var.clone(), -50i64..50)
        .prop_map(|(a, b, c)| LinExpr::var(a).plus(&LinExpr::var(b)).offset(c));
    prop_oneof![
        (var.clone(), kind.clone()).prop_map(|(v, k)| Constraint::kind_is(v, k)),
        (var.clone(), kind).prop_map(|(v, k)| Constraint::kind_is_not(v, k)),
        (cmp.clone(), lin.clone(), lin.clone()).prop_map(|(op, l, r)| Constraint::Int(op, l, r)),
        (cmp, lin2.clone(), -100i64..100)
            .prop_map(|(op, l, c)| Constraint::Int(op, l, LinExpr::constant(c))),
        (var.clone(), var.clone()).prop_map(|(a, b)| Constraint::ObjEq(a, b)),
        (var.clone(), var).prop_map(|(a, b)| Constraint::ObjNe(a, b)),
        (lin2).prop_map(Constraint::not_in_small_int_range),
    ]
}

/// One step of a random session script, mirrored onto both sessions.
#[derive(Clone, Debug)]
enum Step {
    PushAssert(Constraint),
    Assert(Constraint),
    Pop,
    Solve,
    SolveUnder(Constraint),
    SolveUnderPrepared(Constraint),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_constraint().prop_map(Step::PushAssert),
        arb_constraint().prop_map(Step::Assert),
        Just(Step::Pop),
        Just(Step::Solve),
        arb_constraint().prop_map(Step::SolveUnder),
        arb_constraint().prop_map(Step::SolveUnderPrepared),
    ]
}

fn pair() -> (Session, Session) {
    let mut trail = Session::new();
    trail.set_trail(true);
    let mut clone = Session::new();
    clone.set_trail(false);
    for s in [&mut trail, &mut clone] {
        for _ in 0..NVARS {
            s.add_var(VarSpec::any());
        }
    }
    (trail, clone)
}

/// Both sessions answered; verdicts and models must match exactly.
macro_rules! assert_same_answer {
    ($a:expr, $b:expr, $ctx:expr) => {
        prop_assert_eq!(&$a, &$b, "trail and clone modes diverge on {:?}", $ctx)
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary interleavings of scope ops and all three solve entry
    /// points stay in lockstep: verdict, model, and stats.
    #[test]
    fn prop_trail_matches_clone_under_arbitrary_scripts(
        steps in proptest::collection::vec(arb_step(), 1..14)
    ) {
        let (mut t, mut c) = pair();
        for step in steps {
            match step {
                Step::PushAssert(con) => {
                    t.push_assert(con.clone());
                    c.push_assert(con);
                }
                Step::Assert(con) => {
                    t.assert(con.clone());
                    c.assert(con);
                }
                Step::Pop => {
                    if t.depth() == 0 {
                        continue;
                    }
                    t.pop();
                    c.pop();
                }
                Step::Solve => {
                    let (ra, rb) = (t.solve(), c.solve());
                    assert_same_answer!(ra, rb, t.constraints());
                }
                Step::SolveUnder(h) => {
                    let (ra, rb) = (t.solve_under(&h), c.solve_under(&h));
                    assert_same_answer!(ra, rb, &h);
                    t.clear_cached_model();
                    c.clear_cached_model();
                }
                Step::SolveUnderPrepared(h) => {
                    let p = PreparedConstraint::new(h.clone());
                    let (ra, rb) = (t.solve_under_prepared(&p), c.solve_under_prepared(&p));
                    assert_same_answer!(ra, rb, &h);
                    t.clear_cached_model();
                    c.clear_cached_model();
                }
            }
            prop_assert_eq!(t.depth(), c.depth());
        }
        // The trail is invisible in the session counters: same solves,
        // same nodes, same rebuild and reuse counts.
        prop_assert_eq!(t.stats(), c.stats());
        // And it really ran in trail mode: any scoped solve marks.
        let ts = t.trail_stats();
        prop_assert_eq!(ts.trail_marks, ts.clones_avoided);
        prop_assert_eq!(c.trail_stats().trail_marks, 0);
    }

    /// The probe sweep shape: one shared path condition, then every
    /// hypothesis solved as a sibling scope. This is the hot path the
    /// trail replaces clones on, so it gets its own generator weighted
    /// toward many hypotheses against one path.
    #[test]
    fn prop_probe_sweep_matches_clone(
        path in proptest::collection::vec(arb_constraint(), 1..5),
        hyps in proptest::collection::vec(arb_constraint(), 1..10)
    ) {
        let (mut t, mut c) = pair();
        for con in &path {
            t.push_assert(con.clone());
            c.push_assert(con.clone());
        }
        for h in &hyps {
            let p = PreparedConstraint::new(h.clone());
            let (ra, rb) = (t.solve_under_prepared(&p), c.solve_under_prepared(&p));
            assert_same_answer!(ra, rb, &h);
            t.clear_cached_model();
            c.clear_cached_model();
        }
        prop_assert_eq!(t.stats(), c.stats());
    }

    /// Dirty-scope rebuilds: force an `ObjEq` into a scope (aliasing
    /// makes the engine rebuild from scratch at the next solve), then
    /// keep solving below and after popping it. The trail must unwind
    /// correctly across the rebuild boundary.
    #[test]
    fn prop_rebuild_boundary_matches_clone(
        before in proptest::collection::vec(arb_constraint(), 0..4),
        after in proptest::collection::vec(arb_constraint(), 1..5)
    ) {
        let (mut t, mut c) = pair();
        for con in &before {
            t.push_assert(con.clone());
            c.push_assert(con.clone());
        }
        let alias = Constraint::ObjEq(VarId(0), VarId(1));
        t.push_assert(alias.clone());
        c.push_assert(alias);
        for h in &after {
            let (ra, rb) = (t.solve_under(h), c.solve_under(h));
            assert_same_answer!(ra, rb, &h);
            t.clear_cached_model();
            c.clear_cached_model();
        }
        t.pop();
        c.pop();
        let (ra, rb) = (t.solve(), c.solve());
        assert_same_answer!(ra, rb, t.constraints());
        prop_assert_eq!(t.stats(), c.stats());
        prop_assert!(t.stats().rebuilds > 0,
                     "the ObjEq scope should have forced at least one rebuild");
    }

    /// Model reuse (`set_reuse_models`, the campaign's probe setting)
    /// composes with the trail: revalidated models and the fallback
    /// re-solves both match clone mode exactly.
    #[test]
    fn prop_model_reuse_composes_with_trail(
        path in proptest::collection::vec(arb_constraint(), 1..4),
        hyps in proptest::collection::vec(arb_constraint(), 1..8)
    ) {
        let (mut t, mut c) = pair();
        t.set_reuse_models(true);
        c.set_reuse_models(true);
        for con in &path {
            t.push_assert(con.clone());
            c.push_assert(con.clone());
        }
        for h in &hyps {
            let (ra, rb) = (t.solve_under(h), c.solve_under(h));
            assert_same_answer!(ra, rb, &h);
        }
        prop_assert_eq!(t.stats(), c.stats());
    }
}

/// Deterministic spot check: a quadruple loop leaves both sessions at
/// depth 0 with empty trails, and the trail-mode store is bit-restored
/// (a follow-up solve answers identically).
#[test]
fn quadruple_loop_restores_cleanly() {
    let (mut t, mut c) = (Session::new(), Session::new());
    t.set_trail(true);
    c.set_trail(false);
    for s in [&mut t, &mut c] {
        let x = s.add_var(VarSpec::any());
        let y = s.add_var(VarSpec::any());
        s.assert(Constraint::kind_is(x, Kind::SmallInt));
        s.assert(Constraint::Int(
            CmpOp::Eq,
            LinExpr::var(x).plus(&LinExpr::var(y)),
            LinExpr::constant(7),
        ));
    }
    let hyps = [
        Constraint::kind_is(VarId(1), Kind::SmallInt),
        Constraint::kind_is(VarId(1), Kind::Float),
        Constraint::Int(CmpOp::Lt, LinExpr::var(VarId(0)), LinExpr::constant(-100)),
        Constraint::kind_is(VarId(0), Kind::Array),
    ];
    for _ in 0..3 {
        for h in &hyps {
            t.push();
            c.push();
            t.assert(h.clone());
            c.assert(h.clone());
            assert_eq!(t.solve(), c.solve(), "diverged on {h:?}");
            t.pop();
            c.pop();
            t.clear_cached_model();
            c.clear_cached_model();
        }
    }
    assert_eq!(t.depth(), 0);
    assert_eq!(t.stats(), c.stats());
    let ts = t.trail_stats();
    assert!(ts.trail_marks > 0);
    assert_eq!(ts.trail_marks, ts.clones_avoided);
    assert!(ts.undone_ops > 0, "narrowings should have been unwound");
    assert_eq!(t.solve(), c.solve());
}
