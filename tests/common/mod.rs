//! Helpers shared by the integration suites. Each suite uses a subset.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use igjit::{Campaign, CampaignConfig, CampaignReport, CampaignRow, CompilerKind,
            ExplorationCache, ExplorationResult, Explorer, InstrUnderTest, InstructionOutcome,
            Isa, Metrics, PathVerdict, Verdict};
use igjit_concolic::{materialize_frame, probe_models, DEFAULT_MAX_PROBES};
use igjit_difftest::{classify, compare_runs, concrete_frame, run_compiled_for_instr,
                     run_oracle_on_with, Difference, DifferenceKind, EngineExit, SnapshotStats};
use igjit_heap::ObjectMemory;

/// Asserts two campaign reports agree on everything observable: the
/// Table 2 row, the Table 3 cause sets, and every instruction's path
/// counts, test errors and per-path verdicts. Metrics and timings may
/// differ.
pub fn assert_row_identical(a: &CampaignReport, b: &CampaignReport) {
    assert_eq!(a.row, b.row);
    assert_eq!(a.causes(), b.causes());
    assert_eq!(a.causes_by_category(), b.causes_by_category());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.causes(), y.causes());
        assert_eq!(x.paths_found, y.paths_found);
        assert_eq!(x.curated, y.curated);
        assert_eq!(x.witness_errors, y.witness_errors);
        assert_eq!(x.oracle_panics, y.oracle_panics);
        assert_eq!(x.verdicts.len(), y.verdicts.len());
        for (va, vb) in x.verdicts.iter().zip(&y.verdicts) {
            assert_eq!(va.interp_exit, vb.interp_exit);
            assert_eq!(va.verdict.is_difference(), vb.verdict.is_difference());
            assert_eq!(va.cause, vb.cause);
            assert_eq!(va.found_by_probe, vb.found_by_probe);
            assert_eq!(va.isa, vb.isa);
        }
    }
}

/// A campaign whose exploration cache is preloaded with explorations
/// of `instrs` run in the solver's clone mode — per-scope store clones
/// instead of the undo trail, in the walk and in the probe pass. The
/// campaign then replays those explorations exactly as it replays its
/// own, so its rows show whether the trail changes anything.
pub fn clone_mode_campaign(config: CampaignConfig, instrs: &[InstrUnderTest]) -> Campaign {
    let cache = ExplorationCache::new();
    let explorer = Explorer { hash_cons: config.hash_cons, solver_trail: false, ..Explorer::new() };
    for &instr in instrs {
        let mut explored = explorer.explore(instr);
        if config.probes {
            explored.attach_probe_models(DEFAULT_MAX_PROBES, config.hash_cons, false);
        }
        assert_eq!(explored.trail.trail_marks, 0, "{instr:?}: clone mode takes no trail marks");
        cache.preload((instr, config.probes), Arc::new(explored));
    }
    Campaign::with_exploration_cache(config, Arc::new(cache))
}

/// The instructions a report tested, in row order.
pub fn instructions(report: &CampaignReport) -> Vec<InstrUnderTest> {
    report.outcomes.iter().map(|o| o.instruction).collect()
}

/// The differential pipeline rebuilt the plain way, as the reference
/// the campaign's replay machinery is pinned against: every model is
/// materialized into a fresh heap for the oracle and again for each
/// ISA's compiled run (no seals, no restores), and compiled artifacts
/// come from a disabled code cache, so the simulator byte-fetches
/// them. `interp_predecode` picks the oracle's instruction source: the
/// cached predecoded program view the campaign executes, or the enum
/// value as given.
///
/// Replays the explorations `campaign` cached while producing
/// `report`, so both sides test the same paths and models. `kind` is
/// the report's bytecode tier, `None` for the native-method row.
pub fn reference_report(
    campaign: &Campaign,
    report: &CampaignReport,
    kind: Option<CompilerKind>,
    interp_predecode: bool,
) -> CampaignReport {
    let config = campaign.config();
    let mut row = CampaignRow { label: report.row.label.clone(), ..CampaignRow::default() };
    let outcomes: Vec<InstructionOutcome> = report
        .outcomes
        .iter()
        .map(|o| {
            let lookup =
                campaign.cache().get_or_explore(&Explorer::new(), o.instruction, config.probes);
            assert!(lookup.hit, "{:?} was explored by the campaign", o.instruction);
            reference_outcome(
                o.instruction,
                kind,
                &config.isas,
                config.probes,
                &lookup.exploration,
                interp_predecode,
            )
        })
        .collect();
    for o in &outcomes {
        row.absorb(o);
    }
    CampaignReport { row, outcomes, timings: Vec::new(), metrics: Metrics::default() }
}

/// One instruction through the reference pipeline of
/// [`reference_report`].
pub fn reference_outcome(
    instr: InstrUnderTest,
    kind: Option<CompilerKind>,
    isas: &[Isa],
    probes: bool,
    exploration: &ExplorationResult,
    interp_predecode: bool,
) -> InstructionOutcome {
    let curated = exploration.curated_paths();
    let mut verdicts = Vec::new();
    let (mut witness_errors, mut oracle_panics) = (0, 0);
    for (pi, path) in curated.iter().enumerate() {
        let models = match exploration.probe_models.get(pi) {
            _ if !probes => vec![path.model.clone()],
            Some(precomputed) => precomputed.clone(),
            None => probe_models(&exploration.state, path, DEFAULT_MAX_PROBES),
        };
        let fresh = |model| {
            let mut state = exploration.state.clone();
            let mut mem = ObjectMemory::new();
            let mat = materialize_frame(&mut state, model, &mut mem);
            (mem, mat)
        };
        let mut verdict = Verdict::Agree;
        let mut cause = None;
        let mut all_causes = Vec::new();
        let mut found_by_probe = false;
        let mut on_isa = None;
        let mut base_exit_label = String::new();
        'models: for (mi, model) in models.iter().enumerate() {
            let oracle = catch_unwind(AssertUnwindSafe(|| {
                let (mut mem, mat) = fresh(model);
                let input = concrete_frame(&mat.frame);
                let mut frame = input.clone();
                let exit = run_oracle_on_with(&mut mem, &mut frame, instr, interp_predecode);
                (exit, mem, input, mat.var_oops, mat.witness_errors.is_empty())
            }));
            let Ok((exit, oracle_mem, input, var_oops, witnessed)) = oracle else {
                oracle_panics += 1;
                continue;
            };
            if mi == 0 {
                base_exit_label = exit_label(&exit).to_string();
            }
            if !witnessed {
                witness_errors += 1;
                continue;
            }
            if !exit.is_testable() {
                continue;
            }
            for &isa in isas {
                let (mem, _) = fresh(model);
                let (compiled, mem) = run_compiled_for_instr(kind, isa, instr, &input, mem);
                let Verdict::Difference(d) =
                    compare_runs(&exit, &oracle_mem, &compiled, &mem, &var_oops)
                else {
                    continue;
                };
                let key = classify(instr, kind, &d);
                if !all_causes.contains(&key) {
                    all_causes.push(key.clone());
                }
                if cause.is_none() {
                    cause = Some(key);
                    verdict = Verdict::Difference(d);
                    found_by_probe = mi > 0;
                    on_isa = Some(isa);
                }
                if matches!(
                    verdict,
                    Verdict::Difference(Difference { kind: DifferenceKind::CompileRefused, .. })
                ) {
                    break 'models;
                }
            }
        }
        verdicts.push(PathVerdict {
            instruction: instr,
            interp_exit: base_exit_label,
            verdict,
            cause,
            all_causes,
            found_by_probe,
            isa: on_isa,
        });
    }
    InstructionOutcome {
        instruction: instr,
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        curated_out: exploration.curated_out.clone(),
        verdicts,
        explore_iterations: exploration.iterations,
        witness_errors,
        oracle_panics,
        snapshot: SnapshotStats::default(),
        meta_compiled_runs: 0,
        meta_trampolines: 0,
    }
}

fn exit_label(e: &EngineExit) -> &'static str {
    match e {
        EngineExit::Success { .. } | EngineExit::JumpTaken => "Success",
        EngineExit::Failure => "Failure",
        EngineExit::Return { .. } => "MethodReturn",
        EngineExit::Send { .. } => "MessageSend",
        EngineExit::InvalidFrame => "InvalidFrame",
        EngineExit::InvalidMemory => "InvalidMemoryAccess",
        EngineExit::SimulationError(_) => "SimulationError",
        EngineExit::EngineError(_) => "EngineError",
    }
}
