//! The machine's predecoded fetch must be invisible in every campaign
//! output: Table 2 rows, Table 3 cause sets and per-path verdicts are
//! identical whether compiled code is predecoded or byte-fetched — the
//! predecoded view changes how instructions are *fetched*, never what
//! they *do*. Which fetch runs follows from the code cache: an enabled
//! cache predecodes each entry once for replay, a disabled one hands
//! out run-once artifacts the simulator byte-fetches. And because the
//! predecoded view is derived from the compiled artifact **after**
//! fault injection, an armed mutant's planted bug must surface
//! identically on both paths: predecoding must not mask (or invent)
//! kills, or the mutation score would silently depend on the cache.

mod common;

use std::time::Duration;

use common::assert_row_identical;
use igjit::mutate::ops;
use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, FaultInjector, Isa};

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

fn config(predecode: bool) -> CampaignConfig {
    CampaignConfig {
        isas: BOTH.to_vec(),
        probes: true,
        threads: 1,
        code_cache: predecode,
        ..CampaignConfig::default()
    }
}

/// Predecoding ran on the `on` side only: building views takes time,
/// byte fetch builds none.
fn assert_fetch_paths(on: &CampaignReport, off: &CampaignReport) {
    assert!(on.metrics.stages.decode > Duration::ZERO, "{}", on.row.label);
    assert_eq!(off.metrics.stages.decode, Duration::ZERO, "{}", off.row.label);
}

#[test]
fn native_row_is_identical_with_predecode_on_and_off() {
    let _off = FaultInjector::pinned_off();
    let on = Campaign::new(config(true)).run_native_methods();
    let off = Campaign::new(config(false)).run_native_methods();
    assert_row_identical(&on, &off);
    assert_fetch_paths(&on, &off);
}

#[test]
fn bytecode_rows_are_identical_with_predecode_on_and_off() {
    let _off = FaultInjector::pinned_off();
    for kind in CompilerKind::ALL {
        let on = Campaign::new(config(true)).run_bytecodes(kind);
        let off = Campaign::new(config(false)).run_bytecodes(kind);
        assert_row_identical(&on, &off);
        assert_fetch_paths(&on, &off);
    }
}

/// An armed compiler mutant's planted bug reaches the verdicts through
/// the predecoded fetch exactly as through the byte decoder: same
/// rows, same cause sets — and visibly different from the disarmed
/// baseline, so the kill is real on both paths.
#[test]
fn armed_mutant_is_not_masked_by_predecoding() {
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::new(config(true)).run_bytecodes(CompilerKind::StackToRegister)
    };
    let (mutant_on, mutant_off) = {
        let _armed =
            FaultInjector::arm(ops::FLIP_COMPARE_COND).expect("catalog mutant arms");
        (
            Campaign::new(config(true)).run_bytecodes(CompilerKind::StackToRegister),
            Campaign::new(config(false)).run_bytecodes(CompilerKind::StackToRegister),
        )
    };
    // The fault surfaces identically whether or not fetch is predecoded…
    assert_row_identical(&mutant_on, &mutant_off);
    // …and it does surface: the mutant run deviates from the baseline
    // on both paths (the kill signal the mutation foundry counts).
    assert_ne!(
        baseline.row, mutant_on.row,
        "flip-compare-cond must change the StackToRegister row"
    );
}
