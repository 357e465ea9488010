//! Engine v10 invariants: the trail-based solver must be invisible in
//! every campaign output. The campaign always backtracks on the undo
//! trail; the solver's clone mode (per-scope store clones) stays as the
//! reference. Table 2 rows, Table 3 cause sets and per-path verdicts
//! are byte-identical whether the campaign's explorations were walked
//! and probed on the trail or in clone mode — on both rows, under the
//! other campaign knobs, and under an armed mutant (replacing store
//! clones with an undo log must not mask a planted defect by
//! perturbing which models the probes hand the oracle).

mod common;

use common::{assert_row_identical, clone_mode_campaign, instructions};
use igjit::{Campaign, CampaignConfig, CompilerKind, FaultInjector, InstrUnderTest, Instruction,
            Isa};

fn bytecode_config() -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        ..CampaignConfig::default()
    }
}

#[test]
fn bytecode_row_is_identical_with_solver_trail_on_and_off() {
    // The whole-catalog bytecode row: exploration's negation walk is
    // where sibling scopes are pushed and unwound thousands of times,
    // so a mis-unwound trail entry would leak one scope's narrowing
    // into the next sibling's model and change a verdict here.
    let _off = FaultInjector::pinned_off();
    let on = Campaign::new(bytecode_config()).run_bytecodes(CompilerKind::StackToRegister);
    let off = clone_mode_campaign(bytecode_config(), &instructions(&on))
        .run_bytecodes(CompilerKind::StackToRegister);
    assert_row_identical(&on, &off);
}

#[test]
fn native_row_is_identical_with_solver_trail_on_and_off() {
    // Native methods with the probe pass on: the probe sweep runs
    // every hypothesis as mark/propagate/search/unwind against the
    // live store instead of a clone, so it is the trail's main
    // customer.
    let _off = FaultInjector::pinned_off();
    let config = CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: true,
        threads: 1,
        ..CampaignConfig::default()
    };
    let on = Campaign::new(config.clone()).run_native_methods();
    let off = clone_mode_campaign(config, &instructions(&on)).run_native_methods();
    assert_row_identical(&on, &off);
}

#[test]
fn bytecode_row_is_identical_with_trail_stacked_on_other_knobs() {
    // The trail must compose with the other knobs: with the code
    // cache, hash-consing and family sharing all off, clone-mode
    // explorations still give the same row. Hash-consing matters here
    // because it changes how the walk's session normalizes what the
    // trail then unwinds.
    let _off = FaultInjector::pinned_off();
    let config = CampaignConfig {
        code_cache: false,
        hash_cons: false,
        family_share: false,
        ..bytecode_config()
    };
    let on = Campaign::new(config.clone()).run_bytecodes(CompilerKind::StackToRegister);
    let off = clone_mode_campaign(config, &instructions(&on))
        .run_bytecodes(CompilerKind::StackToRegister);
    assert_row_identical(&on, &off);
}

#[test]
fn armed_mutant_verdicts_do_not_depend_on_solver_trail() {
    // A killable mutant must look exactly as dead with the trail as
    // with per-scope clones: same difference counts, same verdicts.
    // The trail only changes how scope state is restored, but a bug in
    // the undo log would change which witness inputs get generated —
    // and a lucky witness set could mask (or fabricate) a kill.
    let less_than = [InstrUnderTest::Bytecode(Instruction::LessThan)];
    let (on, off) = {
        let _armed = FaultInjector::arm(igjit::mutate::ops::FLIP_COMPARE_COND).unwrap();
        let run = |campaign: Campaign| {
            campaign.test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
        };
        (
            run(Campaign::new(bytecode_config())),
            run(clone_mode_campaign(bytecode_config(), &less_than)),
        )
    };
    assert_eq!(on.paths_found, off.paths_found);
    assert_eq!(on.curated, off.curated);
    assert_eq!(on.difference_count(), off.difference_count());
    assert_eq!(on.causes(), off.causes());
    // And the mutant still visibly diverges from a disarmed run, so
    // the comparison above is not vacuous.
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::new(bytecode_config())
            .test_bytecode_instruction(Instruction::LessThan, CompilerKind::StackToRegister)
    };
    assert_ne!(baseline.difference_count(), on.difference_count(),
               "flipped comparisons must diverge from the interpreter");
}
