//! Engine v8 invariants: the predecoded interpreter pipeline must be
//! invisible in every campaign output. The campaign's oracle always
//! executes each bytecode decoded from its cached predecoded program
//! view; the reference pipeline of `common::reference_report` can run
//! the oracle on the instruction's enum value instead. Table 2 rows,
//! Table 3 cause sets and per-path verdicts are byte-identical either
//! way — on both rows, under the other campaign knobs, and under an
//! armed mutant (predecoding must not mask a planted defect by
//! changing how the oracle sees it).

mod common;

use common::{assert_row_identical, reference_outcome, reference_report};
use igjit::{Campaign, CampaignConfig, CompilerKind, Explorer, FaultInjector, InstrUnderTest,
            Instruction, Isa};

fn bytecode_config() -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        ..CampaignConfig::default()
    }
}

#[test]
fn bytecode_row_is_identical_with_interp_predecode_on_and_off() {
    // The whole-catalog bytecode row: the predecoded single-step
    // oracle consumes the instruction from the cached encoded-and-
    // redecoded program view, so any encode/decode drift would show
    // up here as a verdict change.
    let _off = FaultInjector::pinned_off();
    let kind = CompilerKind::StackToRegister;
    let campaign = Campaign::new(bytecode_config());
    let on = campaign.run_bytecodes(kind);
    let off = reference_report(&campaign, &on, Some(kind), false);
    assert_row_identical(&on, &off);
}

#[test]
fn native_row_is_identical_with_interp_predecode_on_and_off() {
    // Native methods execute through `run_native` whichever source the
    // bytecode oracle uses, so this pins the row itself: the probe
    // pass is on so the kind-probe re-solve paths are covered too.
    let _off = FaultInjector::pinned_off();
    let campaign = Campaign::new(CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: true,
        threads: 1,
        ..CampaignConfig::default()
    });
    let on = campaign.run_native_methods();
    let off = reference_report(&campaign, &on, None, false);
    assert_row_identical(&on, &off);
}

#[test]
fn bytecode_row_is_identical_with_predecode_stacked_on_other_knobs() {
    // The oracle's source must compose with the other knobs: with the
    // code cache, hash-consing and family sharing all off on the
    // campaign side, the predecoded oracle still matches the plain
    // one.
    let _off = FaultInjector::pinned_off();
    let kind = CompilerKind::StackToRegister;
    let campaign = Campaign::new(CampaignConfig {
        code_cache: false,
        hash_cons: false,
        family_share: false,
        ..bytecode_config()
    });
    let on = campaign.run_bytecodes(kind);
    let off = reference_report(&campaign, &on, Some(kind), false);
    assert_row_identical(&on, &off);
}

#[test]
fn armed_mutant_verdicts_do_not_depend_on_interp_predecode() {
    // A killable mutant must look exactly as dead with the predecoded
    // oracle as with the plain dispatch: same difference counts, same
    // verdicts. Otherwise predecoding could mask (or fabricate) kills
    // and corrupt the mutation-campaign scores.
    let kind = CompilerKind::StackToRegister;
    let instr = InstrUnderTest::Bytecode(Instruction::LessThan);
    let campaign = Campaign::new(bytecode_config());
    let (on, off) = {
        let _armed = FaultInjector::arm(igjit::mutate::ops::FLIP_COMPARE_COND).unwrap();
        let on = campaign.test_bytecode_instruction(Instruction::LessThan, kind);
        let exploration = campaign.cache().get_or_explore(&Explorer::new(), instr, false);
        let config = campaign.config();
        let off = reference_outcome(
            instr,
            Some(kind),
            &config.isas,
            config.probes,
            &exploration.exploration,
            false,
        );
        (on, off)
    };
    assert_eq!(on.paths_found, off.paths_found);
    assert_eq!(on.curated, off.curated);
    assert_eq!(on.difference_count(), off.difference_count());
    assert_eq!(on.causes(), off.causes());
    // And the mutant still visibly diverges from a disarmed run, so
    // the comparison above is not vacuous.
    let baseline = {
        let _off = FaultInjector::pinned_off();
        Campaign::new(bytecode_config()).test_bytecode_instruction(Instruction::LessThan, kind)
    };
    assert_ne!(baseline.difference_count(), on.difference_count(),
               "flipped comparisons must diverge from the interpreter");
}
