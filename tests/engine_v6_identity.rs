//! Engine v6 invariants: hash-consed constraint interning and
//! family-shared exploration must be invisible in every campaign
//! output. Table 2 rows, Table 3 cause sets and per-path verdicts are
//! byte-identical with each knob on and off — only the metrics
//! (family replay counters) may, and must, differ.

mod common;

use common::assert_row_identical;
use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, Isa};

fn run_bytecode_row(config: CampaignConfig) -> CampaignReport {
    Campaign::new(config).run_bytecodes(CompilerKind::StackToRegister)
}

#[test]
fn bytecode_row_is_identical_with_family_sharing_on_and_off() {
    // The whole-catalog production-tier row: every opcode family
    // (const pushes, short/long jumps, constant returns) must replay
    // to exactly the outcome a from-scratch exploration produces.
    let run = |family_share: bool| {
        run_bytecode_row(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            family_share,
            ..CampaignConfig::default()
        })
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    // The metrics are the only allowed difference — and sharing must
    // actually bite: no fallbacks, and every non-representative family
    // member served by replay (6 const pushes, 2 constant returns and
    // 21 short jumps in the current catalog).
    assert_eq!(off.metrics.family_hits, 0);
    assert_eq!(off.metrics.family_fallbacks, 0);
    assert_eq!(on.metrics.family_fallbacks, 0, "every member must replay cleanly");
    assert!(
        on.metrics.family_hits >= 25,
        "family sharing must cover the big opcode groups: {} hits",
        on.metrics.family_hits
    );
}

#[test]
fn bytecode_row_is_identical_with_hash_consing_on_and_off() {
    let run = |hash_cons: bool| {
        run_bytecode_row(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            hash_cons,
            ..CampaignConfig::default()
        })
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
}

#[test]
fn native_row_is_identical_with_family_sharing_on_and_off() {
    // Native methods have no bytecode families; the knob must be a
    // pure no-op there, counters included.
    let run = |family_share: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: true,
            threads: 1,
            family_share,
            ..CampaignConfig::default()
        })
        .run_native_methods()
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    assert_eq!(on.metrics.family_hits, 0);
    assert_eq!(on.metrics.family_fallbacks, 0);
}
