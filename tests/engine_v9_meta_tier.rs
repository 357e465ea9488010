//! Engine v9 invariants: the meta-compiled tier (#5) is purely
//! additive. Switching `meta_tier` on appends one Table 2 row and
//! changes nothing else — the native row and the three hand-written
//! bytecode tiers are byte-identical with the knob on and off, at any
//! thread count. The meta row itself must actually exercise the
//! partial evaluator: most of the catalog meta-compiles, the rest
//! trampolines (the tier is total either way).

mod common;

use common::assert_row_identical;
use igjit::{instruction_catalog, Campaign, CampaignConfig, FaultInjector, Isa};

fn config(meta_tier: bool, threads: usize) -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads,
        meta_tier,
        ..CampaignConfig::default()
    }
}

#[test]
fn tiers_one_to_four_are_identical_with_meta_tier_on_and_off() {
    let _off = FaultInjector::pinned_off();
    let on = Campaign::new(config(true, 1)).run_all();
    let off = Campaign::new(config(false, 1)).run_all();
    assert_eq!(on.len(), 5, "meta tier on appends a fifth row");
    assert_eq!(off.len(), 4, "meta tier off is the engine-v8 table");
    for (a, b) in on.iter().zip(&off) {
        assert_row_identical(a, b);
        // The hand-written tiers never touch the evaluator.
        assert_eq!(a.row.meta_compiled_runs, 0, "{}", a.row.label);
        assert_eq!(a.row.meta_trampolines, 0, "{}", a.row.label);
    }

    // The appended row is the meta tier, it covers the whole catalog,
    // and the partial evaluator — not the trampoline — carries it.
    let meta = &on[4];
    assert_eq!(meta.row.label, "Meta-Compiled (tier 5)");
    assert_eq!(meta.row.tested_instructions, instruction_catalog().len());
    assert!(meta.row.meta_compiled_runs > 0);
    assert!(
        meta.row.meta_coverage() >= 0.6,
        "meta tier must fully compile >= 60% of the catalog, got {:.1}% \
         ({} of {} instructions; {} compiled runs, {} trampolined)",
        100.0 * meta.row.meta_coverage(),
        meta.row.meta_full_instructions,
        meta.row.tested_instructions,
        meta.row.meta_compiled_runs,
        meta.row.meta_trampolines,
    );
}

#[test]
fn meta_tier_table_is_identical_at_any_thread_count() {
    let _off = FaultInjector::pinned_off();
    let seq = Campaign::new(config(true, 1)).run_all();
    let par = Campaign::new(config(true, 4)).run_all();
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_row_identical(a, b);
    }
}
