//! The pinned reference: the default five-tier sweep (both ISAs, kind
//! probing on, every engine layer on its one production path) must
//! produce exactly these Table 2 rows. A change that moves any number
//! here changed behaviour, not just speed, and has to argue the new
//! row in the same change.

use igjit::mutate::ops;
use igjit::{Campaign, CampaignConfig, CampaignReport, CompilerKind, FaultInjector};

/// Table 2 per row: (tested instructions, interpreter paths, curated
/// paths, differences). The rows total 704/2801/2797/506.
type Row = (usize, usize, usize, usize);

const GOLDEN: [(&str, Row); 5] = [
    ("Native Methods (primitives)", (112, 753, 753, 437)),
    ("Simple Stack BC Compiler", (148, 512, 511, 37)),
    ("Stack-to-Register BC Compiler", (148, 512, 511, 16)),
    ("Linear-Scan Allocator BC Compiler", (148, 512, 511, 16)),
    ("Meta-Compiled (tier 5)", (148, 512, 511, 0)),
];

/// Both register tiers under `flip-compare-cond` (mutant 106): the
/// planted comparison bug adds 12 differing paths to each.
const FLIP_COMPARE_COND_REGISTER_TIERS: Row = (148, 512, 511, 28);

fn config() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    }
}

fn row(report: &CampaignReport) -> Row {
    let r = &report.row;
    (
        r.tested_instructions,
        r.interpreter_paths,
        r.curated_paths,
        r.differences,
    )
}

#[test]
fn default_sweep_matches_the_pinned_rows() {
    let _off = FaultInjector::pinned_off();
    let reports = Campaign::new(config()).run_all();
    let got: Vec<(&str, Row)> = reports
        .iter()
        .map(|r| (r.row.label.as_str(), row(r)))
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn armed_mutant_rows_match_the_pinned_reference() {
    let _armed = FaultInjector::arm(ops::FLIP_COMPARE_COND).expect("catalog mutant arms");
    let campaign = Campaign::new(config());
    for kind in [
        CompilerKind::StackToRegister,
        CompilerKind::RegisterAllocating,
    ] {
        let report = campaign.run_bytecodes(kind);
        assert_eq!(
            row(&report),
            FLIP_COMPARE_COND_REGISTER_TIERS,
            "{}",
            report.row.label
        );
    }
}
