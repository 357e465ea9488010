//! The persistent corpus must be invisible in every output (engine
//! v7): a warm re-run replays row-identical reports with every
//! instruction served from the corpus, and a corrupted corpus file
//! silently degrades to a cold run — same rows, no panic. Only the
//! metrics (corpus hit/miss counters) may, and must, differ.

mod common;

use common::assert_row_identical;
use std::path::PathBuf;

use igjit::{Campaign, CampaignConfig, CompilerKind, Isa};

/// A scratch corpus path that cleans up after itself.
struct ScratchCorpus(PathBuf);

impl ScratchCorpus {
    fn new(tag: &str) -> ScratchCorpus {
        let path = std::env::temp_dir()
            .join(format!("igjit-test-{tag}-{}.corpus", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ScratchCorpus(path)
    }
}

impl Drop for ScratchCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn config(corpus: Option<PathBuf>) -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        corpus,
        ..CampaignConfig::default()
    }
}

#[test]
fn warm_rerun_is_row_identical_and_fully_corpus_served() {
    let scratch = ScratchCorpus::new("warm");

    // Reference run without any corpus involvement.
    let reference = Campaign::new(config(None)).run_bytecodes(CompilerKind::SimpleStackBased);

    // Cold run: empty corpus, every instruction is a miss, then save.
    let cold_campaign = Campaign::new(config(Some(scratch.0.clone())));
    assert!(cold_campaign.corpus_load_stats().expect("corpus attached").cold);
    let cold = cold_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &cold);
    assert_eq!(cold.metrics.corpus_hits, 0);
    assert_eq!(cold.metrics.corpus_misses, cold.row.tested_instructions);
    let outcome = cold_campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(outcome, igjit_corpus::SaveOutcome::Written { .. }));

    // Warm run: a fresh campaign over the saved file replays the row
    // without recomputing a single instruction.
    let warm_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let stats = warm_campaign.corpus_load_stats().expect("corpus attached");
    assert!(!stats.cold, "saved corpus must load warm: {:?}", stats.warnings);
    assert_eq!(stats.outcomes, cold.row.tested_instructions);
    let warm = warm_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &warm);
    assert_eq!(warm.metrics.corpus_hits, warm.row.tested_instructions);
    assert_eq!(warm.metrics.corpus_misses, 0);

    // Re-saving an unchanged corpus must not rewrite the file.
    let outcome = warm_campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    assert!(matches!(outcome, igjit_corpus::SaveOutcome::Unchanged));
}

#[test]
fn corrupted_corpus_degrades_to_a_cold_run_with_identical_rows() {
    let scratch = ScratchCorpus::new("corrupt");

    let reference = Campaign::new(config(None)).run_bytecodes(CompilerKind::SimpleStackBased);

    let cold_campaign = Campaign::new(config(Some(scratch.0.clone())));
    cold_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    cold_campaign.save_corpus().expect("corpus attached").expect("save succeeds");

    // Flip a byte in the middle of the file: the damaged section's
    // checksum fails and the run recomputes it — same rows, no panic.
    let mut bytes = std::fs::read(&scratch.0).expect("corpus written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&scratch.0, &bytes).expect("rewrite");

    let damaged_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let damaged = damaged_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &damaged);
    assert_eq!(damaged.metrics.corpus_hits + damaged.metrics.corpus_misses,
               damaged.row.tested_instructions);

    // Truncation likewise: keep the header plus half a section.
    std::fs::write(&scratch.0, &bytes[..bytes.len() / 3]).expect("truncate");
    let truncated_campaign = Campaign::new(config(Some(scratch.0.clone())));
    let truncated = truncated_campaign.run_bytecodes(CompilerKind::SimpleStackBased);
    assert_row_identical(&reference, &truncated);
}
