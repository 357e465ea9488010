//! Golden corpus payloads: the bytes a corpus section carries are a
//! fixed function of its content. A small corpus built by the live
//! pipeline (four outcomes, their explorations and their compiled
//! artifacts) must encode to section payloads whose FNV-1a hashes
//! match values recorded before the v3 file format (word-wide section
//! checksum, single-pass encoder) replaced v2 — the format change
//! touched the header's checksum field and version only, never a
//! payload byte.
//!
//! A change that is meant to move the pipeline's output (a new path,
//! another compiled byte) moves these hashes too; re-record them from
//! the failure message and say why in the change.

use std::path::{Path, PathBuf};

use igjit::{Campaign, CampaignConfig, CompilerKind, Instruction, InstrUnderTest, Isa,
            NativeMethodId, Target};
use igjit_corpus::file::{decode, encode};
use igjit_corpus::wire::fnv1a;

/// FNV-1a of each section payload (explorations, code, outcomes) of
/// [`golden_campaign`]'s corpus.
const GOLDEN: [(u8, u64); 3] =
    [(1, 0x393A_E3AC_89AC_D6A0), (2, 0x9292_EBF5_CE6E_1B0E), (3, 0xD318_C73B_D9E0_B26D)];

/// A scratch corpus path that cleans up after itself.
struct ScratchCorpus(PathBuf);

impl ScratchCorpus {
    fn new(tag: &str) -> ScratchCorpus {
        let path = std::env::temp_dir()
            .join(format!("igjit-golden-{tag}-{}.corpus", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ScratchCorpus(path)
    }
}

impl Drop for ScratchCorpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn config(corpus: &Path) -> CampaignConfig {
    CampaignConfig {
        isas: vec![Isa::X86ish],
        probes: false,
        threads: 1,
        corpus: Some(corpus.to_path_buf()),
        ..CampaignConfig::default()
    }
}

/// A campaign attached to `corpus` that has run four outcomes: two
/// bytecode tiers on `Add`, and two native methods (one of them a
/// planted defect, so the outcomes section carries differences).
fn golden_campaign(corpus: &Path) -> Campaign {
    let campaign = Campaign::new(config(corpus));
    let add = InstrUnderTest::Bytecode(Instruction::Add);
    for (instr, target) in [
        (add, Target::Bytecode(CompilerKind::SimpleStackBased)),
        (add, Target::Bytecode(CompilerKind::RegisterAllocating)),
        (InstrUnderTest::Native(NativeMethodId(1)), Target::NativeMethods),
        (InstrUnderTest::Native(NativeMethodId(14)), Target::NativeMethods),
    ] {
        campaign.outcome_for(instr, target);
    }
    campaign
}

/// (tag, payload) of every section of a file image.
fn sections(image: &[u8]) -> Vec<(u8, &[u8])> {
    let mut out = Vec::new();
    let mut pos = 7;
    for _ in 0..image[6] {
        let tag = image[pos];
        let len = u64::from_le_bytes(image[pos + 9..pos + 17].try_into().unwrap()) as usize;
        pos += 25;
        out.push((tag, &image[pos..pos + len]));
        pos += len;
    }
    assert_eq!(pos, image.len(), "sections must cover the file exactly");
    out
}

#[test]
fn section_payloads_match_the_golden_hashes() {
    let scratch = ScratchCorpus::new("payload");
    let campaign = golden_campaign(&scratch.0);
    campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    let image = std::fs::read(&scratch.0).expect("corpus written");
    let found: Vec<(u8, u64)> =
        sections(&image).into_iter().map(|(tag, payload)| (tag, fnv1a(payload))).collect();
    assert_eq!(found, GOLDEN, "section payload hashes moved: {found:#x?}");
}

#[test]
fn borrowed_save_and_owned_encode_write_identical_bytes() {
    let scratch = ScratchCorpus::new("owned");
    let campaign = golden_campaign(&scratch.0);
    campaign.save_corpus().expect("corpus attached").expect("save succeeds");
    let saved = std::fs::read(&scratch.0).expect("corpus written");
    let fps = igjit_corpus::fingerprints(false, &[Isa::X86ish]);
    let (corpus, stats) = decode(&saved, &fps);
    assert!(!stats.cold && stats.warnings.is_empty(), "{stats:?}");
    assert_eq!(corpus.outcomes.len(), 4);
    assert!(!corpus.explorations.is_empty() && !corpus.code.is_empty());
    assert!(encode(&corpus, &fps).to_vec() == saved, "owned encode differs from the campaign's save");
}
