//! The on-disk corpus file: load with graceful degradation, save
//! atomically.
//!
//! Layout, format v3 (all integers little-endian):
//!
//! ```text
//! "IGJC"  magic                                  4 bytes
//! version u16    3                               2 bytes
//! count   u8     number of sections              1 byte
//! then per section:
//!   tag        u8    1=explorations 2=code 3=outcomes
//!   fingerprint u64  content key (see fingerprint.rs)
//!   length      u64  payload bytes
//!   checksum    u64  wire::checksum of the payload
//!   payload     [u8; length]
//! ```
//!
//! A payload is a u64 pair count followed by that many encoded
//! (key, value) pairs, sorted by the key's encoded bytes, so equal
//! content always produces identical bytes. The checksum
//! ([`crate::wire::checksum`]) runs FNV-1a steps over the payload's
//! 8-byte words, then its tail bytes, then its length; every step is a
//! bijection of the running state, so a change confined to one word is
//! always caught. v3 differs from v2 only in that checksum (v2 hashed
//! byte by byte) — the payloads are byte-identical — and a v2 file
//! loads cold once, with the version-skew warning, and is rewritten.
//!
//! Both directions are single passes over borrowed data. A save
//! encodes each (key, value) pair once, straight from the live caches
//! ([`CorpusEncoder`]), sorts the pairs' spans by key bytes and
//! checksums them ([`CorpusImage`]), then streams the sorted pairs to
//! the file: the file image is never assembled in memory. A load
//! checks each section's checksum and decodes it in place.
//!
//! **The one hard rule:** a corpus file can never make a run wrong or
//! crash it — only warm or cold. Every anomaly (bad magic, version
//! skew, truncation, checksum mismatch, decode error, bytes after the
//! declared sections) drops the affected section (or the whole file)
//! and records a warning; a fingerprint mismatch is ordinary staleness
//! and drops the section silently. The sweep then recomputes exactly
//! what a cold run would.

use crate::codec::{from_bytes, Wire};
use crate::fingerprint::Fingerprints;
use crate::wire::{checksum, Checksum, Encoder};
use igjit_concolic::{ExplorationResult, InstrUnderTest};
use igjit_difftest::{InstructionOutcome, Target};
use igjit_jit::{CompileError, CompileKey, CompiledCode};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::Path;

/// File magic.
pub const MAGIC: [u8; 4] = *b"IGJC";
/// Format version; any skew degrades to cold. v2: engine v9 adds the
/// meta tier (`Target::MetaCompiled` wire tag 2, meta run counters on
/// `InstructionOutcome`). v3: the word-wide section checksum
/// ([`crate::wire::checksum`]); payloads are unchanged.
pub const VERSION: u16 = 3;

/// Bytes of a section header: tag, fingerprint, length, checksum.
const SECTION_HEADER: usize = 1 + 8 + 8 + 8;

const TAG_EXPLORATIONS: u8 = 1;
const TAG_CODE: u8 = 2;
const TAG_OUTCOMES: u8 = 3;

/// Exploration-cache key: instruction plus the probes flag (mirrors
/// `igjit_concolic::ExplorationCache`).
pub type ExplorationKey = (InstrUnderTest, bool);
/// Outcome key: one per (compiler target, instruction) pair.
pub type OutcomeKey = (Target, InstrUnderTest);

/// Everything a corpus file persists, as plain sorted pairs (the
/// in-memory cache structures live in their own crates; this is the
/// interchange form).
#[derive(Default)]
pub struct Corpus {
    /// Exploration-cache entries (curated paths, probe models,
    /// recorded walks).
    pub explorations: Vec<(ExplorationKey, ExplorationResult)>,
    /// Compiled-code-cache entries, including negative entries
    /// (compile refusals are results too).
    pub code: Vec<(CompileKey, Result<CompiledCode, CompileError>)>,
    /// Whole-pipeline per-instruction outcomes — the section that
    /// lets a fully-warm sweep skip explore/materialize/compile/
    /// simulate/compare outright.
    pub outcomes: Vec<(OutcomeKey, InstructionOutcome)>,
}

/// What a load found, for metrics and operator-facing warnings.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Entries loaded per section.
    pub explorations: usize,
    /// Compiled artifacts loaded.
    pub code: usize,
    /// Instruction outcomes loaded.
    pub outcomes: usize,
    /// Sections dropped for a fingerprint mismatch (ordinary
    /// staleness after a code change).
    pub stale_sections: usize,
    /// True when no section could be used at all (absent file,
    /// corruption, version skew).
    pub cold: bool,
    /// Human-readable anomaly descriptions (empty for a clean load
    /// and for a simply-absent file).
    pub warnings: Vec<String>,
}

/// Result of [`save`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SaveOutcome {
    /// The file already held exactly these bytes; nothing written.
    Unchanged,
    /// A new file was atomically moved into place.
    Written {
        /// Size of the file written.
        bytes: usize,
    },
}

/// One section payload under construction. Pairs are pushed in any
/// order and encoded exactly once each, back to back into one buffer;
/// sealing sorts their spans by the encoded key bytes, which is what
/// makes the payload canonical.
pub struct SectionEncoder<K, V> {
    buf: Encoder,
    /// Per pair: where it starts, where its key ends, where it ends.
    spans: Vec<(usize, usize, usize)>,
    _pairs: PhantomData<fn(&K, &V)>,
}

impl<K: Wire, V: Wire> SectionEncoder<K, V> {
    /// Encodes one (key, value) pair.
    pub fn push(&mut self, key: &K, value: &V) {
        let start = self.buf.len();
        key.enc(&mut self.buf);
        let key_end = self.buf.len();
        value.enc(&mut self.buf);
        self.spans.push((start, key_end, self.buf.len()));
    }
}

impl<K, V> SectionEncoder<K, V> {
    /// Sorts the pairs by key (a stable sort, so pairs with equal keys
    /// keep their push order) and checksums the payload they make.
    fn seal(mut self, tag: u8, fingerprint: u64) -> SealedSection {
        let bytes = self.buf.as_bytes();
        self.spans.sort_by(|a, b| bytes[a.0..a.1].cmp(&bytes[b.0..b.1]));
        let mut sum = Checksum::default();
        sum.update(&(self.spans.len() as u64).to_le_bytes());
        for &(start, _, end) in &self.spans {
            sum.update(&bytes[start..end]);
        }
        SealedSection {
            tag,
            fingerprint,
            checksum: sum.finish(),
            buf: self.buf.into_bytes(),
            spans: self.spans,
        }
    }
}

impl<K, V> Default for SectionEncoder<K, V> {
    fn default() -> Self {
        SectionEncoder { buf: Encoder::new(), spans: Vec::new(), _pairs: PhantomData }
    }
}

/// A section ready to write: its pairs still where they were encoded,
/// their spans in key order.
struct SealedSection {
    tag: u8,
    fingerprint: u64,
    checksum: u64,
    buf: Vec<u8>,
    spans: Vec<(usize, usize, usize)>,
}

impl SealedSection {
    /// Payload size: the pair count plus every pair.
    fn payload_len(&self) -> usize {
        8 + self.buf.len()
    }

    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&[self.tag])?;
        w.write_all(&self.fingerprint.to_le_bytes())?;
        w.write_all(&(self.payload_len() as u64).to_le_bytes())?;
        w.write_all(&self.checksum.to_le_bytes())?;
        w.write_all(&(self.spans.len() as u64).to_le_bytes())?;
        for &(start, _, end) in &self.spans {
            w.write_all(&self.buf[start..end])?;
        }
        Ok(())
    }
}

/// Builds a corpus file from borrowed entries: push every entry into
/// its section, then [`CorpusEncoder::seal`]. The campaign feeds it
/// straight from its live caches; [`encode`] feeds it an owned
/// [`Corpus`]. Equal content gives identical bytes either way.
#[derive(Default)]
pub struct CorpusEncoder {
    /// Exploration-cache entries.
    pub explorations: SectionEncoder<ExplorationKey, ExplorationResult>,
    /// Compiled-code-cache entries, refusals included.
    pub code: SectionEncoder<CompileKey, Result<CompiledCode, CompileError>>,
    /// Per-instruction outcomes.
    pub outcomes: SectionEncoder<OutcomeKey, InstructionOutcome>,
}

impl CorpusEncoder {
    /// Sorts and checksums every section.
    pub fn seal(self, fp: &Fingerprints) -> CorpusImage {
        CorpusImage {
            sections: [
                self.explorations.seal(TAG_EXPLORATIONS, fp.exploration),
                self.code.seal(TAG_CODE, fp.code),
                self.outcomes.seal(TAG_OUTCOMES, fp.outcomes),
            ],
        }
    }
}

/// A sealed corpus file: every byte of it is fixed, but the sorted
/// pairs are still where they were encoded, so [`save`] streams them
/// to disk without assembling the file in memory.
pub struct CorpusImage {
    sections: [SealedSection; 3],
}

impl CorpusImage {
    /// Size of the file in bytes.
    pub fn file_len(&self) -> usize {
        MAGIC.len()
            + 2
            + 1
            + self.sections.iter().map(|s| SECTION_HEADER + s.payload_len()).sum::<usize>()
    }

    /// Writes the file's bytes to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[self.sections.len() as u8])?;
        self.sections.iter().try_for_each(|s| s.write_to(w))
    }

    /// The file's bytes, allocated once at their exact size.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.file_len());
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }
}

/// Encodes an owned corpus (the same encoder as a campaign's save).
pub fn encode(corpus: &Corpus, fp: &Fingerprints) -> CorpusImage {
    let mut enc = CorpusEncoder::default();
    for (k, v) in &corpus.explorations {
        enc.explorations.push(k, v);
    }
    for (k, v) in &corpus.code {
        enc.code.push(k, v);
    }
    for (k, v) in &corpus.outcomes {
        enc.outcomes.push(k, v);
    }
    enc.seal(fp)
}

/// Decodes one section payload into `pairs` and its entry count into
/// `count`; false when the payload does not decode.
fn decode_section<K: Wire, V: Wire>(
    payload: &[u8],
    pairs: &mut Vec<(K, V)>,
    count: &mut usize,
) -> bool {
    match from_bytes::<Vec<(K, V)>>(payload) {
        Ok(decoded) => {
            *count = decoded.len();
            *pairs = decoded;
            true
        }
        Err(_) => false,
    }
}

/// Decodes a file image against the expected fingerprints. Never
/// panics; anomalies degrade per the module rules.
pub fn decode(bytes: &[u8], fp: &Fingerprints) -> (Corpus, LoadStats) {
    let mut corpus = Corpus::default();
    let mut stats = LoadStats::default();
    let cold = |stats: &mut LoadStats, why: String| {
        stats.cold = true;
        stats.warnings.push(why);
    };
    if bytes.len() < 7 {
        cold(&mut stats, "corpus file shorter than its header; ignoring it".to_string());
        return (corpus, stats);
    }
    if bytes[0..4] != MAGIC {
        cold(&mut stats, "corpus file has wrong magic; ignoring it".to_string());
        return (corpus, stats);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        cold(
            &mut stats,
            format!("corpus file is format v{version}, this build reads v{VERSION}; ignoring it"),
        );
        return (corpus, stats);
    }
    let count = bytes[6] as usize;
    let mut pos = 7usize;
    // Sections that decoded: a truncated table after at least one of
    // them is a warning, not a cold file.
    let mut usable = 0usize;
    let truncated = |stats: &mut LoadStats, usable: usize, why: &str| {
        if usable == 0 {
            stats.cold = true;
        }
        stats.warnings.push(why.to_string());
    };
    for _ in 0..count {
        if bytes.len() - pos < SECTION_HEADER {
            truncated(&mut stats, usable, "corpus section table truncated; dropping the rest");
            return (corpus, stats);
        }
        let tag = bytes[pos];
        let fingerprint =
            u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("len 8"));
        let length =
            u64::from_le_bytes(bytes[pos + 9..pos + 17].try_into().expect("len 8")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 17..pos + 25].try_into().expect("len 8"));
        pos += SECTION_HEADER;
        if bytes.len() - pos < length {
            truncated(&mut stats, usable, "corpus section payload truncated; dropping the rest");
            return (corpus, stats);
        }
        let payload = &bytes[pos..pos + length];
        pos += length;
        let expected = match tag {
            TAG_EXPLORATIONS => fp.exploration,
            TAG_CODE => fp.code,
            TAG_OUTCOMES => fp.outcomes,
            _ => {
                // Unknown section from a newer writer: skip, stay warm
                // for the sections we do understand.
                stats.warnings.push(format!("unknown corpus section tag {tag}; skipping it"));
                continue;
            }
        };
        if fingerprint != expected {
            // Ordinary staleness: the code that produced this section
            // has changed. Silent by design.
            stats.stale_sections += 1;
            continue;
        }
        if checksum(payload) != sum {
            stats
                .warnings
                .push(format!("corpus section {tag} failed its checksum; running it cold"));
            continue;
        }
        let decoded = match tag {
            TAG_EXPLORATIONS => {
                decode_section(payload, &mut corpus.explorations, &mut stats.explorations)
            }
            TAG_CODE => decode_section(payload, &mut corpus.code, &mut stats.code),
            TAG_OUTCOMES => decode_section(payload, &mut corpus.outcomes, &mut stats.outcomes),
            _ => unreachable!("unknown tags continue above"),
        };
        if decoded {
            usable += 1;
        } else {
            stats
                .warnings
                .push(format!("corpus section {tag} failed to decode; running it cold"));
        }
    }
    if pos < bytes.len() {
        stats.warnings.push(format!(
            "corpus file has {} bytes after its {count} declared sections; ignoring them",
            bytes.len() - pos
        ));
    }
    (corpus, stats)
}

/// Loads a corpus file. An absent file is a quiet cold start; any
/// other anomaly degrades per the module rules, with a warning in
/// [`LoadStats::warnings`].
pub fn load(path: &Path, fp: &Fingerprints) -> (Corpus, LoadStats) {
    match std::fs::read(path) {
        Ok(bytes) => decode(&bytes, fp),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            (Corpus::default(), LoadStats { cold: true, ..LoadStats::default() })
        }
        Err(e) => (
            Corpus::default(),
            LoadStats {
                cold: true,
                warnings: vec![format!("corpus file {} unreadable ({e}); running cold", path.display())],
                ..LoadStats::default()
            },
        ),
    }
}

/// Saves a corpus file atomically: skip the write when the existing
/// file already holds exactly these bytes, else write a temp file in
/// the same directory and rename it into place. The existing file is
/// read only when its length matches, and then compared as a stream;
/// a write streams the sorted pairs straight to the temp file.
pub fn save(path: &Path, image: &CorpusImage) -> io::Result<SaveOutcome> {
    let len = image.file_len();
    if std::fs::metadata(path).is_ok_and(|m| m.len() == len as u64) {
        if let Ok(file) = std::fs::File::open(path) {
            let existing = io::BufReader::new(file);
            let mut same = SameAs { existing, scratch: Vec::new(), same: true };
            if image.write_to(&mut same).is_ok() && same.same {
                return Ok(SaveOutcome::Unchanged);
            }
        }
    }
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("corpus"),
        std::process::id()
    ));
    let written = std::fs::File::create(&tmp).and_then(|file| {
        let mut w = io::BufWriter::with_capacity(1 << 16, file);
        image.write_to(&mut w)?;
        w.flush()
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(SaveOutcome::Written { bytes: len }),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A sink that checks the bytes written to it against a reader of the
/// same length.
struct SameAs<R> {
    existing: R,
    scratch: Vec<u8>,
    same: bool,
}

impl<R: io::Read> Write for SameAs<R> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.same {
            self.scratch.resize(buf.len(), 0);
            self.same = self.existing.read_exact(&mut self.scratch).is_ok() && self.scratch == buf;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprints {
        crate::fingerprint::fingerprints(true, &[igjit_machine::Isa::X86ish])
    }

    #[test]
    fn empty_corpus_round_trips() {
        let bytes = encode(&Corpus::default(), &fp()).to_vec();
        let (corpus, stats) = decode(&bytes, &fp());
        assert!(corpus.explorations.is_empty() && corpus.code.is_empty());
        assert!(!stats.cold);
        assert_eq!(stats.stale_sections, 0);
        assert!(stats.warnings.is_empty());
    }

    #[test]
    fn stale_fingerprints_drop_sections_silently() {
        let bytes = encode(&Corpus::default(), &fp()).to_vec();
        let other = Fingerprints { exploration: 1, code: 2, outcomes: 3 };
        let (_, stats) = decode(&bytes, &other);
        assert_eq!(stats.stale_sections, 3);
        assert!(stats.warnings.is_empty());
        assert!(!stats.cold);
    }

    #[test]
    fn version_skew_is_cold_with_warning() {
        let mut bytes = encode(&Corpus::default(), &fp()).to_vec();
        bytes[4] = bytes[4].wrapping_add(1);
        let (_, stats) = decode(&bytes, &fp());
        assert!(stats.cold);
        assert!(stats.warnings.iter().any(|w| w.contains("format v")));
    }

    #[test]
    fn v2_file_loads_cold_with_the_skew_warning() {
        let mut bytes = encode(&Corpus::default(), &fp()).to_vec();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let (_, stats) = decode(&bytes, &fp());
        assert!(stats.cold);
        assert_eq!(stats.warnings, ["corpus file is format v2, this build reads v3; ignoring it"]);
    }

    #[test]
    fn bytes_after_the_declared_sections_warn() {
        let mut bytes = encode(&Corpus::default(), &fp()).to_vec();
        // Declare one section of three: the other two are left over.
        bytes[6] = 1;
        let (_, stats) = decode(&bytes, &fp());
        assert!(!stats.cold);
        assert_eq!(stats.warnings.len(), 1, "{:?}", stats.warnings);
        assert!(stats.warnings[0].contains("after its 1 declared sections"));
        // Plain garbage after a well-formed file warns the same way.
        let mut bytes = encode(&Corpus::default(), &fp()).to_vec();
        bytes.extend_from_slice(b"junk");
        let (_, stats) = decode(&bytes, &fp());
        assert!(!stats.cold);
        assert!(stats.warnings[0].contains("4 bytes after its 3 declared sections"));
    }

    #[test]
    fn truncated_table_after_usable_sections_warns_without_going_cold() {
        let mut bytes = encode(&Corpus::default(), &fp()).to_vec();
        // Declare seven sections of three: the three load, the table
        // then runs out.
        bytes[6] = 7;
        let (_, stats) = decode(&bytes, &fp());
        assert!(!stats.cold, "three sections were usable");
        assert_eq!(stats.warnings, ["corpus section table truncated; dropping the rest"]);
        // With no usable section before the cut, the file is cold.
        let other = Fingerprints { exploration: 1, code: 2, outcomes: 3 };
        let (_, stats) = decode(&bytes, &other);
        assert!(stats.cold);
        assert_eq!(stats.stale_sections, 3);
    }

    #[test]
    fn save_skips_an_unchanged_file_and_rewrites_a_changed_one() {
        let path = std::env::temp_dir()
            .join(format!("igjit-corpus-save-{}.corpus", std::process::id()));
        let image = CorpusEncoder::default().seal(&fp());
        let bytes = image.file_len();
        assert_eq!(save(&path, &image).unwrap(), SaveOutcome::Written { bytes });
        assert_eq!(std::fs::read(&path).unwrap(), image.to_vec());
        assert_eq!(save(&path, &image).unwrap(), SaveOutcome::Unchanged);
        // Same length, different bytes (another fingerprint): read,
        // compared, rewritten.
        let other = CorpusEncoder::default().seal(&Fingerprints { exploration: 1, code: 2, outcomes: 3 });
        assert_eq!(other.file_len(), bytes);
        assert_eq!(save(&path, &other).unwrap(), SaveOutcome::Written { bytes });
        assert_eq!(std::fs::read(&path).unwrap(), other.to_vec());
        // Another length: rewritten without being read.
        let mut enc = CorpusEncoder::default();
        enc.code.push(
            &CompileKey::Native { id: 1, isa: igjit_machine::Isa::X86ish, nil: 0, true_obj: 0, false_obj: 0 },
            &Err(CompileError::Unsupported("test")),
        );
        let longer = enc.seal(&fp());
        assert_eq!(save(&path, &longer).unwrap(), SaveOutcome::Written { bytes: longer.file_len() });
        assert_eq!(std::fs::read(&path).unwrap(), longer.to_vec());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_point_degrades_gracefully() {
        let bytes = encode(&Corpus::default(), &fp()).to_vec();
        for cut in 0..bytes.len() {
            let (_, stats) = decode(&bytes[..cut], &fp());
            // Must not panic; header cuts are cold, payload cuts warn.
            let _ = stats;
        }
    }
}
