//! Property tests of the corpus wire format: randomized domain values
//! must survive an encode/decode round trip bit-for-bit, and random
//! corruption of a whole corpus file must degrade (cold sections,
//! warnings) without ever panicking or inventing entries, and must
//! never go unreported when it changes what the file decodes to.

use igjit_corpus::file::{decode, encode};
use igjit_corpus::{from_bytes, to_bytes, Fingerprints, LoadStats};
use igjit_solver::{Assignment, CmpOp, Constraint, Kind, LinExpr, Model, VarId};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = Kind> {
    (0usize..Kind::ALL.len()).prop_map(|i| Kind::ALL[i])
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

fn arb_lin() -> impl Strategy<Value = LinExpr> {
    (
        -1000i64..1000,
        proptest::collection::vec((-4i64..5, (0u32..8).prop_map(VarId)), 0..3),
    )
        .prop_map(|(constant, terms)| LinExpr { constant, terms })
}

/// Leaf constraints plus one level of `Or`/`And` nesting — deeper
/// nesting exercises the same recursive codec path.
fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let var = (0u32..8).prop_map(VarId);
    let leaf = prop_oneof![
        (var.clone(), arb_kind()).prop_map(|(v, k)| Constraint::kind_is(v, k)),
        (var.clone(), arb_kind()).prop_map(|(v, k)| Constraint::kind_is_not(v, k)),
        (arb_cmp(), arb_lin(), arb_lin()).prop_map(|(op, l, r)| Constraint::Int(op, l, r)),
        (var.clone(), var.clone()).prop_map(|(a, b)| Constraint::ObjEq(a, b)),
        (var.clone(), var).prop_map(|(a, b)| Constraint::ObjNe(a, b)),
    ];
    (
        proptest::collection::vec(leaf, 1..4),
        0u8..3,
    )
        .prop_map(|(leaves, wrap)| match wrap {
            0 => leaves.into_iter().next().unwrap(),
            1 => Constraint::Or(leaves),
            _ => Constraint::And(leaves),
        })
}

fn arb_model() -> impl Strategy<Value = Model> {
    proptest::collection::vec(
        (arb_kind(), any::<i64>(), any::<i32>(), any::<u32>())
            .prop_map(|(kind, int, float, alias)| Assignment {
                kind,
                int,
                // The vendored proptest has no float strategies; a
                // scaled integer covers sign, fractions and magnitude.
                float: f64::from(float) / 64.0,
                alias,
            }),
        0..6,
    )
    .prop_map(Model::from_assignments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_constraints_round_trip(c in arb_constraint()) {
        let rt: Constraint = from_bytes(&to_bytes(&c)).unwrap();
        prop_assert_eq!(rt, c);
    }

    #[test]
    fn prop_models_round_trip(m in arb_model()) {
        let rt: Model = from_bytes(&to_bytes(&m)).unwrap();
        prop_assert_eq!(rt, m);
    }

    #[test]
    fn prop_constraint_vectors_round_trip(
        cs in proptest::collection::vec(arb_constraint(), 0..8)
    ) {
        let rt: Vec<Constraint> = from_bytes(&to_bytes(&cs)).unwrap();
        prop_assert_eq!(rt, cs);
    }
}

/// A small but non-empty corpus to corrupt: one real exploration and
/// its outcomes, produced by the live pipeline so every section is
/// populated.
fn sample_corpus_bytes(fp: &Fingerprints) -> Vec<u8> {
    let exploration = igjit_concolic::Explorer::new()
        .explore(igjit_concolic::InstrUnderTest::Bytecode(igjit_bytecode::Instruction::Add));
    let corpus = igjit_corpus::Corpus {
        explorations: vec![(
            (igjit_concolic::InstrUnderTest::Bytecode(igjit_bytecode::Instruction::Add), false),
            exploration,
        )],
        ..igjit_corpus::Corpus::default()
    };
    encode(&corpus, fp).to_vec()
}

/// Whether a decode reported an anomaly: a cold file, a stale
/// section or a warning.
fn reported(stats: &LoadStats) -> bool {
    stats.cold || stats.stale_sections > 0 || !stats.warnings.is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any single-bit flip anywhere in the file decodes without a
    /// panic, never yields *more* entries than the pristine file, and
    /// either decodes to the pristine content or is reported: a flip
    /// in a payload is caught by the checksum (warning), in a
    /// fingerprint by staleness, in the file header by a cold load.
    #[test]
    fn prop_flipped_byte_degrades_gracefully(pos in any::<u32>(), bit in 0u8..8) {
        let fp = igjit_corpus::fingerprints(false, &[igjit_machine::Isa::X86ish]);
        let pristine = sample_corpus_bytes(&fp);
        let mut bytes = pristine.clone();
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        let (corpus, stats) = decode(&bytes, &fp);
        prop_assert!(corpus.explorations.len() <= 1);
        prop_assert!(corpus.code.is_empty());
        prop_assert!(corpus.outcomes.is_empty());
        prop_assert!(
            reported(&stats) || encode(&corpus, &fp).to_vec() == pristine,
            "flip of byte {} bit {} went unreported and changed the content", pos, bit
        );
    }

    /// Any truncation decodes without a panic and without inventing
    /// entries.
    #[test]
    fn prop_truncation_degrades_gracefully(cut in any::<u32>()) {
        let fp = igjit_corpus::fingerprints(false, &[igjit_machine::Isa::X86ish]);
        let bytes = sample_corpus_bytes(&fp);
        let cut = cut as usize % bytes.len();
        let (corpus, _stats) = decode(&bytes[..cut], &fp);
        prop_assert!(corpus.explorations.len() <= 1);
        prop_assert!(corpus.outcomes.is_empty());
    }
}

/// Every bit of the file header and of each section header, flipped
/// one at a time, is reported; so is every flip on a fixed stride
/// through each payload, and each of those by the section checksum.
#[test]
fn every_header_flip_and_strided_payload_flip_is_reported() {
    const STRIDE: usize = 13;
    let fp = igjit_corpus::fingerprints(false, &[igjit_machine::Isa::X86ish]);
    let pristine = sample_corpus_bytes(&fp);
    let (_, stats) = decode(&pristine, &fp);
    assert!(!reported(&stats), "the pristine sample must load clean: {stats:?}");

    let mut headers: Vec<usize> = (0..7).collect();
    let mut payloads: Vec<usize> = Vec::new();
    let mut pos = 7;
    for _ in 0..pristine[6] {
        let len = u64::from_le_bytes(pristine[pos + 9..pos + 17].try_into().unwrap()) as usize;
        headers.extend(pos..pos + 25);
        payloads.extend((pos + 25..pos + 25 + len).step_by(STRIDE));
        pos += 25 + len;
    }
    assert_eq!(pos, pristine.len());
    assert!(payloads.len() > 100, "the stride must sample the payloads");

    let flip = |at: usize, bit: usize| {
        let mut bytes = pristine.clone();
        bytes[at] ^= 1 << bit;
        decode(&bytes, &fp).1
    };
    for &at in &headers {
        for bit in 0..8 {
            let stats = flip(at, bit);
            assert!(reported(&stats), "header flip of byte {at} bit {bit} went unreported");
        }
    }
    for (i, &at) in payloads.iter().enumerate() {
        let bit = i % 8;
        let stats = flip(at, bit);
        assert!(
            stats.warnings.iter().any(|w| w.contains("failed its checksum")),
            "payload flip of byte {at} bit {bit} escaped the checksum: {stats:?}"
        );
    }
}
