//! Golden compile artifacts: the byte-identity oracle of the JIT's
//! back half.
//!
//! A fixed battery compiles every catalog instruction on the three
//! bytecode front-ends and both ISAs over a few input shapes (empty
//! stack, 3-deep stack, 3-deep stack with 4 temps), a set of
//! 5-instruction sequences drawn from the sequence-fuzzing pool, a
//! spill-forcing expression, and every native-method id. Each result —
//! code bytes, or the error variant and message — is FNV-1a hashed per
//! front-end. The battery runs on the pristine compiler and under every
//! armed register-allocator (2xx), convention (3xx) and back-end (4xx)
//! mutant, and each hash must equal the value recorded before the
//! allocator and lowering were last rewritten: a rewrite of
//! `regalloc.rs` or `backend.rs` has to emit the same bytes, and its
//! mutation sites must keep behaving the same, or this test fails.
//!
//! On a mismatch the failure message prints the whole table in source
//! form; re-record it only for a change that is *meant* to alter the
//! generated code.

use igjit_bytecode::{instruction_catalog, Instruction};
use igjit_heap::Oop;
use igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike;
use igjit_jit::{compile_bytecode_sequence_test, compile_bytecode_test, compile_native_test,
                BytecodeTestInput, CompileError, CompiledCode, CompilerKind, NativeTestInput};
use igjit_machine::Isa;
use igjit_mutate::{FaultInjector, Layer, MutantGuard, CATALOG};

const ISAS: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

/// The instructions `sequence_fuzz` draws its random sequences from.
const SEQUENCE_POOL: [Instruction; 24] = [
    Instruction::PushZero,
    Instruction::PushOne,
    Instruction::PushTwo,
    Instruction::PushMinusOne,
    Instruction::PushInteger(13),
    Instruction::PushInteger(-77),
    Instruction::PushTrue,
    Instruction::PushFalse,
    Instruction::PushNil,
    Instruction::PushReceiver,
    Instruction::Dup,
    Instruction::Pop,
    Instruction::Add,
    Instruction::Subtract,
    Instruction::Multiply,
    Instruction::Modulo,
    Instruction::LessThan,
    Instruction::GreaterOrEqual,
    Instruction::Equal,
    Instruction::BitAnd,
    Instruction::BitOr,
    Instruction::IdentityEqual,
    Instruction::SpecialSendSize,
    Instruction::ShortJumpTrue(3),
];

/// Number of 5-instruction sequences the battery draws (enough to
/// draw every pool instruction).
const SEQUENCES: usize = 48;

/// Highest native-method id compiled (past the FFI block, so unknown
/// ids are covered too).
const MAX_NATIVE_ID: u16 = 170;

/// FNV-1a over a stream of compile results.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn result(&mut self, r: Result<CompiledCode, CompileError>) {
        match r {
            Ok(c) => {
                self.bytes(&[0]);
                self.bytes(&(c.code.len() as u32).to_le_bytes());
                self.bytes(&c.code);
                self.bytes(&c.ntemps.to_le_bytes());
            }
            Err(e) => {
                let tag = match e {
                    CompileError::NotImplemented(_) => 1,
                    CompileError::Unsupported(_) => 2,
                    CompileError::Backend(_) => 3,
                };
                let msg = e.to_string();
                self.bytes(&[tag]);
                self.bytes(&(msg.len() as u32).to_le_bytes());
                self.bytes(msg.as_bytes());
            }
        }
    }
}

/// A tiny deterministic generator (64-bit LCG, high bits) so the drawn
/// sequences do not depend on any RNG crate's stream.
fn draw_sequences() -> Vec<[Instruction; 5]> {
    let mut state: u64 = 0x19A7;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % SEQUENCE_POOL.len()
    };
    (0..SEQUENCES).map(|_| [(); 5].map(|_| SEQUENCE_POOL[next()])).collect()
}

/// Per-front-end hashes of one battery run: SimpleStack,
/// StackToRegister, RegisterAllocating, native template.
fn battery() -> [u64; 4] {
    let si = Oop::from_small_int;
    let stack = [si(7), si(-3), Oop(0x108)];
    let temps = [si(11), si(12), si(13), si(-14)];
    let literals = [si(5), si(6), si(7), si(8)];
    let (nil, true_obj, false_obj) = (Oop(0x100), Oop(0x108), Oop(0x110));
    let shapes: [(&[Oop], &[Oop]); 3] = [(&[], &[]), (&stack, &[]), (&stack, &temps)];

    // A deep expression keeps many values live at once, so the
    // register-allocating tier spills on both ISAs.
    let mut spill = Vec::new();
    for i in 0..3 {
        spill.push(Instruction::PushTemp(i));
    }
    spill.extend([Instruction::Dup; 6]);
    spill.extend([Instruction::Add; 8]);
    let sequences = draw_sequences();

    let mut hashes = [Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new()];
    for (k, kind) in CompilerKind::ALL.into_iter().enumerate() {
        let h = &mut hashes[k];
        for isa in ISAS {
            for &(operand_stack, temps) in &shapes {
                let mk = |instruction| BytecodeTestInput {
                    instruction,
                    operand_stack,
                    temps,
                    literals: &literals,
                    nil,
                    true_obj,
                    false_obj,
                };
                for spec in instruction_catalog() {
                    h.result(compile_bytecode_test(kind, &mk(spec.instruction), isa));
                }
                if !temps.is_empty() {
                    h.result(compile_bytecode_sequence_test(kind, &spill, &mk(spill[0]), isa));
                }
                if !operand_stack.is_empty() {
                    for seq in &sequences {
                        h.result(compile_bytecode_sequence_test(kind, seq, &mk(seq[0]), isa));
                    }
                }
            }
        }
    }
    let native = NativeTestInput { nil, true_obj, false_obj };
    for isa in ISAS {
        for id in 0..=MAX_NATIVE_ID {
            hashes[3].result(compile_native_test(NativeMethodIdLike(id), native, isa));
        }
    }
    hashes.map(|h| h.0)
}

/// Recorded battery hashes: `(configuration, [simple, stack-to-register,
/// register-allocating, native])`. `"pristine"` is the disarmed
/// compiler; the rest are mutant names.
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("pristine",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x470448585553f12d, 0xf03949c3cff38997]),
    ("spill-slot-off-by-one",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x6ace111d776696e1, 0xf03949c3cff38997]),
    ("spill-stride-widened",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x332b2d68771f3bc9, 0xf03949c3cff38997]),
    ("drop-spill-reload",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0xbe95f6018e20ed4e, 0xf03949c3cff38997]),
    ("drop-spill-def-store",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0xfc96f208fa96ded3, 0xf03949c3cff38997]),
    ("expire-active-early",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x9b7e89bf3eeab399, 0xf03949c3cff38997]),
    ("spill-temp-aliases-arg0",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x75357bba6e6a2191, 0xf03949c3cff38997]),
    ("drop-victim-end-filter",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x7c00d7f506aa33ec, 0xf03949c3cff38997]),
    ("arg1-aliases-arg0",
     [0x51d376c16aef9126, 0x68ad6b0cbb81cef5, 0x0d2cc071d1b2de15, 0xf03949c3cff38997]),
    ("scratch-aliases-receiver",
     [0x6cd6202789db9d12, 0x064af1476de96c6d, 0x470448585553f12d, 0x77ce4b922b126b6a]),
    ("allocatable-includes-receiver",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0xefd7fa2a8682bacb, 0xf03949c3cff38997]),
    ("fp-aliases-pool-reg",
     [0x6ae96cbda2b29db4, 0x1081a08b9dec5933, 0xce62806965cf9754, 0xf03949c3cff38997]),
    ("jump-disp-off-by-one",
     [0x2c67db129f9e447c, 0xefdad24380504ffb, 0xbd43987116749435, 0x266a7024494dbb59]),
    ("invert-jcc",
     [0x5a44713961e4763a, 0x9f8a6bdd35018c47, 0x09e73d00bea3204b, 0x54c9c6ccab993df7]),
    ("drop-mov-elision",
     [0x49975c79d33e190a, 0xa5c4a513f522ae65, 0x470448585553f12d, 0xf03949c3cff38997]),
    ("drop-two-address-mov-fixup",
     [0x49975c79d33e190a, 0x87f82ab503331445, 0xf4d23b597e372b81, 0xd8107635cf5e2b22]),
    ("drop-aluimm-mov-fixup",
     [0xaf421d06d03c2c7c, 0x725c27052c0c4874, 0x5ae36ded3000de3a, 0x97e5dc1f623bbbd1]),
];

/// The configurations the battery runs under, in [`GOLDEN`] order.
fn configurations() -> Vec<&'static str> {
    let mut names = vec!["pristine"];
    names.extend(
        CATALOG
            .iter()
            .filter(|op| {
                matches!(op.layer, Layer::RegisterAllocator | Layer::Convention | Layer::Backend)
            })
            .map(|op| op.name),
    );
    names
}

fn guard(name: &str) -> MutantGuard {
    if name == "pristine" {
        return FaultInjector::pinned_off();
    }
    let id = igjit_mutate::by_name(name).expect("catalog mutant").id;
    FaultInjector::arm(id).expect("armable mutant")
}

#[test]
fn compiled_bytes_match_the_recorded_golden_hashes() {
    let observed: Vec<(&str, [u64; 4])> = configurations()
        .into_iter()
        .map(|name| {
            let _g = guard(name);
            (name, battery())
        })
        .collect();
    let table: String = observed
        .iter()
        .map(|(name, h)| {
            format!(
                "    ({name:?},\n     [0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}]),\n",
                h[0], h[1], h[2], h[3]
            )
        })
        .collect();
    assert!(observed == GOLDEN, "compiled bytes moved; observed golden table:\n{table}");
}
