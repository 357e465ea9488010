//! The compiled-code cache must be invisible in every output: cached
//! artifacts are byte-identical to fresh compiles, and whole campaign
//! sweeps produce row-identical reports with the cache on and off.
//! Only the metrics (hit/miss counters, compile invocations) may —
//! and must — differ. Cache off, every artifact runs once and is
//! byte-fetched; cache on, entries replay a predecoded view
//! (`tests/predecode_identity.rs` pins the two fetch paths to each
//! other on every tier).

mod common;

use common::assert_row_identical;
use igjit::{Campaign, CampaignConfig, CompilerKind, Isa};
use igjit_heap::ObjectMemory;
use igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike;
use igjit_jit::{
    compile_bytecode_sequence_test, compile_native_test, BytecodeTestInput, CodeCache, CompileKey,
    NativeTestInput,
};

const BOTH: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

#[test]
fn cached_native_artifacts_are_byte_identical_to_fresh_compiles() {
    let mem = ObjectMemory::new();
    let input = NativeTestInput {
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let cache = CodeCache::new();
    for id in [1u32, 14, 40, 41] {
        for isa in BOTH {
            let key = CompileKey::Native {
                id,
                isa,
                nil: mem.nil().0,
                true_obj: mem.true_object().0,
                false_obj: mem.false_object().0,
            };
            let fresh = compile_native_test(NativeMethodIdLike(id as u16), input, isa)
                .expect("compiles");
            // Warm the cache, then look the same key up again: the
            // second lookup must hit and return the identical bytes.
            let first = cache.get_or_compile(key.clone(), || {
                compile_native_test(NativeMethodIdLike(id as u16), input, isa)
            });
            let hits_before = cache.hits();
            let second = cache.get_or_compile(key, || panic!("must hit"));
            assert_eq!(cache.hits(), hits_before + 1);
            for artifact in [&first, &second] {
                let cached = artifact.artifact().as_ref().expect("compiles");
                assert_eq!(cached.code, fresh.code, "native {id} on {isa:?}");
                assert_eq!(cached.ntemps, fresh.ntemps);
                assert_eq!(cached.isa, fresh.isa);
            }
        }
    }
}

#[test]
fn cached_bytecode_artifacts_are_byte_identical_to_fresh_compiles() {
    use igjit_bytecode::Instruction;
    let mem = ObjectMemory::new();
    let stack = [igjit_heap::Oop::from_small_int(20), igjit_heap::Oop::from_small_int(22)];
    let input = BytecodeTestInput {
        instruction: Instruction::Add,
        operand_stack: &stack,
        temps: &[],
        literals: &[],
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let cache = CodeCache::new();
    for kind in CompilerKind::ALL {
        for isa in BOTH {
            let key = CompileKey::Bytecode {
                kind,
                isa,
                instrs: vec![Instruction::Add],
                stack: stack.iter().map(|o| o.0).collect(),
                temps: vec![],
                literals: vec![],
                nil: mem.nil().0,
                true_obj: mem.true_object().0,
                false_obj: mem.false_object().0,
            };
            let fresh = compile_bytecode_sequence_test(kind, &[Instruction::Add], &input, isa)
                .expect("compiles");
            let cached = cache.get_or_compile(key, || {
                compile_bytecode_sequence_test(kind, &[Instruction::Add], &input, isa)
            });
            let cached = cached.artifact().as_ref().expect("compiles");
            assert_eq!(cached.code, fresh.code, "{kind:?} on {isa:?}");
        }
    }
}

#[test]
fn native_row_is_identical_with_code_cache_on_and_off() {
    // Mirrors `parallel_report_is_bit_identical_to_sequential`: the
    // Table 2 native-method row (and its Table 3 cause sets) must not
    // depend on whether compiled artifacts are reused.
    let run = |code_cache: bool| {
        Campaign::new(CampaignConfig {
            isas: BOTH.to_vec(),
            probes: true,
            threads: 1,
            code_cache,
            ..CampaignConfig::default()
        })
        .run_native_methods()
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    // Without the cache every artifact runs once, so the simulator
    // byte-fetches it instead of building a predecoded view.
    assert_eq!(off.metrics.stages.decode, std::time::Duration::ZERO);
    // The metrics are the only allowed difference — and the cache must
    // actually bite: at least half the compile invocations disappear.
    assert_eq!(off.metrics.compile_hits, 0);
    assert!(on.metrics.compile_hits > 0);
    assert_eq!(
        on.metrics.compile_hits + on.metrics.compile_misses,
        off.metrics.compile_misses,
        "same number of lookups either way"
    );
    assert!(
        on.metrics.compile_misses * 2 <= off.metrics.compile_misses,
        "compile invocations must drop at least 2x: {} vs {}",
        on.metrics.compile_misses,
        off.metrics.compile_misses
    );
}

#[test]
fn bytecode_row_is_identical_with_code_cache_on_and_off() {
    let run = |code_cache: bool| {
        Campaign::new(CampaignConfig {
            isas: vec![Isa::X86ish],
            probes: false,
            threads: 1,
            code_cache,
            ..CampaignConfig::default()
        })
        .run_bytecodes(CompilerKind::StackToRegister)
    };
    let (on, off) = (run(true), run(false));
    assert_row_identical(&on, &off);
    assert!(on.metrics.compile_misses < off.metrics.compile_misses);
}
