//! Per-layer compile bench: µs per compile for each JIT front-end
//! (SimpleStack, StackToRegister, RegisterAllocating, native template)
//! on each ISA, the "µs/compile per tier × ISA" layer number.
//!
//! One pass compiles the whole instruction catalog on one bytecode
//! tier (a 3-deep operand stack with two temps, the shape most
//! campaign compiles have), or every native-method id the template
//! compiler implements. Passes repeat until the sample budget is
//! spent; the table reports the median and minimum pass divided by the
//! compiles in it. Run with `cargo bench -p igjit-bench --bench compile`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use igjit_bytecode::{instruction_catalog, Instruction};
use igjit_heap::Oop;
use igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike;
use igjit_jit::{compile_bytecode_test, compile_native_test, BytecodeTestInput, CompilerKind,
                NativeTestInput};
use igjit_machine::Isa;

/// Passes timed per row, after one untimed warm-up pass.
const SAMPLES: usize = 41;

const NIL: Oop = Oop(0x100);
const TRUE: Oop = Oop(0x108);
const FALSE: Oop = Oop(0x110);

/// Times `pass` (which performs `compiles` compiles) and prints one
/// table row.
fn row(front_end: &str, isa: Isa, compiles: usize, mut pass: impl FnMut()) {
    pass();
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let per = |d: Duration| d.as_secs_f64() * 1e6 / compiles as f64;
    println!(
        "{front_end:<20} {:<10} {compiles:>8} {:>14.3} {:>12.3}",
        format!("{isa:?}"),
        per(samples[SAMPLES / 2]),
        per(samples[0]),
    );
}

fn main() {
    let si = Oop::from_small_int;
    let stack = [si(7), si(-3), si(20)];
    let temps = [si(11), si(12)];
    let literals = [si(5), si(6), si(7), si(8)];
    let catalog: Vec<Instruction> =
        instruction_catalog().into_iter().map(|spec| spec.instruction).collect();
    let inputs: Vec<BytecodeTestInput> = catalog
        .iter()
        .map(|&instruction| BytecodeTestInput {
            instruction,
            operand_stack: &stack,
            temps: &temps,
            literals: &literals,
            nil: NIL,
            true_obj: TRUE,
            false_obj: FALSE,
        })
        .collect();
    let native = NativeTestInput { nil: NIL, true_obj: TRUE, false_obj: FALSE };
    let natives: Vec<NativeMethodIdLike> = (0u16..256)
        .map(NativeMethodIdLike)
        .filter(|&id| compile_native_test(id, native, Isa::X86ish).is_ok())
        .collect();

    println!("{:<20} {:<10} {:>8} {:>14} {:>12}", "front-end", "isa", "compiles",
             "us/compile p50", "us/compile min");
    for kind in CompilerKind::ALL {
        for isa in [Isa::X86ish, Isa::Arm32ish] {
            row(&format!("{kind:?}"), isa, inputs.len(), || {
                for input in &inputs {
                    let _ = black_box(compile_bytecode_test(kind, black_box(input), isa));
                }
            });
        }
    }
    for isa in [Isa::X86ish, Isa::Arm32ish] {
        row("NativeTemplate", isa, natives.len(), || {
            for &id in &natives {
                let _ = black_box(compile_native_test(black_box(id), native, isa));
            }
        });
    }
}
