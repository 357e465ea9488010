//! The traced re-drive of the differential pipeline.
//!
//! `Campaign::outcome_for` and `test_sequence` are opaque: they return
//! stage buckets, not per-call timings. The traced run therefore
//! re-drives the same pipeline through each crate's public functions,
//! in the campaign's configuration (probes, family sharing, hash
//! consing, solver trail, heap snapshots, predecode all on), with a
//! span around every layer call. The untraced run's verdicts are the
//! reference: the traced ones must equal them exactly.

use std::collections::BTreeMap;
use std::sync::Arc;

use igjit::{CompilerKind, Instruction, InstructionOutcome, Isa, Target};
use igjit_bytecode::SpecialSelector;
use igjit_concolic::{materialize_frame, ExplorationCache, Explorer, InstrUnderTest};
use igjit_difftest::{
    classify, compare_runs, concrete_frame, run_oracle_on_with, run_oracle_sequence, CauseKey,
    CompiledRun, DifferenceKind, EngineExit, PathVerdict, SelectorId, SequenceOutcome,
    SnapshotStats, Verdict,
};
use igjit_heap::{ObjectMemory, Oop, Snapshot};
use igjit_interp::{native_spec, Frame, NativeMethodId};
use igjit_jit::{
    compile_native_test, stops, BytecodeTestInput, CodeCache, CompileKeyRef, Convention,
    NativeTestInput, MUST_BE_BOOLEAN_SELECTOR, SPILL_BYTES,
};
use igjit_machine::{Machine, MachineConfig, MachineOutcome, MachineSession, PredecodedCode};
use igjit_metajit::MetaCache;
use igjit_solver::{Session, SessionStats};

use crate::trace::span;

/// Counts read from the layers' public return values over a pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Exploration-cache hits and misses, as the cache counts them
    /// (family sharing adds the representative's own lookup); a
    /// sequence, which bypasses the cache, counts as a miss.
    pub explore_hits: u64,
    pub explore_misses: u64,
    /// Paths found / surviving curation.
    pub paths: u64,
    /// Paths surviving curation.
    pub curated: u64,
    /// Curated paths whose verdict is a difference.
    pub differences: u64,
    /// Solver work of the explorations actually run.
    pub solver: SessionStats,
    /// Curated path conditions re-solved / found satisfiable.
    pub resolves: u64,
    /// Re-solved path conditions that came back satisfiable.
    pub resolves_sat: u64,
    /// Heap restores and the dirty words they undid.
    pub snapshot: SnapshotStats,
    /// Code-cache lookups answered without compiling.
    pub code_hits: u64,
    /// Code-cache lookups that compiled.
    pub code_misses: u64,
    /// Meta-tier instructions tested / compiled on every run.
    pub meta_instructions: u64,
    /// Meta-tier instructions every one of whose runs was compiled.
    pub meta_full: u64,
}

impl Counts {
    /// Adds another pass's counts into these.
    pub fn merge(&mut self, c: &Counts) {
        self.explore_hits += c.explore_hits;
        self.explore_misses += c.explore_misses;
        self.paths += c.paths;
        self.curated += c.curated;
        self.differences += c.differences;
        self.solver.merge(&c.solver);
        self.resolves += c.resolves;
        self.resolves_sat += c.resolves_sat;
        self.snapshot.merge(&c.snapshot);
        self.code_hits += c.code_hits;
        self.code_misses += c.code_misses;
        self.meta_instructions += c.meta_instructions;
        self.meta_full += c.meta_full;
    }

    /// Folds one verdict in: its paths, curation, differences, heap
    /// restores and, on the meta tier, whether every run compiled.
    pub fn absorb(&mut self, o: &InstructionOutcome, target: Target) {
        self.paths += o.paths_found as u64;
        self.curated += o.curated as u64;
        self.differences += o.difference_count() as u64;
        self.snapshot.merge(&o.snapshot);
        if target == Target::MetaCompiled {
            self.meta_instructions += 1;
            self.meta_full += u64::from(o.meta_compiled_runs > 0 && o.meta_trampolines == 0);
        }
    }

    /// Every count by name.
    pub fn fields(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::from([
            ("explore_hits", self.explore_hits),
            ("explore_misses", self.explore_misses),
            ("paths", self.paths),
            ("curated", self.curated),
            ("differences", self.differences),
            ("solver.solves", self.solver.solves as u64),
            ("solver.sat", self.solver.sat as u64),
            ("solver.nodes_visited", self.solver.nodes_visited as u64),
            ("resolves", self.resolves),
            ("resolves_sat", self.resolves_sat),
            ("snapshot.seals", self.snapshot.seals),
            ("snapshot.restores", self.snapshot.restores),
            ("snapshot.dirty_words", self.snapshot.dirty_words),
            ("code_hits", self.code_hits),
            ("code_misses", self.code_misses),
            ("meta_instructions", self.meta_instructions),
            ("meta_full", self.meta_full),
        ])
    }
}

/// The counts `Campaign::outcome_for` itself reports, through its
/// outcomes and its caches' counters: the replica's must equal them.
pub const CAMPAIGN_COUNTS: [&str; 12] = [
    "explore_hits",
    "explore_misses",
    "paths",
    "curated",
    "differences",
    "snapshot.seals",
    "snapshot.restores",
    "snapshot.dirty_words",
    "code_hits",
    "code_misses",
    "meta_instructions",
    "meta_full",
];

/// The counts `test_sequence` itself reports, through its outcome.
pub const SEQUENCE_COUNTS: [&str; 3] = ["paths", "curated", "differences"];

/// The ISAs every test runs on (the paper's x86 + ARM32).
pub const ISAS: [Isa; 2] = [Isa::X86ish, Isa::Arm32ish];

/// The caches one campaign owns. The exploration cache may be shared
/// (the mutation workload carries it across mutants).
pub struct Pipeline {
    explore: Arc<ExplorationCache>,
    code: CodeCache,
    meta: MetaCache,
    session: MachineSession,
    /// What the pass has counted so far.
    pub counts: Counts,
}

/// The two recycled heaps of the snapshot replay (as in the campaign).
struct Arena {
    oracle: ObjectMemory,
    oracle_blank: Snapshot,
    oracle_used: bool,
    replay: ObjectMemory,
    replay_blank: Snapshot,
    replay_used: bool,
}

fn restore(mem: &mut ObjectMemory, snap: &Snapshot, stats: &mut SnapshotStats) {
    let dirty = span("heap.restore", || mem.restore(snap)).expect("seal is armed");
    stats.record_restore(dirty);
}

fn exit_label(e: &EngineExit) -> &'static str {
    match e {
        EngineExit::Success { .. } | EngineExit::JumpTaken => "Success",
        EngineExit::Failure => "Failure",
        EngineExit::Return { .. } => "MethodReturn",
        EngineExit::Send { .. } => "MessageSend",
        EngineExit::InvalidFrame => "InvalidFrame",
        EngineExit::InvalidMemory => "InvalidMemoryAccess",
        EngineExit::SimulationError(_) => "SimulationError",
        EngineExit::EngineError(_) => "EngineError",
    }
}

fn selector_of(id: u32) -> SelectorId {
    if id == MUST_BE_BOOLEAN_SELECTOR {
        return SelectorId::MustBeBoolean;
    }
    match SpecialSelector::from_index(id) {
        Some(s) => SelectorId::Special(s),
        None => SelectorId::Literal(Oop(id)),
    }
}

/// The receiver and arguments of a native-method frame (receiver
/// deepest, per the native calling convention).
fn native_operands(frame: &Frame<Oop>, id: NativeMethodId) -> Option<(Oop, Vec<Oop>)> {
    let argc = native_spec(id)?.argc as usize;
    let depth = frame.stack.len();
    if depth < argc + 1 {
        return None;
    }
    Some((frame.stack[depth - 1 - argc], frame.stack[depth - argc..].to_vec()))
}

/// How a compiled artifact reaches the simulator.
enum Code<'a> {
    Predecoded(&'a PredecodedCode),
    Bytes(Isa, &'a [u8]),
}

/// Runs compiled code and reads the engine exit back: bytecode tests
/// report the operand stack and temps, native tests their result.
#[allow(clippy::too_many_arguments)]
fn run_machine(
    code: Code<'_>,
    mem: &mut ObjectMemory,
    session: &mut MachineSession,
    isa: Isa,
    ntemps: u32,
    regs: &[(usize, Oop)],
    receiver: Oop,
    native: bool,
    send_arity_hint: usize,
) -> EngineExit {
    let conv = Convention::for_isa(isa);
    let frame_bytes = 4 * ntemps + SPILL_BYTES;
    let mut m = match code {
        Code::Predecoded(pd) => Machine::with_predecoded(mem, pd, session),
        Code::Bytes(isa, bytes) => Machine::with_session(mem, isa, bytes, session),
    };
    m.set_reg(conv.receiver, receiver.0);
    for &(i, v) in regs {
        m.set_reg(conv.arg(i), v.0);
    }
    let outcome = span("machine.simulate", || m.run(MachineConfig::default()));
    match outcome {
        MachineOutcome::ReturnedToCaller if native => EngineExit::Success {
            stack: Vec::new(),
            temps: Vec::new(),
            result: Some(Oop(m.reg(conv.receiver))),
        },
        MachineOutcome::Breakpoint { .. } if native => EngineExit::Failure,
        MachineOutcome::Send { selector_id } if native => EngineExit::Send {
            selector: selector_of(selector_id),
            receiver: Oop(m.reg(conv.receiver)),
            args: Vec::new(),
        },
        MachineOutcome::Breakpoint { code } if code == stops::FALL_THROUGH => {
            let limit = m.initial_sp().wrapping_sub(frame_bytes);
            let mut stack = Vec::new();
            let mut a = m.reg(conv.sp);
            while a < limit {
                match m.read_stack(a) {
                    Ok(w) => stack.push(Oop(w)),
                    Err(_) => break,
                }
                a += 4;
            }
            stack.reverse();
            let fp = m.reg(conv.fp);
            let temps = (0..ntemps)
                .map(|i| Oop(m.read_stack(fp.wrapping_sub(4 * (i + 1))).unwrap_or(0)))
                .collect();
            EngineExit::Success { stack, temps, result: None }
        }
        MachineOutcome::Breakpoint { .. } => EngineExit::JumpTaken,
        MachineOutcome::ReturnedToCaller => EngineExit::Return { value: Oop(m.reg(conv.receiver)) },
        MachineOutcome::Send { selector_id } => EngineExit::Send {
            selector: selector_of(selector_id),
            receiver: Oop(m.reg(conv.receiver)),
            args: (0..send_arity_hint.min(3)).map(|i| Oop(m.reg(conv.arg(i)))).collect(),
        },
        MachineOutcome::MemoryFault { .. } => EngineExit::InvalidMemory,
        MachineOutcome::SimulationError { register } => EngineExit::SimulationError(register),
        MachineOutcome::StepLimit => EngineExit::EngineError("machine step limit".into()),
        MachineOutcome::DecodeFault { pc } => {
            EngineExit::EngineError(format!("decode fault at 0x{pc:08x}"))
        }
    }
}

/// Compiles (through `cache`) and runs a bytecode sequence test.
#[allow(clippy::too_many_arguments)]
fn run_bytecodes(
    cache: &CodeCache,
    session: &mut MachineSession,
    predecode: bool,
    kind: CompilerKind,
    isa: Isa,
    instrs: &[Instruction],
    frame: &Frame<Oop>,
    mem: &mut ObjectMemory,
    send_arity_hint: usize,
) -> CompiledRun {
    let input = BytecodeTestInput {
        instruction: instrs[0],
        operand_stack: &frame.stack,
        temps: &frame.temps,
        literals: &frame.method.literals,
        nil: mem.nil(),
        true_obj: mem.true_object(),
        false_obj: mem.false_object(),
    };
    let key = CompileKeyRef::Bytecode {
        kind,
        isa,
        instrs,
        stack: &frame.stack,
        temps: &frame.temps,
        literals: &frame.method.literals,
        nil: mem.nil().0,
        true_obj: mem.true_object().0,
        false_obj: mem.false_object().0,
    };
    let entry = span("jit.code_cache", || {
        cache.get_or_compile_ref(key, || {
            span("jit.compile", || {
                igjit_jit::compile_bytecode_sequence_test(kind, instrs, &input, isa)
            })
        })
    });
    let compiled = match entry.artifact() {
        Ok(c) => c,
        Err(e) => return CompiledRun::Refused(e.clone()),
    };
    let code = match predecode {
        true => Code::Predecoded(
            span("machine.predecode", || entry.predecoded()).expect("compiled artifact"),
        ),
        false => Code::Bytes(isa, &compiled.code),
    };
    CompiledRun::Ran(run_machine(
        code,
        mem,
        session,
        isa,
        compiled.ntemps,
        &[],
        frame.receiver,
        false,
        send_arity_hint,
    ))
}

impl Pipeline {
    /// A campaign's caches around `explore` (fresh code and meta caches).
    pub fn new(explore: Arc<ExplorationCache>) -> Pipeline {
        Pipeline {
            explore,
            code: CodeCache::new(),
            meta: MetaCache::new(),
            session: MachineSession::new(),
            counts: Counts::default(),
        }
    }

    fn run_native(&mut self, isa: Isa, id: NativeMethodId, frame: &Frame<Oop>, mem: &mut ObjectMemory) -> CompiledRun {
        let Some((receiver, args)) = native_operands(frame, id) else {
            return CompiledRun::Ran(EngineExit::InvalidFrame);
        };
        let input = NativeTestInput {
            nil: mem.nil(),
            true_obj: mem.true_object(),
            false_obj: mem.false_object(),
        };
        let key = CompileKeyRef::Native {
            id: u32::from(id.0),
            isa,
            nil: mem.nil().0,
            true_obj: mem.true_object().0,
            false_obj: mem.false_object().0,
        };
        let entry = span("jit.code_cache", || {
            self.code.get_or_compile_ref(key, || {
                span("jit.compile", || {
                    compile_native_test(
                        igjit_jit::native::igjit_bytecode_native_id::NativeMethodIdLike(id.0),
                        input,
                        isa,
                    )
                })
            })
        });
        let ntemps = match entry.artifact() {
            Ok(c) => c.ntemps,
            Err(e) => return CompiledRun::Refused(e.clone()),
        };
        let argc = native_spec(id).map(|s| s.argc as usize).unwrap_or(args.len());
        let regs: Vec<(usize, Oop)> = args.iter().take(argc.min(3)).copied().enumerate().collect();
        let pd = span("machine.predecode", || entry.predecoded()).expect("compiled artifact");
        CompiledRun::Ran(run_machine(
            Code::Predecoded(pd),
            mem,
            &mut self.session,
            isa,
            ntemps,
            &regs,
            receiver,
            true,
            0,
        ))
    }

    /// Meta tier: the partial evaluator's artifact, or the interpreter
    /// trampoline when it refuses. Returns whether the run compiled.
    fn run_meta(&mut self, isa: Isa, instr: InstrUnderTest, frame: &Frame<Oop>, mem: &mut ObjectMemory) -> (CompiledRun, bool) {
        if let InstrUnderTest::Bytecode(i) = instr {
            let entry = span("metajit.compile", || {
                self.meta.get_or_compile(isa, i, frame, mem.nil(), mem.true_object(), mem.false_object())
            });
            if let Ok(artifact) = entry.as_ref() {
                let hint = (i.stack_arity() as usize).saturating_sub(1);
                let exit = run_machine(
                    Code::Bytes(isa, &artifact.code.code),
                    mem,
                    &mut self.session,
                    isa,
                    artifact.code.ntemps,
                    &[],
                    frame.receiver,
                    false,
                    hint,
                );
                return (CompiledRun::Ran(exit), true);
            }
        }
        let mut f = frame.clone();
        let exit = span("interp.oracle", || run_oracle_on_with(mem, &mut f, instr, true));
        (CompiledRun::Ran(exit), false)
    }

    /// Re-solves each curated path condition in a fresh solver session.
    fn resolve_paths(&mut self, exploration: &igjit::ExplorationResult) {
        for path in exploration.curated_paths() {
            let sat = span("solver.solve", || {
                let mut s = Session::new();
                s.set_hash_cons(true);
                s.set_trail(true);
                s.sync_vars(exploration.state.specs());
                for c in &path.constraints {
                    s.assert(c.clone());
                }
                s.solve().is_ok()
            });
            self.counts.resolves += 1;
            self.counts.resolves_sat += u64::from(sat);
        }
    }

    /// The traced twin of `Campaign::outcome_for` for one verdict.
    pub fn outcome_for(&mut self, instr: InstrUnderTest, target: Target) -> InstructionOutcome {
        let _op = crate::trace::enter("core.outcome_for");
        let explorer = Explorer { hash_cons: true, ..Explorer::new() };
        let explore0 = (self.explore.hits(), self.explore.misses());
        let lookup = span("concolic.explore", || {
            self.explore.get_or_explore_with(&explorer, instr, true, true)
        });
        self.counts.explore_hits += (self.explore.hits() - explore0.0) as u64;
        self.counts.explore_misses += (self.explore.misses() - explore0.1) as u64;
        let exploration = Arc::clone(&lookup.exploration);
        if !lookup.hit {
            self.counts.solver.merge(&exploration.solver);
            self.resolve_paths(&exploration);
        }
        let code0 = (self.code.hits(), self.code.misses());
        let curated = exploration.curated_paths();
        let mut verdicts = Vec::with_capacity(curated.len());
        let mut witness_errors = 0;
        let mut oracle_panics = 0;
        let mut snap = SnapshotStats::default();
        let (mut meta_compiled, mut meta_tramp) = (0usize, 0usize);
        let mut arena: Option<Arena> = None;
        let kind = match target {
            Target::Bytecode(k) => Some(k),
            _ => None,
        };

        for (pi, path) in curated.iter().enumerate() {
            let models: &[igjit_solver::Model] = match exploration.probe_models.get(pi) {
                Some(m) => m,
                None => std::slice::from_ref(&path.model),
            };
            let mut verdict = Verdict::Agree;
            let mut cause: Option<CauseKey> = None;
            let mut all_causes: Vec<CauseKey> = Vec::new();
            let mut found_by_probe = false;
            let mut on_isa = None;
            let mut base_exit = "";
            'models: for (mi, model) in models.iter().enumerate() {
                let a = arena.get_or_insert_with(|| {
                    let mut oracle = ObjectMemory::new();
                    let oracle_blank = oracle.seal();
                    let mut replay = ObjectMemory::new();
                    let replay_blank = replay.seal();
                    snap.seals += 2;
                    Arena { oracle, oracle_blank, oracle_used: false, replay, replay_blank, replay_used: false }
                });
                if a.oracle_used {
                    restore(&mut a.oracle, &a.oracle_blank, &mut snap);
                }
                a.oracle_used = true;
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut state = exploration.state.clone();
                    span("concolic.materialize", || materialize_frame(&mut state, model, &mut a.oracle))
                }));
                let Ok(mat) = built else {
                    oracle_panics += 1;
                    continue 'models;
                };
                let frame0 = concrete_frame(&mat.frame);
                let mut oracle_frame = frame0.clone();
                let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    span("interp.oracle", || run_oracle_on_with(&mut a.oracle, &mut oracle_frame, instr, true))
                }));
                let Ok(interp_exit) = ran else {
                    oracle_panics += 1;
                    continue 'models;
                };
                if mi == 0 {
                    base_exit = exit_label(&interp_exit);
                }
                if !mat.witness_errors.is_empty() {
                    witness_errors += 1;
                    continue 'models;
                }
                if !interp_exit.is_testable() {
                    continue 'models;
                }
                if a.replay_used {
                    restore(&mut a.replay, &a.replay_blank, &mut snap);
                }
                a.replay_used = true;
                let mut state2 = exploration.state.clone();
                span("concolic.materialize", || materialize_frame(&mut state2, model, &mut a.replay));
                let inner = a.replay.push_seal().expect("blank seal is armed");
                snap.seals += 1;
                for (ii, isa) in ISAS.into_iter().enumerate() {
                    let a = arena.as_mut().expect("arena armed");
                    if ii > 0 {
                        restore(&mut a.replay, &inner, &mut snap);
                    }
                    let compiled = match target {
                        Target::MetaCompiled => {
                            let (run, compiled) = self.run_meta(isa, instr, &frame0, &mut a.replay);
                            if compiled {
                                meta_compiled += 1;
                            } else {
                                meta_tramp += 1;
                            }
                            run
                        }
                        Target::NativeMethods => match instr {
                            InstrUnderTest::Native(id) => self.run_native(isa, id, &frame0, &mut a.replay),
                            InstrUnderTest::Bytecode(_) => unreachable!("native target, bytecode instruction"),
                        },
                        Target::Bytecode(k) => match instr {
                            InstrUnderTest::Bytecode(i) => run_bytecodes(
                                &self.code,
                                &mut self.session,
                                true,
                                k,
                                isa,
                                &[i],
                                &frame0,
                                &mut a.replay,
                                (i.stack_arity() as usize).saturating_sub(1),
                            ),
                            InstrUnderTest::Native(_) => unreachable!("bytecode target, native instruction"),
                        },
                    };
                    let a = arena.as_ref().expect("arena armed");
                    let v = span("difftest.compare", || {
                        compare_runs(&interp_exit, &a.oracle, &compiled, &a.replay, &mat.var_oops)
                    });
                    if let Verdict::Difference(d) = v {
                        let mut key = classify(instr, kind, &d);
                        if target == Target::MetaCompiled {
                            key.compiler = std::borrow::Cow::Borrowed("Meta-Compiled");
                        }
                        if !all_causes.contains(&key) {
                            all_causes.push(key.clone());
                        }
                        if cause.is_none() {
                            cause = Some(key);
                            verdict = Verdict::Difference(d);
                            found_by_probe = mi > 0;
                            on_isa = Some(isa);
                        }
                        if matches!(&verdict, Verdict::Difference(d) if d.kind == DifferenceKind::CompileRefused) {
                            break 'models;
                        }
                    }
                }
            }
            verdicts.push(PathVerdict {
                instruction: instr,
                interp_exit: base_exit.to_string(),
                verdict,
                cause,
                all_causes,
                found_by_probe,
                isa: on_isa,
            });
        }
        let outcome = InstructionOutcome {
            instruction: instr,
            paths_found: exploration.paths.len(),
            curated: curated.len(),
            curated_out: exploration.curated_out.clone(),
            verdicts,
            explore_iterations: exploration.iterations,
            witness_errors,
            oracle_panics,
            snapshot: snap,
            meta_compiled_runs: meta_compiled,
            meta_trampolines: meta_tramp,
        };
        let c = &mut self.counts;
        c.absorb(&outcome, target);
        c.code_hits += (self.code.hits() - code0.0) as u64;
        c.code_misses += (self.code.misses() - code0.1) as u64;
        outcome
    }
}

/// Which sequence instruction a divergent compiled send points at.
fn diverging_instruction(instrs: &[Instruction], compiled: &CompiledRun) -> Option<Instruction> {
    let CompiledRun::Ran(EngineExit::Send { selector: SelectorId::Special(sel), .. }) = compiled else {
        return None;
    };
    instrs.iter().copied().find(|i| i.special_selector() == Some(*sel))
}

/// The traced twin of `test_sequence` (StackToRegister on both ISAs),
/// counting into `counts`.
pub fn test_sequence(instrs: &[Instruction], counts: &mut Counts) -> SequenceOutcome {
    let _op = crate::trace::enter("difftest.test_sequence");
    let kind = CompilerKind::StackToRegister;
    let last = *instrs.last().expect("non-empty sequence");
    let exploration = span("concolic.explore", || Explorer::new().explore_sequence(instrs))
        .expect("non-empty sequence");
    counts.explore_misses += 1;
    counts.solver.merge(&exploration.solver);
    let code = CodeCache::disabled();
    let mut session = MachineSession::new();
    let tag = InstrUnderTest::Bytecode(last);
    let curated = exploration.curated_paths();
    let mut verdicts = Vec::with_capacity(curated.len());
    for path in &curated {
        let sat = span("solver.solve", || {
            let mut s = Session::new();
            s.set_trail(true);
            s.sync_vars(exploration.state.specs());
            for c in &path.constraints {
                s.assert(c.clone());
            }
            s.solve().is_ok()
        });
        counts.resolves += 1;
        counts.resolves_sat += u64::from(sat);
        let (mut verdict, mut cause, mut on_isa) = (Verdict::Agree, None, None);
        let (interp_exit, interp_mem, _) =
            span("interp.oracle", || run_oracle_sequence(&exploration.state, &path.model, instrs));
        if interp_exit.is_testable() {
            for isa in ISAS {
                let mut st = exploration.state.clone();
                let mut mem2 = ObjectMemory::new();
                let mat = span("concolic.materialize", || materialize_frame(&mut st, &path.model, &mut mem2));
                let frame2 = concrete_frame(&mat.frame);
                let arity = instrs.iter().map(|i| i.stack_arity() as usize).max().unwrap_or(0);
                let code0 = code.misses();
                let compiled = run_bytecodes(
                    &code,
                    &mut session,
                    false,
                    kind,
                    isa,
                    instrs,
                    &frame2,
                    &mut mem2,
                    arity.saturating_sub(1),
                );
                counts.code_misses += (code.misses() - code0) as u64;
                let v = span("difftest.compare", || {
                    compare_runs(&interp_exit, &interp_mem, &compiled, &mem2, &mat.var_oops)
                });
                if let Verdict::Difference(d) = v {
                    let culprit = diverging_instruction(instrs, &compiled)
                        .map(InstrUnderTest::Bytecode)
                        .unwrap_or(tag);
                    cause = Some(classify(culprit, Some(kind), &d));
                    verdict = Verdict::Difference(d);
                    on_isa = Some(isa);
                    break;
                }
            }
        }
        verdicts.push(PathVerdict {
            instruction: tag,
            interp_exit: String::new(),
            all_causes: cause.clone().into_iter().collect(),
            verdict,
            cause,
            found_by_probe: false,
            isa: on_isa,
        });
    }
    let outcome = SequenceOutcome {
        instructions: instrs.to_vec(),
        paths_found: exploration.paths.len(),
        curated: curated.len(),
        verdicts,
    };
    counts.paths += outcome.paths_found as u64;
    counts.curated += outcome.curated as u64;
    counts.differences += outcome.difference_count() as u64;
    outcome
}
