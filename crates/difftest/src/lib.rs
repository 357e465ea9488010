//! # igjit-difftest — interpreter-guided differential testing
//!
//! Steps 2–4 of the paper's pipeline (Fig. 1): for every execution
//! path the concolic explorer discovered,
//!
//! 1. re-materialize the concrete input VM frame from the path's
//!    model into a fresh heap,
//! 2. run the **interpreter** on it — the oracle,
//! 3. **compile** the instruction with the front-end under test (per
//!    the §4.2 schema) and run the machine code on the simulator,
//! 4. **compare** the observable behaviour: exit condition, operand
//!    stack, temps, result values, message-send payloads, and side
//!    effects on the input object graph,
//! 5. classify any difference into the paper's six defect families
//!    (Table 3).
//!
//! The [`probe_models`] pass adds *kind probing*: for unconstrained
//! input variables it re-solves the path condition under extra kind
//! hypotheses, which is how the `primitiveAsFloat` missing-check
//! (whose interpreter path records **no** receiver constraint) becomes
//! visible to differential testing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod campaign;
mod classify;
mod compare;
mod compiled;
mod meta;
mod oracle;
mod sequence;

pub use campaign::{test_instruction, test_instruction_with, CampaignRow, ExploreCost,
                   InstructionOutcome, PathVerdict, SnapshotStats, StageTimes, Target};
pub use classify::{classify, CauseKey, DefectCategory};
pub use compare::{compare_runs, values_equivalent, Difference, DifferenceKind, Verdict};
pub use compiled::{run_compiled_bytecode, run_compiled_for_instr, run_compiled_for_instr_timed,
                   run_compiled_native, run_compiled_native_timed, run_compiled_sequence,
                   run_compiled_sequence_timed, CompiledRun};
pub use meta::{run_meta_for_instr, run_meta_for_instr_timed, MetaRunCounts};
pub use oracle::{concrete_frame, run_oracle, run_oracle_on, run_oracle_on_with, EngineExit,
                 OracleRun, SelectorId};
pub use igjit_concolic::{probe_models, probe_models_with_stats};
pub use sequence::{minimal_sequence_for_path, run_oracle_sequence, test_sequence,
                   SequenceOutcome};

/// Compile-time source fingerprint (see `igjit-corpus`).
pub mod srcid;
