//! The four workloads: set-up, one closed-loop op, and one traced pass
//! each. Every op checks its output against a known answer and reports
//! a mismatch as an `Err`, which the timing loop counts as a failed op.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use igjit::mutate::{self, MutationOp};
use igjit::{
    instruction_catalog, native_catalog, Campaign, CampaignConfig, CompilerKind, DefectCategory,
    ExplorationCache, FaultInjector, InstrUnderTest, Instruction, InstructionOutcome, Target,
};
use igjit_corpus::SaveOutcome;
use igjit_difftest::SequenceOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::replica::{Counts, Pipeline, CAMPAIGN_COUNTS, ISAS, SEQUENCE_COUNTS};
use crate::trace;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["cold_sweep", "mutation_matrix", "warm_replay", "sequence_fuzz"];

/// Table 2 per row (tested, interpreter paths, curated, differences),
/// in sweep order: natives, the three bytecode tiers, the meta tier.
pub const TABLE2: [(usize, usize, usize, usize); 5] = [
    (112, 753, 753, 437),
    (148, 512, 511, 37),
    (148, 512, 511, 16),
    (148, 512, 511, 16),
    (148, 512, 511, 0),
];

/// Mutants the sweep is known not to kill.
pub const SURVIVORS: [u32; 9] = [103, 118, 201, 202, 205, 206, 207, 403, 503];

/// The straight-line pool `sequence_fuzz` draws from.
pub const POOL: [Instruction; 24] = [
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

/// Ops per traced pass (a `cold_sweep` pass is one sweep of 704
/// verdicts and a `mutation_matrix` pass the whole mutant catalog).
const TRACED_WARM_OPS: usize = 3;
const TRACED_SEQUENCES: usize = 200;

/// Sequences in the `sequence_fuzz` pool.
pub const SEQUENCE_POOL: usize = 2048;

/// One (target, instruction) pair of the five-tier sweep.
#[derive(Clone)]
pub struct Item {
    pub target: Target,
    pub instr: InstrUnderTest,
    pub label: String,
}

/// The 704 pairs in sweep order (the order `Campaign::run_all` uses).
pub fn items() -> Vec<Item> {
    let mut v: Vec<Item> = native_catalog()
        .into_iter()
        .map(|s| Item {
            target: Target::NativeMethods,
            instr: InstrUnderTest::Native(s.id),
            label: s.name.clone(),
        })
        .collect();
    let bytecodes = instruction_catalog();
    let tiers = CompilerKind::ALL.iter().map(|&k| Target::Bytecode(k)).chain([Target::MetaCompiled]);
    for target in tiers {
        for spec in &bytecodes {
            v.push(Item {
                target,
                instr: InstrUnderTest::Bytecode(spec.instruction),
                label: format!("{:?}", spec.instruction),
            });
        }
    }
    v
}

/// The campaign configuration every workload runs: the paper's (both
/// ISAs, probes on), one thread.
pub fn config() -> CampaignConfig {
    CampaignConfig { threads: 1, ..CampaignConfig::default() }
}

/// One outcome's comparable content flattened to a line: path and
/// curation counts, test errors and every path verdict.
pub fn signature(o: &InstructionOutcome) -> String {
    let mut sig = format!(
        "paths={} curated={} werr={} opanic={} meta={}/{}",
        o.paths_found, o.curated, o.witness_errors, o.oracle_panics, o.meta_compiled_runs,
        o.meta_trampolines
    );
    for v in &o.verdicts {
        sig.push_str(&format!(
            " [{} diff={} causes={:?} isa={:?} probe={}]",
            v.interp_exit,
            v.verdict.is_difference(),
            v.all_causes,
            v.isa,
            v.found_by_probe,
        ));
    }
    sig
}

fn sequence_signature(o: &SequenceOutcome) -> String {
    let mut sig = format!("{:?} paths={} curated={}", o.instructions, o.paths_found, o.curated);
    for v in &o.verdicts {
        sig.push_str(&format!(" [diff={} cause={:?} isa={:?}]", v.verdict.is_difference(), v.cause, v.isa));
    }
    sig
}

/// FNV-1a over a signature line (what the known-answer table stores).
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One row of a known-answer table.
pub struct Known {
    pub label: String,
    pub paths: usize,
    pub curated: usize,
    pub differences: usize,
    pub sig: u64,
}

fn parse_known(text: &str) -> Result<Vec<Known>, String> {
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("bad known-answer row {line:?}");
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<usize>().ok()).ok_or_else(bad);
        let sig = f.get(6).and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or_else(bad)?;
        rows.push(Known { label: f[2].to_string(), paths: num(3)?, curated: num(4)?, differences: num(5)?, sig });
    }
    Ok(rows)
}

fn totals(rows: &[Known]) -> (usize, usize, usize) {
    rows.iter().fold((0, 0, 0), |t, k| (t.0 + k.paths, t.1 + k.curated, t.2 + k.differences))
}

/// The per-pair known answers of the sweep, checked against Table 2.
pub fn known() -> Result<Vec<Known>, String> {
    let rows = parse_known(include_str!("../known/cold_sweep.tsv"))?;
    let mut start = 0;
    for (row, &(n, paths, curated, diffs)) in TABLE2.iter().enumerate() {
        let part = rows.get(start..start + n).ok_or("known-answer table is short")?;
        if totals(part) != (paths, curated, diffs) {
            return Err(format!("known-answer table row {row} does not add up to Table 2"));
        }
        start += n;
    }
    if rows.len() != start {
        return Err("known-answer table has extra rows".into());
    }
    Ok(rows)
}

/// The per-sequence known answers of the pool. The pool's first 200
/// sequences are `sequence_fuzz`'s run: 1683 paths, 187 differences.
pub fn known_sequences() -> Result<Vec<Known>, String> {
    let rows = parse_known(include_str!("../known/sequence_fuzz.tsv"))?;
    let head = rows.get(..200).ok_or("sequence table is short")?;
    let (paths, _, diffs) = totals(head);
    if (paths, diffs) != (1683, 187) || rows.len() != SEQUENCE_POOL {
        return Err("sequence table does not match the sequence_fuzz reference run".into());
    }
    Ok(rows)
}

/// The fixed pool of sequences: the first draws of `sequence_fuzz`'s
/// generator (seed 0x19A7). Workload seeds choose the order.
pub fn sequence_pool() -> Vec<Vec<Instruction>> {
    let mut rng = StdRng::seed_from_u64(0x19A7);
    (0..SEQUENCE_POOL).map(|_| draw_sequence(&mut rng)).collect()
}

/// Writes both known-answer tables from pristine runs into `dir`.
pub fn write_known(dir: &Path) -> Result<(), String> {
    let campaign = Campaign::new(config());
    let mut out = String::from("# index\ttarget\tinstruction\tpaths\tcurated\tdifferences\tsignature_fnv1a\n");
    for (i, it) in items().iter().enumerate() {
        let o = campaign.outcome_for(it.instr, it.target);
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{}\t{}\t{:016x}\n",
            it.target.label(),
            it.label,
            o.paths_found,
            o.curated,
            o.difference_count(),
            fnv(&signature(&o))
        ));
    }
    let path = dir.join("cold_sweep.tsv");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = String::from(
        "# index\tnon_optimisation_differences\tsequence\tpaths\tcurated\tdifferences\tsignature_fnv1a\n",
    );
    for (i, seq) in sequence_pool().iter().enumerate() {
        let o = run_sequence(seq);
        out.push_str(&format!(
            "{i}\t{}\t{:?}\t{}\t{}\t{}\t{:016x}\n",
            non_optimisation(&o),
            seq,
            o.paths_found,
            o.curated,
            o.difference_count(),
            fnv(&sequence_signature(&o))
        ));
    }
    let path = dir.join("sequence_fuzz.tsv");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Differing paths whose cause is not the known float-optimisation gap.
fn non_optimisation(o: &SequenceOutcome) -> usize {
    o.verdicts
        .iter()
        .filter(|v| v.verdict.is_difference())
        .filter(|v| v.cause.as_ref().map(|c| c.category) != Some(DefectCategory::OptimisationDifference))
        .count()
}

fn run_sequence(seq: &[Instruction]) -> SequenceOutcome {
    igjit_difftest::test_sequence(seq, CompilerKind::StackToRegister, &ISAS)
}

fn check_sequence(k: &Known, seq: &[Instruction], o: &SequenceOutcome) -> Result<(), String> {
    let got = (o.paths_found, o.curated, o.difference_count(), fnv(&sequence_signature(o)));
    if k.label != format!("{seq:?}") || got != (k.paths, k.curated, k.differences, k.sig) {
        return Err(format!(
            "{seq:?}: got paths/curated/diffs {}/{}/{} sig {:016x}, known {}/{}/{} sig {:016x}",
            got.0, got.1, got.2, got.3, k.paths, k.curated, k.differences, k.sig
        ));
    }
    Ok(())
}

fn check_known(k: &Known, it: &Item, o: &InstructionOutcome) -> Result<(), String> {
    let got = (o.paths_found, o.curated, o.difference_count(), fnv(&signature(o)));
    if k.label != it.label || got != (k.paths, k.curated, k.differences, k.sig) {
        return Err(format!(
            "{} / {}: got paths/curated/diffs {}/{}/{} sig {:016x}, known {}/{}/{} sig {:016x}",
            it.target.label(),
            it.label,
            got.0,
            got.1,
            got.2,
            got.3,
            k.paths,
            k.curated,
            k.differences,
            k.sig
        ));
    }
    Ok(())
}

fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn sweep_signatures(reports: &[igjit::CampaignReport]) -> Vec<String> {
    reports.iter().flat_map(|r| r.outcomes.iter().map(signature)).collect()
}

/// A workload's state between ops.
pub enum State {
    Cold(Cold),
    Mutation(Mutation),
    Warm(Warm),
    Sequence(Sequence),
}

pub struct Cold {
    items: Vec<Item>,
    known: Vec<Known>,
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
    campaign: Campaign,
}

pub struct Mutation {
    cache: Arc<ExplorationCache>,
    baseline: Vec<String>,
    rng: StdRng,
    order: Vec<&'static MutationOp>,
    pos: usize,
}

pub struct Warm {
    items: Vec<Item>,
    known: Vec<Known>,
    rng: StdRng,
    src: PathBuf,
    src_bytes: u64,
    dir: PathBuf,
    copies: usize,
}

pub struct Sequence {
    pool: Vec<Vec<Instruction>>,
    known: Vec<Known>,
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
}

/// Builds a workload's state (everything before the first op).
pub fn setup(name: &str, seed: u64, dir: &Path) -> Result<State, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "cold_sweep" => {
            let items = items();
            let order = shuffled(items.len(), &mut rng);
            Ok(State::Cold(Cold { known: known()?, items, rng, order, pos: 0, campaign: Campaign::new(config()) }))
        }
        "mutation_matrix" => {
            let base = Campaign::new(config());
            let reports = base.run_all();
            check_table2(&reports)?;
            let baseline = sweep_signatures(&reports);
            let order = mutant_order(&mut rng);
            Ok(State::Mutation(Mutation { cache: base.exploration_cache_arc(), baseline, rng, order, pos: 0 }))
        }
        "warm_replay" => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let src = dir.join("seed.corpus");
            let _ = std::fs::remove_file(&src);
            let cold = Campaign::new(CampaignConfig { corpus: Some(src.clone()), ..config() });
            check_table2(&cold.run_all())?;
            let src_bytes = match cold.save_corpus() {
                Some(Ok(SaveOutcome::Written { bytes })) => bytes as u64,
                other => return Err(format!("seeding the corpus failed: {other:?}")),
            };
            Ok(State::Warm(Warm { items: items(), known: known()?, rng, src, src_bytes, dir: dir.to_path_buf(), copies: 0 }))
        }
        "sequence_fuzz" => {
            let order = shuffled(SEQUENCE_POOL, &mut rng);
            Ok(State::Sequence(Sequence { pool: sequence_pool(), known: known_sequences()?, rng, order, pos: 0 }))
        }
        other => Err(format!("unknown workload {other:?} (expected one of {NAMES:?})")),
    }
}

fn mutant_order(rng: &mut StdRng) -> Vec<&'static MutationOp> {
    shuffled(mutate::CATALOG.len(), rng).into_iter().map(|i| &mutate::CATALOG[i]).collect()
}

/// Whether the mutant sweep deviates from the pristine one, checked
/// against the known kill set.
fn check_kill(op: &MutationOp, baseline: &[String], sigs: &[String]) -> Result<(), String> {
    let killed = baseline != sigs;
    let expected = !SURVIVORS.contains(&op.id.0);
    if killed != expected {
        return Err(format!(
            "mutant {} ({}) was {} but is known to be {}",
            op.id.0,
            op.name,
            if killed { "killed" } else { "survived" },
            if expected { "killed" } else { "a survivor" }
        ));
    }
    Ok(())
}

fn draw_sequence(rng: &mut StdRng) -> Vec<Instruction> {
    let len = rng.gen_range(2..=5);
    (0..len).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
}

/// Copies the seed corpus to a fresh path for one warm op.
fn warm_copy(w: &mut Warm) -> Result<PathBuf, String> {
    w.copies += 1;
    let path = w.dir.join(format!("op-{}.corpus", w.copies));
    std::fs::copy(&w.src, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// What one warm op produced.
struct WarmRun {
    campaign: Campaign,
    /// Outcomes in sweep order.
    outcomes: Vec<InstructionOutcome>,
    saved: Option<std::io::Result<SaveOutcome>>,
}

/// One warm op on the corpus copy at `path`: a campaign attached to it
/// (which loads the file and preloads its caches), the sweep in
/// `order`, then the campaign's own save to the same path, emptied
/// first so that the save writes. With a tracer installed the three
/// steps and every `outcome_for` are spans.
fn warm_run(w: &Warm, order: &[usize], path: &Path) -> WarmRun {
    let attached = CampaignConfig { corpus: Some(path.to_path_buf()), ..config() };
    let campaign = trace::span("corpus.load", || Campaign::new(attached));
    let outcomes = order
        .iter()
        .map(|&i| {
            let it = &w.items[i];
            trace::span("core.outcome_for", || campaign.outcome_for(it.instr, it.target))
        })
        .collect();
    let saved = trace::span("corpus.save", || {
        let _ = std::fs::remove_file(path);
        campaign.save_corpus()
    });
    WarmRun { campaign, outcomes, saved }
}

/// Checks a warm op: a warm load, every outcome against its known
/// answer and served without one cache lookup, and a save that wrote
/// the seed corpus's bytes again. Adds the op's warm and byte counts
/// into `p`.
fn warm_check(w: &Warm, order: &[usize], run: &WarmRun, p: &mut Pass) -> Result<(), String> {
    let mut errors = Vec::new();
    match run.campaign.corpus_load_stats() {
        Some(s) if !s.cold && s.stale_sections == 0 && s.outcomes == w.items.len() => {}
        other => errors.push(format!("corpus load was not warm: {other:?}")),
    }
    for (&i, o) in order.iter().zip(&run.outcomes) {
        if let Err(e) = check_known(&w.known[i], &w.items[i], o) {
            errors.push(e);
        }
    }
    let c = &run.campaign;
    let explored = c.cache().hits() + c.cache().misses();
    let cold = explored + c.code_cache().misses() + c.meta_cache().misses();
    if cold != 0 {
        errors.push(format!("{cold} cache lookups: not every outcome was served warm"));
    }
    p.warm_asked += order.len() as u64;
    p.warm += order.len().saturating_sub(explored) as u64;
    match &run.saved {
        Some(Ok(SaveOutcome::Written { bytes })) if *bytes as u64 == w.src_bytes => p.corpus_bytes += *bytes as u64,
        other => errors.push(format!("the save did not write the {}-byte corpus again: {other:?}", w.src_bytes)),
    }
    match errors.first() {
        Some(e) => Err(format!("{} errors, first: {e}", errors.len())),
        None => Ok(()),
    }
}

/// Whether the last op finished a whole cycle of the workload's
/// inputs: a sweep, the mutant catalog or the sequence pool (every
/// warm-replay op is a whole sweep).
pub fn cycle_done(state: &State) -> bool {
    match state {
        State::Cold(c) => c.pos == c.order.len(),
        State::Mutation(m) => m.pos == m.order.len(),
        State::Warm(_) => true,
        State::Sequence(s) => s.pos == s.order.len(),
    }
}

/// Runs one op. `Err` is a failed known-answer check.
pub fn op(state: &mut State) -> Result<(), String> {
    match state {
        State::Cold(c) => {
            if c.pos == c.order.len() {
                c.campaign = Campaign::new(config());
                c.order = shuffled(c.items.len(), &mut c.rng);
                c.pos = 0;
            }
            let i = c.order[c.pos];
            c.pos += 1;
            let it = &c.items[i];
            let o = c.campaign.outcome_for(it.instr, it.target);
            check_known(&c.known[i], it, &o)
        }
        State::Mutation(m) => {
            if m.pos == m.order.len() {
                m.order = mutant_order(&mut m.rng);
                m.pos = 0;
            }
            let mop = m.order[m.pos];
            m.pos += 1;
            let guard = FaultInjector::arm(mop.id)?;
            let reports = Campaign::with_exploration_cache(config(), Arc::clone(&m.cache)).run_all();
            drop(guard);
            check_kill(mop, &m.baseline, &sweep_signatures(&reports))
        }
        State::Warm(w) => {
            let path = warm_copy(w)?;
            let order = shuffled(w.items.len(), &mut w.rng);
            let run = warm_run(w, &order, &path);
            let checked = warm_check(w, &order, &run, &mut Pass::default());
            drop(run);
            let _ = std::fs::remove_file(&path);
            checked
        }
        State::Sequence(s) => {
            if s.pos == s.order.len() {
                s.order = shuffled(SEQUENCE_POOL, &mut s.rng);
                s.pos = 0;
            }
            let i = s.order[s.pos];
            s.pos += 1;
            check_sequence(&s.known[i], &s.pool[i], &run_sequence(&s.pool[i]))
        }
    }
}

/// What one traced pass produced.
#[derive(Default)]
pub struct Pass {
    /// Ops in the pass and how many failed a check.
    pub ops: u64,
    pub failed: u64,
    /// Counts from the layers' return values (traced) or from the
    /// program's outcomes and cache counters (untraced).
    pub counts: Counts,
    /// Corpus bytes written and outcomes served warm / asked for.
    pub corpus_bytes: u64,
    pub warm: u64,
    pub warm_asked: u64,
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Verdict signatures, in op order.
    pub sigs: Vec<String>,
    /// First few check failures.
    pub errors: Vec<String>,
}

impl Pass {
    /// Every count of the pass by name.
    pub fn tally(&self) -> BTreeMap<&'static str, u64> {
        let mut t = self.counts.fields();
        t.extend([("corpus.bytes", self.corpus_bytes), ("warm", self.warm), ("warm_asked", self.warm_asked)]);
        t
    }

    fn record(&mut self, r: Result<(), String>) {
        self.ops += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// The counts of a pass that the program reports itself, so that the
/// traced re-drive's must equal the untraced pass's.
pub fn program_counts(name: &str) -> &'static [&'static str] {
    match name {
        "cold_sweep" | "mutation_matrix" => &CAMPAIGN_COUNTS,
        "sequence_fuzz" => &SEQUENCE_COUNTS,
        _ => &["corpus.bytes", "warm", "warm_asked"],
    }
}

/// Adds the lookups `c`'s caches counted: its exploration cache's
/// since `explore0`, and all of its own code cache's.
fn add_cache_counts(counts: &mut Counts, c: &Campaign, explore0: (usize, usize)) {
    counts.explore_hits += (c.cache().hits() - explore0.0) as u64;
    counts.explore_misses += (c.cache().misses() - explore0.1) as u64;
    counts.code_hits += c.code_cache().hits() as u64;
    counts.code_misses += c.code_cache().misses() as u64;
}

/// Runs `f` as op number `n` of a pass: timed into the pass's wall
/// time and, when tracing, under the op's root span.
fn pass_op<R>(p: &mut Pass, n: usize, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let root = trace::begin_op(n as u32);
    let r = f();
    drop(root);
    p.wall_s += t.elapsed().as_secs_f64();
    r
}

/// Runs one pass of `name` with the given seed; `traced` chooses the
/// span-instrumented re-drive, otherwise the campaign's own entry
/// points. Both see the same inputs in the same order. The pass's wall
/// time sums its ops only, not its set-up or its checks. The untraced
/// pass's counts are the ones the program reports (see
/// [`program_counts`]). `limit` caps the ops (the self-test's handful).
pub fn pass(
    name: &str,
    seed: u64,
    dir: &Path,
    traced: bool,
    shared: Option<&Arc<ExplorationCache>>,
    limit: usize,
) -> Result<Pass, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pass::default();
    match name {
        "cold_sweep" => {
            let items = items();
            let known = known()?;
            let order = shuffled(items.len(), &mut rng);
            let mut pipeline = Pipeline::new(Arc::new(ExplorationCache::new()));
            let campaign = Campaign::new(config());
            let mut program = Counts::default();
            for (n, &i) in order.iter().take(limit).enumerate() {
                let it = &items[i];
                let o = pass_op(&mut p, n, || match traced {
                    true => pipeline.outcome_for(it.instr, it.target),
                    false => campaign.outcome_for(it.instr, it.target),
                });
                program.absorb(&o, it.target);
                p.record(check_known(&known[i], it, &o));
                p.sigs.push(signature(&o));
            }
            p.counts = match traced {
                true => pipeline.counts,
                false => {
                    add_cache_counts(&mut program, &campaign, (0, 0));
                    program
                }
            };
        }
        "mutation_matrix" => {
            let cache = Arc::clone(shared.ok_or("mutation pass needs the baseline's exploration cache")?);
            let base = Campaign::with_exploration_cache(config(), Arc::clone(&cache));
            let items = items();
            let baseline: Vec<String> =
                items.iter().map(|it| signature(&base.outcome_for(it.instr, it.target))).collect();
            for (n, mop) in mutant_order(&mut rng).into_iter().take(limit).enumerate() {
                let guard = FaultInjector::arm(mop.id)?;
                let outcomes: Vec<InstructionOutcome> = if traced {
                    let mut pipeline = Pipeline::new(Arc::clone(&cache));
                    let outcomes = pass_op(&mut p, n, || {
                        items.iter().map(|it| pipeline.outcome_for(it.instr, it.target)).collect()
                    });
                    p.counts.merge(&pipeline.counts);
                    outcomes
                } else {
                    let explore0 = (cache.hits(), cache.misses());
                    let c = Campaign::with_exploration_cache(config(), Arc::clone(&cache));
                    let outcomes: Vec<InstructionOutcome> = pass_op(&mut p, n, || {
                        items.iter().map(|it| c.outcome_for(it.instr, it.target)).collect()
                    });
                    add_cache_counts(&mut p.counts, &c, explore0);
                    for (it, o) in items.iter().zip(&outcomes) {
                        p.counts.absorb(o, it.target);
                    }
                    outcomes
                };
                drop(guard);
                let sigs: Vec<String> = outcomes.iter().map(signature).collect();
                p.record(check_kill(mop, &baseline, &sigs));
                p.sigs.extend(sigs);
            }
        }
        "warm_replay" => {
            let State::Warm(mut w) = setup(name, seed, dir)? else { unreachable!() };
            for n in 0..TRACED_WARM_OPS.min(limit) {
                let path = warm_copy(&mut w)?;
                let order = shuffled(w.items.len(), &mut w.rng);
                let run = pass_op(&mut p, n, || warm_run(&w, &order, &path));
                let r = warm_check(&w, &order, &run, &mut p);
                p.sigs.extend(run.outcomes.iter().map(signature));
                drop(run);
                let _ = std::fs::remove_file(&path);
                p.record(r);
            }
        }
        "sequence_fuzz" => {
            let (pool, known) = (sequence_pool(), known_sequences()?);
            for (n, i) in shuffled(SEQUENCE_POOL, &mut rng).into_iter().take(TRACED_SEQUENCES.min(limit)).enumerate() {
                let seq = &pool[i];
                let mut counts = Counts::default();
                let o = pass_op(&mut p, n, || match traced {
                    true => crate::replica::test_sequence(seq, &mut counts),
                    false => run_sequence(seq),
                });
                if !traced {
                    counts.paths += o.paths_found as u64;
                    counts.curated += o.curated as u64;
                    counts.differences += o.difference_count() as u64;
                }
                p.counts.merge(&counts);
                p.record(check_sequence(&known[i], seq, &o));
                p.sigs.push(sequence_signature(&o));
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(p)
}

/// Checks a full sweep's rows against the known Table 2 totals.
pub fn check_table2(reports: &[igjit::CampaignReport]) -> Result<(), String> {
    for (r, &(n, paths, curated, diffs)) in reports.iter().zip(TABLE2.iter()) {
        let row = &r.row;
        if (row.tested_instructions, row.interpreter_paths, row.curated_paths, row.differences) != (n, paths, curated, diffs) {
            return Err(format!("row {:?} differs from Table 2", row));
        }
    }
    Ok(())
}

