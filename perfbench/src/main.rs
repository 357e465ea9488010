//! The repo benchmark: the campaign as a closed loop at one thread.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir DIR] [--ops N]
//!
//! `--ops N` runs exactly N ops (traced: at most N per pass) and takes
//! one set-up sample, for the self-test.
//! perfbench --setup-only --workload <name> --seed <n> [--work-dir DIR]
//! perfbench --write-known DIR
//! ```
//!
//! `--trace 0` times ops for `--seconds` (and at least 100 ops) and
//! prints the end-to-end metrics; `--trace 1` re-drives one pass of
//! the workload with a span around every layer call and prints the
//! per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py`
//! builds the release binary and runs it; see `perfbench/README.md`.

mod replica;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use igjit::Campaign;

use crate::trace::Recording;
use crate::workloads::Pass;

/// Fewest ops a timed run completes, so p90 has ten samples past it.
const MIN_OPS: usize = 100;

/// Set-up samples a timed run takes; `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;

/// Share of a traced pass's op wall time that may go uncovered by
/// layer spans (the root spans' own bookkeeping).
const UNATTRIBUTED_SHARE: f64 = 0.02;

/// Span names whose `calls`/`self_ms`/`us_p50` are per-layer metrics.
const LAYER_CALLS: [&str; 15] = [
    "concolic.explore",
    "concolic.materialize",
    "heap.restore",
    "interp.oracle",
    "jit.code_cache",
    "jit.compile",
    "metajit.compile",
    "machine.predecode",
    "machine.simulate",
    "difftest.compare",
    "difftest.test_sequence",
    "solver.solve",
    "corpus.load",
    "corpus.save",
    "core.outcome_for",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    ops: Option<usize>,
    setup_only: bool,
    write_known: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from("perfbench/.work"),
        ops: None,
        setup_only: false,
        write_known: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--ops" => a.ops = Some(value()?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--setup-only" => a.setup_only = true,
            "--write-known" => a.write_known = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.write_known.is_none() && !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_known {
        return match workloads::write_known(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let result = if args.setup_only {
        setup_only(&args)
    } else if args.trace {
        traced(&args)
    } else {
        timed(&args, started)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A per-process scratch directory under the work dir.
fn scratch_dir(args: &Args) -> PathBuf {
    args.work_dir.join(format!("{}-{}", args.workload, std::process::id()))
}

fn setup_only(args: &Args) -> Result<(), String> {
    let dir = scratch_dir(args);
    let state = workloads::setup(&args.workload, args.seed, &dir)?;
    println!("ready");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Set-up time of a fresh process: from spawning this binary in
/// `--setup-only` mode until it reports that its first op could issue.
fn setup_sample(args: &Args) -> Result<f64, String> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("setup sample: {e}"))?;
    let mut line = String::new();
    let read = child.stdout.take().map(|out| std::io::BufReader::new(out).read_line(&mut line));
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("setup sample: {e}"))?;
    match read {
        Some(Ok(_)) if line.trim() == "ready" && status.success() => Ok(elapsed),
        _ => Err(format!("setup sample failed ({status})")),
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn timed(args: &Args, started: Instant) -> Result<(), String> {
    let dir = scratch_dir(args);
    let mut state = workloads::setup(&args.workload, args.seed, &dir)?;
    let own_setup = started.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(args.seconds);
    let (min_ops, max_ops, samples) = match args.ops {
        Some(n) => (n, n, 1),
        None => (MIN_OPS, usize::MAX, SETUP_SAMPLES),
    };
    // Set-up samples are spread over the timed phase, so they see the
    // same host conditions as the ops; their time is excluded from it.
    let sample_every = budget.div_f64(samples as f64);
    let mut setups = Vec::with_capacity(samples);
    let mut sampling = Duration::ZERO;
    let mut lat_ms = Vec::new();
    let mut failed = 0usize;
    let mut first_error = None;
    let t0 = Instant::now();
    // A run ends on a cycle boundary (a whole sweep, mutant catalog or
    // sequence pool), so every seed times the same mix of inputs.
    while lat_ms.len() < max_ops
        && (lat_ms.len() < min_ops || t0.elapsed() - sampling < budget || !workloads::cycle_done(&state))
    {
        if setups.len() < samples && t0.elapsed() - sampling >= sample_every.mul_f64(setups.len() as f64) {
            let s = Instant::now();
            setups.push(setup_sample(args)?);
            sampling += s.elapsed();
        }
        let s = Instant::now();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workloads::op(&mut state)));
        lat_ms.push(s.elapsed().as_secs_f64() * 1000.0);
        let err = match r {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e,
            Err(_) => "op panicked".to_string(),
        };
        failed += 1;
        first_error.get_or_insert(err);
    }
    let wall = (t0.elapsed() - sampling).as_secs_f64();
    let rss = peak_rss_mb();
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    while setups.len() < samples {
        setups.push(setup_sample(args)?);
    }
    let setup_s = median(&mut setups);
    let ops = lat_ms.len();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_s, "s"),
        ("op_ms.p50", percentile(&lat_ms, 0.5), "ms"),
        ("op_ms.p90", percentile(&lat_ms, 0.9), "ms"),
        ("ops_per_s", ops as f64 / wall, "1/s"),
        ("peak_rss_mb", rss, "MiB"),
    ];
    if let Some(e) = &first_error {
        eprintln!("perfbench: {failed} ops failed their known-answer check; first: {e}");
    }
    eprintln!(
        "perfbench: {} seed {}: {ops} ops in {wall:.3} s (op_ms samples {ops}, failed_ratio {:.6}), \
         setup samples {setups:?} (in-process {own_setup:.6} s)",
        args.workload,
        args.seed,
        failed as f64 / ops as f64,
    );
    let extra = format!("\"ops\":{ops},\"failed_ratio\":{},\"timed_s\":{wall}", failed as f64 / ops as f64);
    emit(args, failed == 0, ops, failed, &metrics, &extra)
}

/// Commit of the checkout, read from `.git/HEAD` (or "unknown").
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(String::from))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the result line and appends it, with provenance, to the
/// work dir's `results.jsonl`.
fn emit(args: &Args, correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)], extra: &str) -> Result<(), String> {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), if v.is_finite() { *v } else { 0.0 }, json_str(u)))
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let provenance = format!(
        "{{\"commit\":{},\"rustc\":{},\"nproc\":{},\"release\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"unix_time\":{},{extra}}}",
        json_str(&commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        !cfg!(debug_assertions),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
    );
    let record = format!("{{\"provenance\":{provenance},\"result\":{line}}}\n");
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.work_dir.join("results.jsonl"))
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("results.jsonl: {e}"))?;
    eprintln!("perfbench: provenance {provenance}");
    println!("{line}");
    Ok(())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Count fields compared between the two traced passes: every span's
/// calls and every count of the pass.
fn count_fields(p: &Pass, rec: &Recording) -> BTreeMap<String, u64> {
    let mut m: BTreeMap<String, u64> = rec.aggs.iter().map(|(n, a)| (format!("{n}.calls"), a.calls)).collect();
    m.extend(p.tally().into_iter().map(|(k, v)| (k.to_string(), v)));
    m
}

fn traced(args: &Args) -> Result<(), String> {
    let dir = scratch_dir(args);
    let shared = (args.workload == "mutation_matrix").then(|| {
        let base = Campaign::new(workloads::config());
        base.run_all();
        base.exploration_cache_arc()
    });
    let run = |traced: bool| -> Result<(Pass, Option<Recording>), String> {
        if traced {
            trace::install();
        }
        let limit = args.ops.unwrap_or(usize::MAX);
        let p = workloads::pass(&args.workload, args.seed, &dir, traced, shared.as_ref(), limit);
        let rec = traced.then(trace::take);
        Ok((p?, rec))
    };
    let (a, rec_a) = run(true)?;
    let (u, _) = run(false)?;
    let (b, rec_b) = run(true)?;
    let (rec_a, rec_b) = (rec_a.expect("traced"), rec_b.expect("traced"));
    let _ = std::fs::remove_dir_all(&dir);

    let mut problems = Vec::new();
    for (name, p) in [("first traced pass", &a), ("untraced pass", &u), ("second traced pass", &b)] {
        if p.failed > 0 {
            problems.push(format!("{name}: {} ops failed, first: {}", p.failed, p.errors.join(" | ")));
        }
    }
    let diverged = u.sigs.iter().zip(&b.sigs).filter(|(x, y)| x != y).count()
        + u.sigs.iter().zip(&a.sigs).filter(|(x, y)| x != y).count()
        + u.sigs.len().abs_diff(b.sigs.len());
    if diverged > 0 {
        problems.push(format!("{diverged} traced verdicts differ from the untraced run"));
    }
    // The layer self times must account for the ops' wall time, as
    // the pass measures it apart from the tracer: what they miss is
    // work inside an op that no span covers.
    let mut unattributed_ms = 0.0f64;
    for (name, p, rec) in [("first traced pass", &a, &rec_a), ("second traced pass", &b, &rec_b)] {
        let missed = p.wall_s * 1e3 - rec.layer_self_ns() as f64 / 1e6;
        unattributed_ms = unattributed_ms.max(missed);
        if missed > UNATTRIBUTED_SHARE * p.wall_s * 1e3 {
            problems.push(format!("{name}: layer self times miss {missed:.3} ms of {:.3} ms op wall time", p.wall_s * 1e3));
        }
    }
    // The re-drive must do the program's work: every count the program
    // reports itself must come out the same from both traced passes.
    let (ta, tu, tb) = (a.tally(), u.tally(), b.tally());
    let mut drifted = 0;
    for k in workloads::program_counts(&args.workload) {
        if ta.get(k) != tu.get(k) || tb.get(k) != tu.get(k) {
            drifted += 1;
            problems.push(format!("count {k}: the program reports {:?}, the traced passes {:?} and {:?}", tu.get(k), ta.get(k), tb.get(k)));
        }
    }
    let (fa, fb) = (count_fields(&a, &rec_a), count_fields(&b, &rec_b));
    let nondet: Vec<&String> = fb.keys().chain(fa.keys()).filter(|k| fa.get(*k) != fb.get(*k)).collect();
    for k in &nondet {
        eprintln!("perfbench: nondeterministic count {k}: {:?} then {:?} (not a claim basis)", fa.get(*k), fb.get(*k));
    }

    let path = args.work_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, &rec_b.chrome).map_err(|e| format!("{}: {e}", path.display()))?;

    let resolve_ms = rec_b.aggs.get("solver.solve").map(|a| a.durs_ns.iter().map(|&d| u64::from(d)).sum::<u64>()).unwrap_or(0) as f64 / 1e6;
    let overhead_ms = (b.wall_s - u.wall_s) * 1000.0 - resolve_ms;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in LAYER_CALLS {
        let agg = rec_b.aggs.get(name).cloned().unwrap_or_default();
        metrics.push((format!("{name}.calls"), agg.calls as f64, "count"));
        metrics.push((format!("{name}.self_ms"), agg.self_ns as f64 / 1e6, "ms"));
        metrics.push((format!("{name}.us_p50"), trace::median_ns(&agg.durs_ns) as f64 / 1e3, "us"));
    }
    let c = &b.counts;
    let s = &c.solver;
    metrics.extend([
        ("concolic.explore_cache.hit_ratio".into(), ratio(c.explore_hits, c.explore_hits + c.explore_misses), "ratio"),
        ("concolic.curated_ratio".into(), ratio(c.curated, c.paths), "ratio"),
        ("solver.solves".into(), s.solves as f64, "count"),
        ("solver.sat_ratio".into(), ratio(s.sat as u64, s.solves as u64), "ratio"),
        ("solver.nodes_per_solve".into(), ratio(s.nodes_visited as u64, s.solves as u64), "count"),
        ("solver.resolve_sat_ratio".into(), ratio(c.resolves_sat, c.resolves), "ratio"),
        ("heap.dirty_words_per_restore".into(), ratio(c.snapshot.dirty_words, c.snapshot.restores), "count"),
        ("jit.code_cache.hit_ratio".into(), ratio(c.code_hits, c.code_hits + c.code_misses), "ratio"),
        ("metajit.full_coverage_ratio".into(), ratio(c.meta_full, c.meta_instructions), "ratio"),
        ("difftest.difference_ratio".into(), ratio(c.differences, c.curated), "ratio"),
        ("corpus.bytes".into(), b.corpus_bytes as f64 / b.ops.max(1) as f64, "bytes"),
        ("corpus.warm_ratio".into(), ratio(b.warm, b.warm_asked), "ratio"),
        ("trace.ops".into(), b.ops as f64, "count"),
        ("trace.traced_ms".into(), b.wall_s * 1000.0, "ms"),
        ("trace.untraced_ms".into(), u.wall_s * 1000.0, "ms"),
        ("trace.overhead_ms".into(), overhead_ms, "ms"),
        ("trace.nondeterministic_counts".into(), nondet.len() as f64, "count"),
    ]);

    render_table(&args.workload, &rec_b, b.wall_s);
    eprintln!(
        "perfbench: traced {:.1} ms, untraced {:.1} ms, tracing overhead {overhead_ms:.1} ms (re-solves {resolve_ms:.1} ms excluded), \
         unattributed {unattributed_ms:.3} ms; counts {:?}",
        b.wall_s * 1000.0,
        u.wall_s * 1000.0,
        c
    );
    eprintln!("perfbench: chrome trace written to {}", path.display());
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let failed = (a.failed + u.failed + b.failed) as usize + diverged + drifted;
    let refs: Vec<(&str, f64, &str)> = metrics.iter().map(|(n, v, u)| (n.as_str(), *v, *u)).collect();
    let extra = format!("\"ops\":{},\"failed_ratio\":{}", b.ops, ratio(failed as u64, b.ops));
    emit(args, problems.is_empty(), b.ops as usize, failed, &refs, &extra)
}

/// Prints the per-layer table of one traced pass to stderr.
fn render_table(workload: &str, rec: &Recording, wall_s: f64) {
    let mut rows: Vec<(&&str, &trace::Agg)> = rec.aggs.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
    eprintln!("\n{workload}: per-layer self time over one traced pass ({:.1} ms)", wall_s * 1000.0);
    eprintln!("  {:<24} {:>9} {:>11} {:>7} {:>10}", "span", "calls", "self_ms", "share", "us_p50");
    for (name, a) in rows {
        eprintln!(
            "  {:<24} {:>9} {:>11.3} {:>6.1}% {:>10.2}",
            name,
            a.calls,
            a.self_ns as f64 / 1e6,
            100.0 * a.self_ns as f64 / 1e9 / wall_s.max(1e-9),
            trace::median_ns(&a.durs_ns) as f64 / 1e3
        );
    }
    eprintln!();
}
