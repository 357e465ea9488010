//! Per-layer corpus codec bench: µs per `encode`, `decode`, section
//! checksum, warm attach (`Campaign::new` on the file: decode plus
//! cache preload) and `save_corpus` (borrowed encode plus the atomic
//! write), with the MB/s each reaches over the file image. The `write`
//! row (replace the file with the image, no encoding) is the I/O floor
//! under `save_corpus`.
//!
//! The seed corpus is built once: a five-tier Table 2 sweep (both
//! ISAs, probes on, one thread) saved to a temp file — the same corpus
//! the benchmark's `warm_replay` workload replays. Each row repeats its
//! operation until the sample budget is spent and reports the median
//! and minimum. Run with `cargo bench -p igjit-bench --bench corpus`.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use igjit::{Campaign, CampaignConfig};
use igjit_corpus::file::{decode, encode};
use igjit_corpus::wire::checksum;

/// Operations timed per row, after one untimed warm-up.
const SAMPLES: usize = 31;

/// Times `op` over `bytes` of file image and prints one table row.
fn row(op: &str, bytes: usize, mut run: impl FnMut()) {
    run();
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let p50 = us(samples[SAMPLES / 2]);
    println!(
        "{op:<12} {bytes:>10} {p50:>12.1} {:>12.1} {:>10.0}",
        us(samples[0]),
        bytes as f64 / p50,
    );
}

/// A temp path removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn main() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("igjit-corpus-bench-{}.corpus", std::process::id())));
    let _ = std::fs::remove_file(&scratch.0);
    let config = CampaignConfig { threads: 1, corpus: Some(scratch.0.clone()), ..CampaignConfig::default() };
    let seed = Campaign::new(config.clone());
    seed.run_all();
    seed.save_corpus().expect("corpus attached").expect("seed corpus written");
    drop(seed);

    let image = std::fs::read(&scratch.0).expect("seed corpus");
    let fps = igjit_corpus::fingerprints(config.probes, &config.isas);
    let (corpus, stats) = decode(&image, &fps);
    assert!(!stats.cold && stats.warnings.is_empty(), "seed corpus must load clean: {stats:?}");
    println!(
        "seed corpus: {} bytes, {} explorations, {} code artifacts, {} outcomes",
        image.len(),
        stats.explorations,
        stats.code,
        stats.outcomes
    );
    let warm = Campaign::new(config.clone());

    println!("{:<12} {:>10} {:>12} {:>12} {:>10}", "op", "bytes", "us p50", "us min", "MB/s p50");
    row("checksum", image.len(), || {
        black_box(checksum(black_box(&image)));
    });
    row("decode", image.len(), || {
        black_box(decode(black_box(&image), &fps));
    });
    row("encode", image.len(), || {
        black_box(encode(black_box(&corpus), &fps).to_vec());
    });
    row("attach", image.len(), || {
        black_box(Campaign::new(config.clone()));
    });
    row("write", image.len(), || {
        let _ = std::fs::remove_file(&scratch.0);
        std::fs::write(&scratch.0, &image).expect("corpus written");
    });
    row("save_corpus", image.len(), || {
        let _ = std::fs::remove_file(&scratch.0);
        warm.save_corpus().expect("corpus attached").expect("corpus written");
    });
}
