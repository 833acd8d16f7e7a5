//! **Streaming archive replay** — the million-job baseline for the
//! O(active)-memory replay engine. For each archive profile the binary
//! generates (or reuses) the deterministic `theta_*` corpus per seed,
//! streams it off disk through [`SwfStreamSource`] with
//! [`Simulator::run_source`], and records throughput (jobs/s, events/s),
//! the simulator's own live-job high-water mark, and the process peak RSS.
//!
//! **Self-check:** on the quick profile, seed 0 of every mechanism is
//! additionally *materialized* (full archive import) and replayed with
//! [`Simulator::run_trace`]; metrics and engine counters must match the
//! streamed run bitwise — the same invariant the `streaming_equivalence`
//! proptests pin at unit scale, enforced here on the real corpus. Any
//! divergence exits non-zero, which is what CI keys on.
//!
//! Row fields split into deterministic simulation outputs (`jobs`,
//! `events`, `metrics_fingerprint`, `peak_resident_jobs` — gated by
//! `baseline_parity`) and wall-clock measurements (`*_per_sec`,
//! `peak_rss_mb` — machine-dependent, not gated).
//!
//! Writes `BENCH_archive_replay.json` at the workspace root (override
//! with `HWS_ARCHIVE_REPLAY_JSON=path`). The committed baseline is
//! recorded at `HWS_SCALE=full` (quick + full profiles) with 2 seeds:
//!
//! ```text
//! HWS_SCALE=full HWS_SEEDS=2 cargo run --release -p hws-bench --bin archive_replay
//! ```

use hws_bench::{
    ensure_archive, metrics_fingerprint, peak_rss_bytes, reset_peak_rss, seeds_from_env_or,
    ArchiveProfile, Scale,
};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{import_swf_reader, SwfImportConfig, SwfStreamSource};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Row {
    profile: &'static str,
    mechanism: Mechanism,
    /// Jobs admitted per seed (identical across seeds of a profile).
    jobs: u64,
    seeds: u64,
    /// Delivered simulator events, summed over seeds.
    events: u64,
    /// FNV-1a over the per-seed metrics (see `metrics_fingerprint`).
    metrics_fingerprint: u64,
    /// Max over seeds of the job arena's live high-water mark — the
    /// O(active) claim as a committed, regression-gated number.
    peak_resident_jobs: usize,
    wall_s: f64,
    jobs_per_sec: f64,
    events_per_sec: f64,
    /// Max over seeds of the per-run peak RSS delta watermark.
    peak_rss_mb: f64,
}

/// Stream every seed of `(profile, mechanism)` and aggregate one row.
fn run_cell(
    profile: ArchiveProfile,
    m: Mechanism,
    archives: &[PathBuf],
    self_check: Option<&[SimOutcome]>,
) -> Row {
    let cfg = SimConfig::with_mechanism(m);

    let mut outcomes = Vec::with_capacity(archives.len());
    let mut wall_s = 0.0;
    let mut peak_rss_mb = 0.0f64;
    for path in archives {
        reset_peak_rss();
        let t0 = Instant::now();
        let source = SwfStreamSource::open(path)
            .unwrap_or_else(|e| panic!("open archive {}: {e}", path.display()));
        let outcome = Simulator::run_source(&cfg, source);
        wall_s += t0.elapsed().as_secs_f64();
        if let Some(rss) = peak_rss_bytes() {
            peak_rss_mb = peak_rss_mb.max(rss as f64 / (1024.0 * 1024.0));
        }
        outcomes.push(outcome);
    }

    if let Some(materialized) = self_check {
        let streamed = &outcomes[0];
        let reference = &materialized[0];
        assert_eq!(
            reference.metrics,
            streamed.metrics,
            "{}: streamed replay diverged from materialized import",
            m.name()
        );
        assert_eq!(
            reference.engine,
            streamed.engine,
            "{}: engine counters diverged from materialized import",
            m.name()
        );
        assert_eq!(reference.classes, streamed.classes);
    }

    let jobs = outcomes[0].admitted_jobs;
    assert!(
        outcomes.iter().all(|o| o.admitted_jobs == jobs),
        "seeds of one profile must admit the same job count"
    );
    let events: u64 = outcomes.iter().map(|o| o.engine.delivered).sum();
    Row {
        profile: profile.name(),
        mechanism: m,
        jobs,
        seeds: archives.len() as u64,
        events,
        metrics_fingerprint: metrics_fingerprint(&outcomes),
        peak_resident_jobs: outcomes.iter().map(|o| o.peak_resident_jobs).max().unwrap(),
        wall_s,
        jobs_per_sec: (jobs * archives.len() as u64) as f64 / wall_s,
        events_per_sec: events as f64 / wall_s,
        peak_rss_mb,
    }
}

fn main() {
    let seeds = seeds_from_env_or(2);
    let scale = Scale::from_env();
    let mut rows: Vec<Row> = Vec::new();

    for &profile in ArchiveProfile::for_scale(scale) {
        let archives: Vec<PathBuf> = (0..seeds)
            .map(|s| {
                let t0 = Instant::now();
                let path = ensure_archive(profile, s);
                let secs = t0.elapsed().as_secs_f64();
                if secs > 0.01 {
                    eprintln!("  generated {} in {secs:.1}s", path.display());
                }
                path
            })
            .collect();
        eprintln!(
            "archive_replay: theta_{} x {seeds} seeds ({})",
            profile.name(),
            archives[0].display()
        );

        // Materialized reference for the quick-profile self-check: one
        // full import of seed 0, replayed per mechanism with `run_trace`.
        // (Materializing the million-job profile is exactly what this
        // engine exists to avoid, so the cross-check runs at quick scale.)
        let reference = (profile == ArchiveProfile::Quick).then(|| {
            let file = std::fs::File::open(&archives[0])
                .unwrap_or_else(|e| panic!("open {}: {e}", archives[0].display()));
            import_swf_reader(std::io::BufReader::new(file), &SwfImportConfig::default())
                .unwrap_or_else(|e| panic!("import {}: {e}", archives[0].display()))
        });

        for m in Mechanism::ALL_SIX {
            let self_check = reference.as_ref().map(|trace| {
                let cfg = SimConfig::with_mechanism(m);
                vec![Simulator::run_trace(&cfg, trace)]
            });
            let row = run_cell(profile, m, &archives, self_check.as_deref());
            eprintln!(
                "  {:<8} {:>9.0} jobs/s  {:>9.0} events/s  peak {} resident jobs, {:.0} MiB RSS{}",
                m.name(),
                row.jobs_per_sec,
                row.events_per_sec,
                row.peak_resident_jobs,
                row.peak_rss_mb,
                if self_check.is_some() {
                    "  parity OK"
                } else {
                    ""
                }
            );
            rows.push(row);
        }
    }

    let mut t = Table::new(vec![
        "profile",
        "mechanism",
        "jobs",
        "jobs/s",
        "events/s",
        "peak jobs",
        "RSS MiB",
        "fingerprint",
    ]);
    for r in &rows {
        t.row(vec![
            r.profile.to_string(),
            r.mechanism.name().to_string(),
            r.jobs.to_string(),
            format!("{:.0}", r.jobs_per_sec),
            format!("{:.0}", r.events_per_sec),
            r.peak_resident_jobs.to_string(),
            format!("{:.0}", r.peak_rss_mb),
            format!("{:016x}", r.metrics_fingerprint),
        ]);
    }
    println!(
        "STREAMING ARCHIVE REPLAY (scale {scale:?}, {seeds} seeds, quick profile parity-checked)"
    );
    println!("{}", t.render());

    let json_path = std::env::var("HWS_ARCHIVE_REPLAY_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| default_json_path());
    match std::fs::write(&json_path, rows_to_json(&rows)) {
        Ok(()) => println!("wrote {} rows to {}", rows.len(), json_path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", json_path.display());
            std::process::exit(1);
        }
    }
}

/// Workspace root, next to the other committed baselines.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_archive_replay.json")
}

fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"profile\": \"{}\", \"mechanism\": \"{}\", \"jobs\": {}, \"seeds\": {}, \
             \"events\": {}, \"metrics_fingerprint\": \"{:016x}\", \"peak_resident_jobs\": {}, \
             \"wall_s\": {:.4}, \"jobs_per_sec\": {:.1}, \"events_per_sec\": {:.0}, \
             \"peak_rss_mb\": {:.1}}}{comma}",
            r.profile,
            r.mechanism.name(),
            r.jobs,
            r.seeds,
            r.events,
            r.metrics_fingerprint,
            r.peak_resident_jobs,
            r.wall_s,
            r.jobs_per_sec,
            r.events_per_sec,
            r.peak_rss_mb,
        );
    }
    out.push_str("]\n");
    out
}
