//! **End-to-end simulator throughput** — jobs/sec per mechanism over the
//! synthetic quick-scale trace and the bundled `theta_quick.swf` fixture,
//! sequential and parallel, with a metric-parity self-check.
//!
//! This is the companion baseline to `BENCH_decision_latency.json`: where
//! the decision bench times the mechanism kernels in isolation, this binary
//! times the whole event loop — queue ordering, shadow computation, node
//! routing, cluster accounting — so hot-path regressions that the kernels
//! can't see (e.g. an O(N) scan creeping back into `split_of`) show up as
//! a jobs/sec drop.
//!
//! **Parity self-check:** for every (mechanism × source) cell, seed 0 is
//! re-run with `SimConfig::paranoid_checks` enabled, which cross-validates
//! the cluster's incremental `(plain, squatted)` counters and squatter
//! index against a full node scan after *every* event, and the resulting
//! metrics are asserted bitwise identical to the fast run. Every per-seed
//! parallel outcome is likewise asserted bitwise identical to a sequential
//! replay. Any divergence aborts with a non-zero exit, which is what CI
//! keys on.
//!
//! Writes `BENCH_simulator_throughput.json` at the workspace root
//! (override with `HWS_THROUGHPUT_JSON=path`). The committed baseline is
//! recorded at `HWS_SCALE=quick` with the default 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin throughput
//! ```

use hws_bench::{bundled_swf_fixture, metrics_fingerprint, seeds_from_env, Scale, TraceSource};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{SwfImportConfig, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Row {
    mechanism: Mechanism,
    source: &'static str,
    jobs: usize,
    seeds: u64,
    seq_s: f64,
    par_s: f64,
    seq_jobs_per_sec: f64,
    par_jobs_per_sec: f64,
    events_per_sec: f64,
    /// FNV-1a over the `Debug` rendering of every per-seed metrics struct:
    /// an exact behavioral fingerprint (f64 `Debug` is round-trip), stable
    /// across runs and Rust versions, committed so optimizations that
    /// change *any* metric bit are caught by diffing the baseline.
    metrics_fingerprint: u64,
    avg_turnaround_h: f64,
    utilization: f64,
}

/// Run one (mechanism × source) cell: timed sequential replays, a timed
/// parallel sweep, bitwise sequential-vs-parallel verification, and the
/// paranoid metric-parity self-check on seed 0.
fn run_cell(m: Mechanism, source_label: &'static str, traces: &[Trace], seeds: u64) -> Row {
    let cfg = SimConfig::with_mechanism(m);

    let t0 = Instant::now();
    let sequential: Vec<SimOutcome> = traces
        .iter()
        .map(|tr| Simulator::run_trace(&cfg, tr))
        .collect();
    let seq_s = t0.elapsed().as_secs_f64();

    // Hand each sweep worker a pre-cloned trace so the parallel window
    // measures pure simulation too (a clone inside the factory would bill
    // the parallel path for copies the sequential path never makes).
    let handoff: Vec<std::sync::Mutex<Option<Trace>>> = traces
        .iter()
        .map(|tr| std::sync::Mutex::new(Some(tr.clone())))
        .collect();
    let t1 = Instant::now();
    let parallel = Simulator::run_sweep_with(&cfg, &(0..seeds).collect::<Vec<_>>(), |s| {
        handoff[s as usize]
            .lock()
            .expect("trace handoff")
            .take()
            .expect("each seed taken once")
    });
    let par_s = t1.elapsed().as_secs_f64();

    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(
            p.metrics,
            s.metrics,
            "{} on {source_label} seed {i}: parallel sweep diverged from sequential replay",
            m.name()
        );
        assert_eq!(
            p.engine,
            s.engine,
            "{} seed {i}: engine stats diverged",
            m.name()
        );
    }

    // Metric-parity self-check: the paranoid run cross-validates the
    // incremental cluster accounting against a full node scan after every
    // event (panicking on any counter drift), and its metrics must match
    // the fast path bitwise.
    let paranoid = Simulator::run_trace(&cfg.clone().paranoid(), &traces[0]);
    assert_eq!(
        paranoid.metrics,
        sequential[0].metrics,
        "{} on {source_label}: paranoid reference run diverged from the optimized hot path",
        m.name()
    );

    let jobs: usize = traces.iter().map(|t| t.len()).sum();
    let events: u64 = sequential.iter().map(|o| o.engine.delivered).sum();
    Row {
        mechanism: m,
        source: source_label,
        jobs,
        seeds,
        seq_s,
        par_s,
        seq_jobs_per_sec: jobs as f64 / seq_s,
        par_jobs_per_sec: jobs as f64 / par_s,
        events_per_sec: events as f64 / seq_s,
        metrics_fingerprint: metrics_fingerprint(&sequential),
        avg_turnaround_h: sequential[0].metrics.avg_turnaround_h,
        utilization: sequential[0].metrics.utilization,
    }
}

fn main() {
    let seeds = seeds_from_env();
    let scale = Scale::from_env();
    let synthetic = TraceSource::Synthetic(scale.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    let mut rows: Vec<Row> = Vec::new();
    for (label, source) in &sources {
        // Pre-build the per-seed traces so the measured window is pure
        // simulation, not trace generation / SWF import.
        let traces: Vec<Trace> = (0..seeds).map(|s| source.make_trace(s)).collect();
        eprintln!(
            "throughput: {label} ({}), {} jobs x {seeds} seeds",
            source.describe(),
            traces[0].len()
        );
        for m in Mechanism::ALL_SIX {
            let row = run_cell(m, label, &traces, seeds);
            eprintln!(
                "  {:<8} seq {:>9.1} jobs/s  par {:>9.1} jobs/s  ({:.0} events/s)  parity OK",
                m.name(),
                row.seq_jobs_per_sec,
                row.par_jobs_per_sec,
                row.events_per_sec
            );
            rows.push(row);
        }
    }

    let mut t = Table::new(vec![
        "source",
        "mechanism",
        "seq jobs/s",
        "par jobs/s",
        "events/s",
        "fingerprint",
    ]);
    for r in &rows {
        t.row(vec![
            r.source.to_string(),
            r.mechanism.name().to_string(),
            format!("{:.1}", r.seq_jobs_per_sec),
            format!("{:.1}", r.par_jobs_per_sec),
            format!("{:.0}", r.events_per_sec),
            format!("{:016x}", r.metrics_fingerprint),
        ]);
    }
    println!("SIMULATOR THROUGHPUT (scale {scale:?}, {seeds} seeds, parity-checked)");
    println!("{}", t.render());

    let json_path = std::env::var("HWS_THROUGHPUT_JSON")
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

/// Workspace root, next to `BENCH_decision_latency.json`.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_simulator_throughput.json")
}

/// Round-trip-exact f64 rendering that stays valid JSON: `{:?}` would emit
/// bare `NaN`/`inf` tokens for degenerate metrics (e.g. a trace with no
/// completed jobs), which JSON parsers reject.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"source\": \"{}\", \"mechanism\": \"{}\", \"jobs\": {}, \"seeds\": {}, \
             \"seq_wall_s\": {:.4}, \"par_wall_s\": {:.4}, \
             \"seq_jobs_per_sec\": {:.1}, \"par_jobs_per_sec\": {:.1}, \
             \"events_per_sec\": {:.0}, \"metrics_fingerprint\": \"{:016x}\", \
             \"avg_turnaround_h\": {}, \"utilization\": {}}}{comma}",
            r.source,
            r.mechanism.name(),
            r.jobs,
            r.seeds,
            r.seq_s,
            r.par_s,
            r.seq_jobs_per_sec,
            r.par_jobs_per_sec,
            r.events_per_sec,
            r.metrics_fingerprint,
            json_f64(r.avg_turnaround_h),
            json_f64(r.utilization),
        );
    }
    out.push_str("]\n");
    out
}
