//! **SWF replay** — the six mechanisms on a real-trace-shaped SWF log
//! instead of per-seed synthetic traces (ROADMAP: "SWF replay at scale").
//!
//! The raw jobs are fixed by the log; the seed drives the §IV-A
//! class/notice assignment, mirroring the paper's ten-trace averaging
//! protocol on one real workload. Every sweep is routed through
//! `Simulator::run_sweep_with`, and each per-seed outcome is verified
//! **bitwise identical** to a sequential `run_trace` replay before the
//! averages are reported.
//!
//! Writes `BENCH_swf_replay.json` next to `BENCH_decision_latency.json`
//! at the workspace root (override with `HWS_SWF_REPLAY_JSON=path`).
//!
//! ```text
//! cargo run --release -p hws-bench --bin swf_replay             # bundled fixture
//! HWS_SWF=theta.swf HWS_SWF_PPN=64 cargo run --release -p hws-bench --bin swf_replay
//! ```

use hws_bench::{bundled_swf_fixture, seeds_from_env, TraceSource};
use hws_core::{Mechanism, SimConfig, Simulator};
use hws_metrics::{Metrics, MetricsAvg, Table};
use hws_workload::SwfImportConfig;
use std::fmt::Write as _;
use std::path::PathBuf;

fn main() {
    let seeds = seeds_from_env();
    let source = TraceSource::swf_from_env()
        .unwrap_or_else(|| TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()));
    let probe = source.make_trace(0);
    eprintln!(
        "swf_replay: {}, {} jobs on {} nodes, {} seeds x 6 mechanisms (parallel + sequential verification)",
        source.describe(),
        probe.len(),
        probe.system_size,
        seeds
    );

    let seed_list: Vec<u64> = (0..seeds).collect();
    let mut rows: Vec<(Mechanism, Metrics)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let cfg = SimConfig::with_mechanism(m);
        let swept = Simulator::run_sweep_with(&cfg, &seed_list, |s| source.make_trace(s));
        let mut avg = MetricsAvg::new();
        for (outcome, &seed) in swept.iter().zip(&seed_list) {
            let sequential = Simulator::run_trace(&cfg, &source.make_trace(seed));
            assert_eq!(
                outcome.metrics,
                sequential.metrics,
                "{} seed {seed}: parallel sweep diverged from sequential replay",
                m.name()
            );
            avg.push(&outcome.metrics);
        }
        rows.push((m, avg.mean()));
        eprintln!("  {:<8} verified {} seeds bitwise", m.name(), seeds);
    }

    let mut t = Table::new(vec![
        "mechanism",
        "TAT (h)",
        "rigid TAT (h)",
        "OD TAT (h)",
        "util %",
        "instant %",
        "preempt r/m %",
    ]);
    for (m, x) in &rows {
        t.row(vec![
            m.name().to_string(),
            format!("{:.1}", x.avg_turnaround_h),
            format!("{:.1}", x.rigid.avg_turnaround_h),
            format!("{:.2}", x.on_demand.avg_turnaround_h),
            format!("{:.1}", x.utilization * 100.0),
            format!("{:.1}", x.instant_start_rate * 100.0),
            format!(
                "{:.1}/{:.1}",
                x.rigid.preemption_ratio * 100.0,
                x.malleable.preemption_ratio * 100.0
            ),
        ]);
    }
    println!("SWF REPLAY: six mechanisms on {}", source.describe());
    println!("{}", t.render());

    let json_path = std::env::var("HWS_SWF_REPLAY_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| default_json_path());
    // Record the file name, not the absolute path, so the committed
    // baseline is machine-independent.
    let label = match &source {
        TraceSource::SwfFile { path, .. } => path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| source.describe()),
        _ => source.describe(),
    };
    let json = results_to_json(&label, probe.len(), seeds, &rows);
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {} mechanisms to {}", rows.len(), json_path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", json_path.display());
            std::process::exit(1);
        }
    }
}

/// Workspace root, two levels up from the crate: next to
/// `BENCH_decision_latency.json`.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_swf_replay.json")
}

fn results_to_json(label: &str, jobs: usize, seeds: u64, rows: &[(Mechanism, Metrics)]) -> String {
    let mut out = String::from("[\n");
    for (i, (m, x)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"mechanism\": \"{}\", \"source\": \"{}\", \"jobs\": {jobs}, \"seeds\": {seeds}, \
             \"avg_turnaround_h\": {:.6}, \"rigid_turnaround_h\": {:.6}, \
             \"on_demand_turnaround_h\": {:.6}, \"malleable_turnaround_h\": {:.6}, \
             \"utilization\": {:.6}, \"instant_start_rate\": {:.6}, \
             \"rigid_preemption_ratio\": {:.6}, \"malleable_preemption_ratio\": {:.6}, \
             \"completed_jobs\": {:.1}}}{comma}",
            m.name(),
            label.replace('"', "'"),
            x.avg_turnaround_h,
            x.rigid.avg_turnaround_h,
            x.on_demand.avg_turnaround_h,
            x.malleable.avg_turnaround_h,
            x.utilization,
            x.instant_start_rate,
            x.rigid.preemption_ratio,
            x.malleable.preemption_ratio,
            x.completed_jobs as f64,
        );
    }
    out.push_str("]\n");
    out
}
