//! **Outage replay** — the bundled `theta_quick.swf` fixture replayed
//! under a deterministic maintenance-window [`OutageSchedule`] for all six
//! mechanisms (ROADMAP: capacity-fault robustness).
//!
//! The schedule is derived from the trace's own shape: a **hard** window
//! takes the first eighth of the machine down at the quarter mark of the
//! submission horizon (evicting residents into checkpoint-restart), and a
//! **graceful** window drains the next eighth at the half mark; both
//! windows rejoin in full. Every job therefore stays feasible, and the
//! binary asserts none is lost: completed + estimate-kills must equal the
//! trace, and the infeasibility sweep must kill nothing.
//!
//! Writes `BENCH_outages.json` at the workspace root (override with
//! `HWS_OUTAGE_REPLAY_JSON=path`). Every recorded column is a
//! deterministic simulation output — lost node-hours, interruption and
//! recovery counts, recovery latency — so `baseline_parity` gates the
//! file byte-for-byte. `HWS_OUTAGE_PARANOID=1` additionally runs the
//! O(n)-scan cluster cross-validation plus the outage-specific
//! live-capacity invariants on every event (the CI smoke does).
//!
//! ```text
//! cargo run --release -p hws-bench --bin outage_replay               # bundled fixture
//! HWS_SWF=theta.swf HWS_SWF_PPN=64 cargo run --release -p hws-bench --bin outage_replay
//! ```

use hws_bench::{bundled_swf_fixture, metrics_fingerprint, seeds_from_env, TraceSource};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::{OutageReport, Table};
use hws_sim::SimTime;
use hws_workload::{MaintenanceWindow, OutageSchedule, SwfImportConfig, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;

fn main() {
    let seeds = seeds_from_env();
    let paranoid = std::env::var("HWS_OUTAGE_PARANOID").is_ok_and(|v| v == "1");
    let source = TraceSource::swf_from_env()
        .unwrap_or_else(|| TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()));
    let probe = source.make_trace(0);
    let schedule = maintenance_schedule(&probe);
    eprintln!(
        "outage_replay: {}, {} jobs on {} nodes, {} seeds x 6 mechanisms, \
         {} schedule events (hard + graceful maintenance windows){}",
        source.describe(),
        probe.len(),
        probe.system_size,
        seeds,
        schedule.len(),
        if paranoid { ", paranoid checks on" } else { "" }
    );

    let mut rows: Vec<(Mechanism, u64, OutageReport, usize, usize)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m).with_outages(schedule.clone());
        cfg.paranoid_checks = paranoid;
        let mut outcomes: Vec<SimOutcome> = Vec::new();
        let mut agg = OutageReport::default();
        let (mut completed, mut killed) = (0usize, 0usize);
        for seed in 0..seeds {
            let trace = source.make_trace(seed);
            let out = Simulator::run_trace(&cfg, &trace);
            let rep = out.outages.expect("the schedule applied");
            // Full-rejoin windows keep every job feasible: nothing may be
            // swept, and nothing may vanish.
            assert_eq!(
                rep.infeasible_killed,
                0,
                "{} seed {seed}: full-rejoin windows swept a job as infeasible",
                m.name()
            );
            assert_eq!(
                out.metrics.completed_jobs + out.metrics.killed_jobs,
                trace.len(),
                "{} seed {seed}: a job was lost to the outage",
                m.name()
            );
            fold(&mut agg, &rep);
            completed += out.metrics.completed_jobs;
            killed += out.metrics.killed_jobs;
            outcomes.push(out);
        }
        let fp = metrics_fingerprint(&outcomes);
        eprintln!(
            "  {:<8} {} seeds: {} interrupted, {} shrunk, {} recovered, \
             {:.1} lost node-hours, fingerprint {fp:016x}",
            m.name(),
            seeds,
            agg.interrupted_jobs,
            agg.shrunk_jobs,
            agg.recoveries,
            agg.lost_node_seconds as f64 / 3600.0,
        );
        rows.push((m, fp, agg, completed, killed));
    }

    let mut t = Table::new(vec![
        "mechanism",
        "fingerprint",
        "lost node-h",
        "interrupted",
        "shrunk",
        "recovered",
        "mean recovery (s)",
        "degraded wall-h",
    ]);
    for (m, fp, rep, _, _) in &rows {
        t.row(vec![
            m.name().to_string(),
            format!("{fp:016x}"),
            format!("{:.1}", rep.lost_node_seconds as f64 / 3600.0),
            rep.interrupted_jobs.to_string(),
            rep.shrunk_jobs.to_string(),
            rep.recoveries.to_string(),
            format!("{:.1}", rep.mean_recovery_latency_secs()),
            format!("{:.1}", rep.degraded_wall_seconds as f64 / 3600.0),
        ]);
    }
    println!(
        "OUTAGE REPLAY: maintenance windows on {}",
        source.describe()
    );
    println!("{}", t.render());

    let json_path = std::env::var("HWS_OUTAGE_REPLAY_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|_| default_json_path());
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

/// Two full-rejoin maintenance windows scaled to the trace: a hard one
/// over nodes `[0, N/8)` for the second eighth of the horizon, and a
/// graceful one over `[N/8, N/4)` for the fifth eighth. Pure function of
/// the trace shape — identical across seeds of the same source.
fn maintenance_schedule(trace: &Trace) -> OutageSchedule {
    let n = trace.system_size;
    let h = trace.horizon.as_secs();
    let mut windows = Vec::new();
    for node in 0..n / 8 {
        windows.push(MaintenanceWindow {
            shard: 0,
            node: Some(node),
            start: SimTime::from_secs(h / 4),
            end: SimTime::from_secs(3 * h / 8),
            hard: true,
        });
    }
    for node in n / 8..n / 4 {
        windows.push(MaintenanceWindow {
            shard: 0,
            node: Some(node),
            start: SimTime::from_secs(h / 2),
            end: SimTime::from_secs(5 * h / 8),
            hard: false,
        });
    }
    OutageSchedule::maintenance_windows(&windows).expect("windows are well-formed")
}

fn fold(agg: &mut OutageReport, rep: &OutageReport) {
    agg.events_applied += rep.events_applied;
    agg.nodes_down += rep.nodes_down;
    agg.nodes_drained += rep.nodes_drained;
    agg.nodes_rejoined += rep.nodes_rejoined;
    agg.interrupted_jobs += rep.interrupted_jobs;
    agg.shrunk_jobs += rep.shrunk_jobs;
    agg.infeasible_killed += rep.infeasible_killed;
    agg.lost_node_seconds += rep.lost_node_seconds;
    agg.degraded_wall_seconds += rep.degraded_wall_seconds;
    agg.recoveries += rep.recoveries;
    agg.recovery_latency_seconds += rep.recovery_latency_seconds;
}

/// Workspace root, next to the other committed baselines.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_outages.json")
}

fn results_to_json(
    label: &str,
    jobs: usize,
    seeds: u64,
    rows: &[(Mechanism, u64, OutageReport, usize, usize)],
) -> String {
    let mut out = String::from("[\n");
    for (i, (m, fp, rep, completed, killed)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"mechanism\": \"{}\", \"source\": \"{}\", \"jobs\": {jobs}, \"seeds\": {seeds}, \
             \"metrics_fingerprint\": \"{fp:016x}\", \
             \"events_applied\": {}, \"nodes_down\": {}, \"nodes_drained\": {}, \
             \"nodes_rejoined\": {}, \"interrupted_jobs\": {}, \"shrunk_jobs\": {}, \
             \"infeasible_killed\": {}, \"lost_node_hours\": {:.3}, \
             \"degraded_wall_hours\": {:.3}, \"recoveries\": {}, \
             \"mean_recovery_latency_s\": {:.3}, \
             \"completed_jobs\": {completed}, \"killed_jobs\": {killed}}}{comma}",
            m.name(),
            label.replace('"', "'"),
            rep.events_applied,
            rep.nodes_down,
            rep.nodes_drained,
            rep.nodes_rejoined,
            rep.interrupted_jobs,
            rep.shrunk_jobs,
            rep.infeasible_killed,
            rep.lost_node_seconds as f64 / 3600.0,
            rep.degraded_wall_seconds as f64 / 3600.0,
            rep.recoveries,
            rep.mean_recovery_latency_secs(),
        );
    }
    out.push_str("]\n");
    out
}
