//! **Federated dispatch** — the six mechanisms over 1/2/4-shard splits of
//! the same 4,392-node capacity, on the synthetic quick-scale trace and
//! the bundled `theta_quick.swf` fixture.
//!
//! The 1-shard rows are the refactor-safety oracle: a one-shard federation
//! must reproduce the single-cluster run **bitwise** — every per-seed
//! metric and engine counter is asserted equal against a plain
//! (`federation: None`) replay, for all six mechanisms on both sources.
//! Any divergence aborts non-zero, which is what CI keys on.
//!
//! Multi-shard rows exercise the real federation behavior: shard-local
//! preemption/squatting, sticky placement, cross-shard transfer refusal,
//! and rejection of jobs larger than the largest shard (reported via the
//! `killed_jobs` column — neither source kills jobs any other way at quick
//! scale). The 4-shard split additionally runs under all three built-in
//! placement policies.
//!
//! Writes `BENCH_federated.json` at the workspace root (override with
//! `HWS_FEDERATED_JSON=path`). Every recorded field is deterministic (no
//! wall-clock numbers), so the CI `baseline-parity` job compares the file
//! byte-for-byte. The committed baseline is recorded at `HWS_SCALE=quick`
//! with the default 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin federated
//! ```

use hws_bench::{bundled_swf_fixture, metrics_fingerprint, seeds_from_env, Scale, TraceSource};
use hws_cluster::{ClassAffinity, FederationConfig, LeastLoaded, PlacementPolicy};
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{SwfImportConfig, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SYSTEM: u32 = 4_392;

struct Row {
    source: &'static str,
    shards: usize,
    policy: String,
    mechanism: Mechanism,
    seeds: u64,
    metrics_fingerprint: u64,
    avg_turnaround_h: f64,
    utilization: f64,
    completed_jobs: usize,
    killed_jobs: usize,
    /// Seed-0 shard breakdown (deterministic): job starts per shard.
    shard_starts: Vec<u64>,
    /// Seed-0 occupancy share of each shard's capacity over the run span.
    shard_occupancy: Vec<f64>,
}

fn policy_of(fed: &FederationConfig) -> String {
    fed.policy.name().to_string()
}

/// One (source × federation × mechanism) cell: parallel sweep, sequential
/// bitwise verification, and — for 1-shard federations — the bitwise
/// single-cluster parity oracle.
fn run_cell(
    m: Mechanism,
    source: &'static str,
    traces: &[Trace],
    fed: &FederationConfig,
    seeds: u64,
) -> Row {
    let cfg = SimConfig::with_mechanism(m);
    let fed_cfg = cfg.clone().federated(fed.clone());

    let swept = Simulator::run_sweep_with(&fed_cfg, &(0..seeds).collect::<Vec<_>>(), |s| {
        traces[s as usize].clone()
    });
    let sequential: Vec<SimOutcome> = traces
        .iter()
        .map(|tr| Simulator::run_trace(&fed_cfg, tr))
        .collect();
    for (i, (p, s)) in swept.iter().zip(&sequential).enumerate() {
        assert_eq!(
            p.metrics,
            s.metrics,
            "{} on {source} ({} shards) seed {i}: parallel sweep diverged",
            m.name(),
            fed.shards.len()
        );
        assert_eq!(
            p.engine,
            s.engine,
            "{} seed {i}: engine stats diverged",
            m.name()
        );
    }

    if fed.shards.len() == 1 {
        // The key oracle: one shard ≡ the single-cluster path, bitwise.
        for (i, (tr, f)) in traces.iter().zip(&sequential).enumerate() {
            let plain = Simulator::run_trace(&cfg, tr);
            assert_eq!(
                f.metrics,
                plain.metrics,
                "{} on {source} seed {i}: 1-shard federation diverged from the single-cluster path",
                m.name()
            );
            assert_eq!(
                f.engine,
                plain.engine,
                "{} on {source} seed {i}: engine stats diverged from the single-cluster path",
                m.name()
            );
            assert!(plain.shards.is_none() && f.shards.is_some());
        }
    }

    let shards0 = sequential[0].shards.as_ref().expect("federated run");
    let span_secs = (sequential[0].metrics.span_hours * 3_600.0).round() as u64;
    Row {
        source,
        shards: fed.shards.len(),
        policy: policy_of(fed),
        mechanism: m,
        seeds,
        metrics_fingerprint: metrics_fingerprint(&sequential),
        avg_turnaround_h: sequential[0].metrics.avg_turnaround_h,
        utilization: sequential[0].metrics.utilization,
        completed_jobs: sequential[0].metrics.completed_jobs,
        killed_jobs: sequential[0].metrics.killed_jobs,
        shard_starts: shards0.iter().map(|s| s.jobs_started).collect(),
        shard_occupancy: shards0.iter().map(|s| s.occupancy(span_secs)).collect(),
    }
}

fn main() {
    let seeds = seeds_from_env();
    let synthetic = TraceSource::Synthetic(Scale::Quick.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    // 1/2/4-shard even splits under first-fit, plus the alternative
    // placement policies on the widest split.
    let mut federations: Vec<FederationConfig> = vec![
        FederationConfig::even_split(1, SYSTEM),
        FederationConfig::even_split(2, SYSTEM),
        FederationConfig::even_split(4, SYSTEM),
    ];
    for policy in [
        Arc::new(LeastLoaded) as Arc<dyn PlacementPolicy>,
        Arc::new(ClassAffinity) as Arc<dyn PlacementPolicy>,
    ] {
        let mut f = FederationConfig::even_split(4, SYSTEM);
        f.policy = policy;
        federations.push(f);
    }

    let mut rows: Vec<Row> = Vec::new();
    for (label, source) in &sources {
        let traces: Vec<Trace> = (0..seeds).map(|s| source.make_trace(s)).collect();
        eprintln!(
            "federated: {label} ({}), {} jobs x {seeds} seeds",
            source.describe(),
            traces[0].len()
        );
        for fed in &federations {
            for m in Mechanism::ALL_SIX {
                let row = run_cell(m, label, &traces, fed, seeds);
                eprintln!(
                    "  {:>1} shard(s) {:<13} {:<8} fp {:016x}  done {:>5}  rejected {:>3}{}",
                    row.shards,
                    row.policy,
                    m.name(),
                    row.metrics_fingerprint,
                    row.completed_jobs,
                    row.killed_jobs,
                    if row.shards == 1 {
                        "  1-shard == single-cluster OK"
                    } else {
                        ""
                    }
                );
                rows.push(row);
            }
        }
    }

    let mut t = Table::new(vec![
        "source",
        "shards",
        "policy",
        "mechanism",
        "TAT (h)",
        "util %",
        "done",
        "rejected",
        "starts/shard",
    ]);
    for r in &rows {
        t.row(vec![
            r.source.to_string(),
            r.shards.to_string(),
            r.policy.clone(),
            r.mechanism.name().to_string(),
            format!("{:.1}", r.avg_turnaround_h),
            format!("{:.1}", r.utilization * 100.0),
            r.completed_jobs.to_string(),
            r.killed_jobs.to_string(),
            format!("{:?}", r.shard_starts),
        ]);
    }
    println!("FEDERATED DISPATCH ({seeds} seeds, 1-shard bitwise-verified vs single cluster)");
    println!("{}", t.render());

    let json_path = std::env::var("HWS_FEDERATED_JSON")
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

/// Workspace root, next to the other `BENCH_*.json` baselines.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_federated.json")
}

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
        let occ: Vec<String> = r.shard_occupancy.iter().map(|&x| json_f64(x)).collect();
        let _ = writeln!(
            out,
            "  {{\"source\": \"{}\", \"shards\": {}, \"policy\": \"{}\", \"mechanism\": \"{}\", \
             \"seeds\": {}, \"metrics_fingerprint\": \"{:016x}\", \
             \"avg_turnaround_h\": {}, \"utilization\": {}, \
             \"completed_jobs\": {}, \"killed_jobs\": {}, \
             \"shard_starts\": {:?}, \"shard_occupancy\": [{}]}}{comma}",
            r.source,
            r.shards,
            r.policy,
            r.mechanism.name(),
            r.seeds,
            r.metrics_fingerprint,
            json_f64(r.avg_turnaround_h),
            json_f64(r.utilization),
            r.completed_jobs,
            r.killed_jobs,
            r.shard_starts,
            occ.join(", "),
        );
    }
    out.push_str("]\n");
    out
}
