//! **Service replay** — the bundled `theta_quick.swf` fixture replayed as
//! a live submission log through [`SchedulerService`], for all six
//! mechanisms (ROADMAP: "long-lived service mode").
//!
//! Each seed's log is applied entry by entry (`step_before(at)` + the
//! op), with wall-clock latency sampled around every `submit` and `query`
//! call, and a `what_if` six-mechanism forecast fired at the 25/50/75%
//! marks of the log. The resulting metrics are asserted **bitwise
//! identical** to materializing the same log and batch-replaying it with
//! `Simulator::run_trace` — the PR's parity oracle, re-run here at
//! fixture scale on every CI push.
//!
//! Writes `BENCH_service.json` at the workspace root (override with
//! `HWS_SERVICE_REPLAY_JSON=path`). The `metrics_fingerprint` column is
//! deterministic and gated by `baseline_parity`; the p50/p99 latency
//! columns are wall-clock and exempt. `HWS_SERVICE_PARANOID=1` enables
//! the O(n)-scan cross-validating cluster accounting in every run (the
//! CI smoke does; the recorded baseline does not need it — paranoid
//! checks assert, they never change behavior).
//!
//! ```text
//! cargo run --release -p hws-bench --bin service_replay              # bundled fixture
//! HWS_SWF=theta.swf HWS_SWF_PPN=64 cargo run --release -p hws-bench --bin service_replay
//! ```

use hws_bench::{bundled_swf_fixture, metrics_fingerprint, seeds_from_env, TraceSource};
use hws_core::{Mechanism, SchedulerService, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_sim::SimDuration;
use hws_workload::job::JobSpecBuilder;
use hws_workload::{SubmissionLog, SubmitOp, SwfImportConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Probe ids live far above any trace id so a forecast can never collide
/// with a logged submission.
const PROBE_ID_BASE: u64 = 1 << 40;

/// Wall-clock samples for one mechanism, microseconds.
#[derive(Default)]
struct Latencies {
    submit: Vec<f64>,
    query: Vec<f64>,
    what_if: Vec<f64>,
}

fn main() {
    let seeds = seeds_from_env();
    let paranoid = std::env::var("HWS_SERVICE_PARANOID").is_ok_and(|v| v == "1");
    let source = TraceSource::swf_from_env()
        .unwrap_or_else(|| TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default()));
    let probe = source.make_trace(0);
    eprintln!(
        "service_replay: {}, {} jobs on {} nodes, {} seeds x 6 mechanisms \
         (live service vs materialized batch, bitwise){}",
        source.describe(),
        probe.len(),
        probe.system_size,
        seeds,
        if paranoid { ", paranoid checks on" } else { "" }
    );

    let mut rows: Vec<(Mechanism, u64, Latencies)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m);
        cfg.paranoid_checks = paranoid;
        let mut lat = Latencies::default();
        let mut outcomes: Vec<SimOutcome> = Vec::new();
        for seed in 0..seeds {
            let trace = source.make_trace(seed);
            let log = SubmissionLog::from_trace(&trace);
            let live = drive(&cfg, &log, &mut lat);
            let batch = Simulator::run_trace(&cfg, &trace);
            assert_eq!(
                live.metrics,
                batch.metrics,
                "{} seed {seed}: live service diverged from materialized replay",
                m.name()
            );
            assert_eq!(
                live.classes,
                batch.classes,
                "{} seed {seed}: classes",
                m.name()
            );
            assert_eq!(
                live.shards,
                batch.shards,
                "{} seed {seed}: shards",
                m.name()
            );
            assert_eq!(
                live.admitted_jobs,
                batch.admitted_jobs,
                "{} seed {seed}: admitted",
                m.name()
            );
            outcomes.push(live);
        }
        let fp = metrics_fingerprint(&outcomes);
        eprintln!(
            "  {:<8} verified {} seeds bitwise, fingerprint {fp:016x}",
            m.name(),
            seeds
        );
        rows.push((m, fp, lat));
    }

    let mut t = Table::new(vec![
        "mechanism",
        "fingerprint",
        "submit p50/p99 (us)",
        "query p50/p99 (us)",
        "what-if p50/p99 (ms)",
    ]);
    for (m, fp, lat) in &rows {
        t.row(vec![
            m.name().to_string(),
            format!("{fp:016x}"),
            format!(
                "{:.1}/{:.1}",
                pct(&lat.submit, 0.50),
                pct(&lat.submit, 0.99)
            ),
            format!("{:.1}/{:.1}", pct(&lat.query, 0.50), pct(&lat.query, 0.99)),
            format!(
                "{:.2}/{:.2}",
                pct(&lat.what_if, 0.50) / 1000.0,
                pct(&lat.what_if, 0.99) / 1000.0
            ),
        ]);
    }
    println!(
        "SERVICE REPLAY: live submission log on {}",
        source.describe()
    );
    println!("{}", t.render());

    let json_path = std::env::var("HWS_SERVICE_REPLAY_JSON")
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

/// Apply `log` to a fresh service entry by entry, sampling submit/query
/// latency on every submission and firing a six-mechanism `what_if`
/// forecast at the quartile marks.
fn drive(cfg: &SimConfig, log: &SubmissionLog, lat: &mut Latencies) -> SimOutcome {
    let mut svc = SchedulerService::new(cfg.clone(), log.system_size());
    let n = log.len();
    let marks = [n / 4, n / 2, 3 * n / 4];
    let mut probes = 0u64;
    for (i, entry) in log.entries().iter().enumerate() {
        svc.step_before(entry.at);
        if marks.contains(&i) {
            probes += 1;
            forecast_probe(&svc, PROBE_ID_BASE + probes, lat);
        }
        match &entry.op {
            SubmitOp::Submit(spec) => {
                let id = spec.id;
                let t = Instant::now();
                svc.submit(spec.clone()).expect("log submissions are valid");
                lat.submit.push(us(t));
                let t = Instant::now();
                let _ = svc.query(id);
                lat.query.push(us(t));
            }
            SubmitOp::Cancel(id) => {
                let _ = svc.cancel(*id);
            }
        }
    }
    svc.into_outcome()
}

/// One speculative probe: a 64-node, one-hour rigid job submitted "now".
/// Asserts the forecast covers all six mechanisms and respects causality.
fn forecast_probe(svc: &SchedulerService, probe_id: u64, lat: &mut Latencies) {
    let spec = JobSpecBuilder::rigid(probe_id)
        .submit_at(svc.now())
        .size(64)
        .work(SimDuration::from_secs(3600))
        .estimate(SimDuration::from_secs(7200))
        .build();
    let t = Instant::now();
    let forecast = svc.what_if(&spec).expect("probe is submittable");
    lat.what_if.push(us(t));
    assert_eq!(forecast.len(), 6, "probe must start under every mechanism");
    for (m, start) in &forecast {
        assert!(
            *start >= spec.submit,
            "{}: probe forecast starts before submission",
            m.name()
        );
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Nearest-rank percentile over the samples (0 when empty — tiny logs may
/// never reach a quartile mark).
fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Workspace root, next to the other committed baselines.
fn default_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json")
}

fn results_to_json(
    label: &str,
    jobs: usize,
    seeds: u64,
    rows: &[(Mechanism, u64, Latencies)],
) -> String {
    let mut out = String::from("[\n");
    for (i, (m, fp, lat)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"mechanism\": \"{}\", \"source\": \"{}\", \"jobs\": {jobs}, \"seeds\": {seeds}, \
             \"metrics_fingerprint\": \"{fp:016x}\", \
             \"submit_p50_us\": {:.1}, \"submit_p99_us\": {:.1}, \
             \"query_p50_us\": {:.1}, \"query_p99_us\": {:.1}, \
             \"what_if_p50_us\": {:.1}, \"what_if_p99_us\": {:.1}}}{comma}",
            m.name(),
            label.replace('"', "'"),
            pct(&lat.submit, 0.50),
            pct(&lat.submit, 0.99),
            pct(&lat.query, 0.50),
            pct(&lat.query, 0.99),
            pct(&lat.what_if, 0.50),
            pct(&lat.what_if, 0.99),
        );
    }
    out.push_str("]\n");
    out
}
