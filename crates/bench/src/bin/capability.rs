//! **Capability/capacity co-scheduling** — the six mechanisms under the
//! capability-aware hooks composition, swept over the capability fraction
//! (ROADMAP: "capability/capacity co-scheduling", *More for Less*,
//! arXiv:2501.12464).
//!
//! Each cell replays a trace whose largest rigid jobs are tagged as
//! capability campaigns (`Trace::tag_capability` — the synthetic
//! generator's `capability_frac` knob and, for the bundled
//! `theta_quick.swf` fixture, the same deterministic injection applied
//! after import) under `CapabilityAware::for_mechanism(m)`: capability
//! jobs are never preemption victims, everything else behaves exactly
//! like the paper's mechanism.
//!
//! The `frac = 0` rows are the refactor-safety oracle: with **no**
//! capability jobs, the wrapped hooks must reproduce the plain mechanism
//! path **bitwise** — every per-seed metric and engine counter is
//! asserted equal, which is what keeps all committed `BENCH_*.json`
//! baselines byte-stable. Any divergence aborts non-zero (CI keys on it).
//!
//! Writes `BENCH_capability.json` at the workspace root (override with
//! `HWS_CAPABILITY_JSON=path`). Every recorded field is deterministic, so
//! the CI `baseline-parity` job compares the file byte-for-byte. The
//! committed baseline is recorded at `HWS_SCALE=quick` with the default
//! 10 seeds.
//!
//! ```text
//! HWS_SCALE=quick cargo run --release -p hws-bench --bin capability
//! ```

use hws_bench::{bundled_swf_fixture, metrics_fingerprint, seeds_from_env, Scale, TraceSource};
use hws_core::{CapabilityAware, Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::Table;
use hws_workload::{JobClass, SwfImportConfig, Trace};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Capability fractions swept per source (fractions of *rigid* jobs).
const FRACS: [f64; 3] = [0.0, 0.25, 0.5];

struct Row {
    source: &'static str,
    capability_frac: f64,
    mechanism: Mechanism,
    seeds: u64,
    metrics_fingerprint: u64,
    avg_turnaround_h: f64,
    utilization: f64,
    completed_jobs: usize,
    killed_jobs: usize,
    /// Seed-0 capability-side breakdown (deterministic).
    cap_jobs: usize,
    cap_completed: usize,
    cap_avg_turnaround_h: f64,
    cap_preempted_jobs: usize,
    capacity_avg_turnaround_h: f64,
}

/// One (source × fraction × mechanism) cell: parallel sweep, sequential
/// bitwise verification, and — at zero fraction — the bitwise
/// plain-mechanism parity oracle.
fn run_cell(m: Mechanism, source: &'static str, traces: &[Trace], frac: f64, seeds: u64) -> Row {
    let cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(m));

    let swept = Simulator::run_sweep_with(&cfg, &(0..seeds).collect::<Vec<_>>(), |s| {
        traces[s as usize].clone()
    });
    let sequential: Vec<SimOutcome> = traces
        .iter()
        .map(|tr| Simulator::run_trace(&cfg, tr))
        .collect();
    for (i, (p, s)) in swept.iter().zip(&sequential).enumerate() {
        assert_eq!(
            p.metrics,
            s.metrics,
            "{} on {source} (frac {frac}) seed {i}: parallel sweep diverged",
            m.name()
        );
        assert_eq!(
            p.engine,
            s.engine,
            "{} seed {i}: engine stats diverged",
            m.name()
        );
    }

    if frac == 0.0 {
        // The key oracle: zero capability jobs ≡ the plain two-class
        // mechanism path, bitwise.
        let plain_cfg = SimConfig::with_mechanism(m);
        for (i, (tr, c)) in traces.iter().zip(&sequential).enumerate() {
            assert_eq!(tr.count_class(JobClass::Capability), 0);
            let plain = Simulator::run_trace(&plain_cfg, tr);
            assert_eq!(
                c.metrics,
                plain.metrics,
                "{} on {source} seed {i}: capability-aware hooks diverged from the plain path",
                m.name()
            );
            assert_eq!(
                c.engine,
                plain.engine,
                "{} on {source} seed {i}: engine stats diverged from the plain path",
                m.name()
            );
            assert!(c.classes.is_none() && plain.classes.is_none());
        }
    }

    let classes0 = sequential[0].classes.unwrap_or_default();
    Row {
        source,
        capability_frac: frac,
        mechanism: m,
        seeds,
        metrics_fingerprint: metrics_fingerprint(&sequential),
        avg_turnaround_h: sequential[0].metrics.avg_turnaround_h,
        utilization: sequential[0].metrics.utilization,
        completed_jobs: sequential[0].metrics.completed_jobs,
        killed_jobs: sequential[0].metrics.killed_jobs,
        cap_jobs: classes0.capability.jobs,
        cap_completed: classes0.capability.completed,
        cap_avg_turnaround_h: classes0.capability.avg_turnaround_h,
        cap_preempted_jobs: classes0.capability.preempted_jobs,
        capacity_avg_turnaround_h: classes0.capacity.avg_turnaround_h,
    }
}

fn main() {
    let seeds = seeds_from_env();
    let synthetic = TraceSource::Synthetic(Scale::Quick.trace_config());
    let fixture = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
    let sources: [(&'static str, TraceSource); 2] =
        [("synthetic", synthetic), ("theta_quick.swf", fixture)];

    let mut rows: Vec<Row> = Vec::new();
    for (label, source) in &sources {
        eprintln!("capability: {label} ({}), {seeds} seeds", source.describe());
        for &frac in &FRACS {
            // The same deterministic injection for both sources: largest
            // rigid jobs first, no RNG consumed (frac 0 is a no-op).
            let traces: Vec<Trace> = (0..seeds)
                .map(|s| {
                    let mut tr = source.make_trace(s);
                    tr.tag_capability(frac);
                    tr
                })
                .collect();
            for m in Mechanism::ALL_SIX {
                let row = run_cell(m, label, &traces, frac, seeds);
                eprintln!(
                    "  frac {:>4} {:<8} fp {:016x}  done {:>5}  cap {:>3}/{:>3} preempted {:>2}{}",
                    frac,
                    m.name(),
                    row.metrics_fingerprint,
                    row.completed_jobs,
                    row.cap_completed,
                    row.cap_jobs,
                    row.cap_preempted_jobs,
                    if frac == 0.0 {
                        "  zero-capability == plain path OK"
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
        "frac",
        "mechanism",
        "TAT (h)",
        "util %",
        "done",
        "cap done/jobs",
        "cap TAT (h)",
        "capacity TAT (h)",
    ]);
    for r in &rows {
        t.row(vec![
            r.source.to_string(),
            format!("{}", r.capability_frac),
            r.mechanism.name().to_string(),
            format!("{:.1}", r.avg_turnaround_h),
            format!("{:.1}", r.utilization * 100.0),
            r.completed_jobs.to_string(),
            format!("{}/{}", r.cap_completed, r.cap_jobs),
            format!("{:.1}", r.cap_avg_turnaround_h),
            format!("{:.1}", r.capacity_avg_turnaround_h),
        ]);
    }
    println!(
        "CAPABILITY/CAPACITY CO-SCHEDULING ({seeds} seeds, frac-0 bitwise-verified vs plain path)"
    );
    println!("{}", t.render());

    let json_path = std::env::var("HWS_CAPABILITY_JSON")
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
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_capability.json")
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
        let _ = writeln!(
            out,
            "  {{\"source\": \"{}\", \"capability_frac\": {}, \"mechanism\": \"{}\", \
             \"seeds\": {}, \"metrics_fingerprint\": \"{:016x}\", \
             \"avg_turnaround_h\": {}, \"utilization\": {}, \
             \"completed_jobs\": {}, \"killed_jobs\": {}, \
             \"cap_jobs\": {}, \"cap_completed\": {}, \"cap_avg_turnaround_h\": {}, \
             \"cap_preempted_jobs\": {}, \"capacity_avg_turnaround_h\": {}}}{comma}",
            r.source,
            json_f64(r.capability_frac),
            r.mechanism.name(),
            r.seeds,
            r.metrics_fingerprint,
            json_f64(r.avg_turnaround_h),
            json_f64(r.utilization),
            r.completed_jobs,
            r.killed_jobs,
            r.cap_jobs,
            r.cap_completed,
            json_f64(r.cap_avg_turnaround_h),
            r.cap_preempted_jobs,
            json_f64(r.capacity_avg_turnaround_h),
        );
    }
    out.push_str("]\n");
    out
}
