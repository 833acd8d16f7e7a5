//! # hws-bench — experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus shared
//! plumbing: the [`TraceSource`] abstraction (synthetic generator or SWF
//! replay), multi-seed parallel execution, and result aggregation. The
//! Criterion benches under `benches/` cover Observation 10 (decision
//! latency) and simulator/backfill throughput.
//!
//! Scale knobs (environment variables, so `cargo bench`/CI stay fast):
//!
//! * `HWS_SCALE=full` — run the full-year, 4,392-node Theta configuration
//!   (the paper's scale). Default is a calibrated 1/6-scale trace (2 months)
//!   that preserves system size, load, and burstiness.
//! * `HWS_SEEDS=n` — number of random traces per cell (paper: 10).
//! * `HWS_SWF=path` — replay a real SWF log instead of generating
//!   synthetic traces: every figure binary then imports the log once per
//!   seed (the seed drives the §IV-A class/notice assignment, mirroring
//!   the paper's "ten randomly generated traces" protocol). `HWS_SWF_PPN`
//!   sets processors per node for logs that count processors.

pub mod archive;

pub use archive::{
    archive_dir, archive_path, ensure_archive, peak_rss_bytes, reset_peak_rss, ArchiveProfile,
};

use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_metrics::{LatencyHistogram, Metrics, MetricsAvg};
use hws_sim::SimDuration;
use hws_workload::{import_swf_reader, NoticeMix, SwfImportConfig, Trace, TraceConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Experiment scale selected via `HWS_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale: one year of Theta (37,298 jobs).
    Full,
    /// Default: two months at the same offered load (≈6,200 jobs).
    Standard,
    /// Quick smoke scale for CI (two weeks).
    Quick,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("HWS_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("quick") => Scale::Quick,
            _ => Scale::Standard,
        }
    }

    /// The Theta-shaped trace configuration at this scale.
    pub fn trace_config(self) -> TraceConfig {
        let base = TraceConfig::theta_2019();
        match self {
            Scale::Full => base,
            Scale::Standard => TraceConfig {
                horizon: SimDuration::from_days(61),
                target_jobs: 37_298 * 61 / 365,
                n_projects: 120,
                ..base
            },
            Scale::Quick => TraceConfig {
                horizon: SimDuration::from_days(14),
                target_jobs: 37_298 * 14 / 365,
                n_projects: 60,
                ..base
            },
        }
    }
}

/// Seeds per experiment cell (`HWS_SEEDS`, default 10 — "we repeat the same
/// experiment on ten randomly generated traces").
pub fn seeds_from_env() -> u64 {
    seeds_from_env_or(10)
}

/// `HWS_SEEDS` with a caller-chosen default, for binaries whose natural
/// seed count differs from the paper's 10 (the million-job archive replay
/// records 2).
pub fn seeds_from_env_or(default: u64) -> u64 {
    std::env::var("HWS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Where a figure binary gets its per-seed traces from: the calibrated
/// synthetic generator, or a real SWF archive log replayed through the
/// paper's §IV-A class-assignment protocol. Either way `make_trace(seed)`
/// is a pure function of the seed, so [`Simulator::run_sweep_with`] keeps
/// its bitwise-deterministic per-seed guarantee.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Generate a synthetic Theta-shaped trace per seed.
    Synthetic(TraceConfig),
    /// Stream-import an SWF file per seed; the seed overrides
    /// `cfg.seed`, varying the class/notice assignment across seeds.
    SwfFile { path: PathBuf, cfg: SwfImportConfig },
}

impl TraceSource {
    /// The `HWS_SWF`/`HWS_SWF_PPN` environment selection, when set. The
    /// single parser for those variables — every binary that honors them
    /// goes through here so they can never drift apart.
    pub fn swf_from_env() -> Option<TraceSource> {
        let path = std::env::var("HWS_SWF").ok().filter(|p| !p.is_empty())?;
        let ppn = std::env::var("HWS_SWF_PPN")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        Some(TraceSource::swf(
            path,
            SwfImportConfig {
                procs_per_node: ppn,
                ..SwfImportConfig::default()
            },
        ))
    }

    /// `HWS_SWF=path` selects SWF replay (with `HWS_SWF_PPN` processors
    /// per node); otherwise fall back to the synthetic `fallback` config.
    pub fn from_env_or(fallback: TraceConfig) -> TraceSource {
        Self::swf_from_env().unwrap_or(TraceSource::Synthetic(fallback))
    }

    /// The standard source of a figure binary: `HWS_SWF` replay when set,
    /// else the synthetic config at `scale`.
    pub fn from_env(scale: Scale) -> TraceSource {
        Self::from_env_or(scale.trace_config())
    }

    /// SWF replay of `path` with explicit import options.
    pub fn swf(path: impl Into<PathBuf>, cfg: SwfImportConfig) -> TraceSource {
        TraceSource::SwfFile {
            path: path.into(),
            cfg,
        }
    }

    /// Override the advance-notice accuracy mix (Table III workloads) in
    /// whichever configuration this source carries.
    pub fn with_notice_mix(mut self, mix: NoticeMix) -> TraceSource {
        match &mut self {
            TraceSource::Synthetic(cfg) => cfg.notice_mix = mix,
            TraceSource::SwfFile { cfg, .. } => cfg.notice_mix = mix,
        }
        self
    }

    /// Produce the trace for one seed. SWF files are re-streamed from disk
    /// per seed (a million-line log never has to fit in memory); panics on
    /// IO/parse errors, as the figure binaries have no fallback anyway.
    pub fn make_trace(&self, seed: u64) -> Trace {
        match self {
            TraceSource::Synthetic(cfg) => cfg.generate(seed),
            TraceSource::SwfFile { path, cfg } => {
                let file = std::fs::File::open(path)
                    .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
                let cfg = SwfImportConfig {
                    seed,
                    ..cfg.clone()
                };
                import_swf_reader(std::io::BufReader::new(file), &cfg)
                    .unwrap_or_else(|e| panic!("import {}: {e}", path.display()))
            }
        }
    }

    /// Doubling size buckets for Fig. 3-style histograms: derived from the
    /// synthetic config, or from the imported trace's smallest job.
    pub fn size_buckets(&self, trace: &Trace) -> Vec<(u32, u32)> {
        match self {
            TraceSource::Synthetic(cfg) => cfg.size_buckets(),
            TraceSource::SwfFile { .. } => {
                let min = trace.jobs.iter().map(|j| j.size).min().unwrap_or(1).max(1);
                let mut buckets = Vec::new();
                let mut lo = min;
                while buckets.len() < 4 && lo * 2 < trace.system_size {
                    buckets.push((lo, lo * 2));
                    lo *= 2;
                }
                buckets.push((lo, trace.system_size + 1));
                buckets
            }
        }
    }

    /// One-line description for the binaries' stderr banners.
    pub fn describe(&self) -> String {
        match self {
            TraceSource::Synthetic(cfg) => format!(
                "synthetic ({} jobs over {} days)",
                cfg.target_jobs,
                cfg.horizon.as_secs() / 86_400
            ),
            TraceSource::SwfFile { path, .. } => format!("SWF replay of {}", path.display()),
        }
    }
}

/// Run `cfg` over `seeds` traces drawn from `source` in parallel, average
/// the metrics (the paper's averaging protocol) and pool the runs'
/// decision latencies. Routed through [`Simulator::run_sweep_with`], which
/// fans the seeds across CPU cores while keeping every per-seed result
/// bitwise identical to a sequential run.
pub fn run_averaged_source(
    sim_cfg: &SimConfig,
    source: &TraceSource,
    seeds: u64,
) -> (Metrics, LatencyHistogram) {
    assert!(seeds > 0);
    let seed_list: Vec<u64> = (0..seeds).collect();
    let outcomes = Simulator::run_sweep_with(sim_cfg, &seed_list, |s| source.make_trace(s));
    let mut avg = MetricsAvg::new();
    let mut latency = LatencyHistogram::default();
    for outcome in &outcomes {
        avg.push(&outcome.metrics);
        latency.merge(&outcome.decision_latency);
    }
    (avg.mean(), latency)
}

/// Synthetic-only convenience wrapper kept for callers that hold a
/// [`TraceConfig`] (examples, tests).
pub fn run_averaged(sim_cfg: &SimConfig, trace_cfg: &TraceConfig, seeds: u64) -> Metrics {
    run_averaged_source(sim_cfg, &TraceSource::Synthetic(trace_cfg.clone()), seeds).0
}

/// Run every (mechanism × workload) cell of Fig. 6 and return
/// `(workload name, mechanism, averaged metrics)` rows, plus every run's
/// decision latencies pooled.
pub fn run_fig6_grid(
    source: &TraceSource,
    seeds: u64,
    mechanisms: &[Mechanism],
) -> (Vec<(&'static str, Mechanism, Metrics)>, LatencyHistogram) {
    let mut rows = Vec::new();
    let mut latency = LatencyHistogram::default();
    for (wname, mix) in NoticeMix::TABLE3 {
        let wsource = source.clone().with_notice_mix(mix);
        for &m in mechanisms {
            let scfg = SimConfig::with_mechanism(m);
            let (metrics, lat) = run_averaged_source(&scfg, &wsource, seeds);
            rows.push((wname, m, metrics));
            latency.merge(&lat);
        }
    }
    (rows, latency)
}

/// FNV-1a over arbitrary bytes; the workspace's standard cheap stable
/// hash for behavioral fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the `Debug` rendering of every per-seed metrics struct: an
/// exact behavioral fingerprint (f64 `Debug` is round-trip), stable across
/// runs and Rust versions. Committed inside the `BENCH_*.json` baselines
/// so any change to *any* metric bit shows up as a fingerprint drift in
/// the CI `baseline-parity` gate.
pub fn metrics_fingerprint(outcomes: &[SimOutcome]) -> u64 {
    let mut dbg = String::new();
    for o in outcomes {
        let _ = write!(dbg, "{:?}", o.metrics);
    }
    fnv1a(dbg.as_bytes())
}

/// The bundled SWF replay fixture: a plain-SWF export of the quick-scale
/// Theta-shaped trace at seed 42 (see `--bin make_swf_fixture`, which
/// regenerates it, and DESIGN.md §8 for provenance).
pub fn bundled_swf_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("data/theta_quick.swf")
}

/// The generator settings behind [`bundled_swf_fixture`]; fixed so the
/// fixture is reproducible regardless of `HWS_SCALE`.
pub fn swf_fixture_trace_config() -> TraceConfig {
    Scale::Quick.trace_config()
}

/// Seed of the bundled fixture.
pub const SWF_FIXTURE_SEED: u64 = 42;

#[cfg(test)]
mod tests {
    use super::*;
    use hws_workload::JobKind;

    #[test]
    fn scale_from_env_defaults_to_standard() {
        // (Environment is not set in the test harness.)
        if std::env::var("HWS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Standard);
        }
    }

    #[test]
    fn scaled_configs_preserve_system_size() {
        for s in [Scale::Full, Scale::Standard, Scale::Quick] {
            let c = s.trace_config();
            assert_eq!(c.system_size, 4_392);
            assert!(c.target_jobs > 100);
        }
    }

    #[test]
    fn run_averaged_is_deterministic() {
        let tcfg = TraceConfig::tiny();
        let scfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        let a = run_averaged(&scfg, &tcfg, 2);
        let b = run_averaged(&scfg, &tcfg, 2);
        assert!((a.avg_turnaround_h - b.avg_turnaround_h).abs() < 1e-12);
        assert!((a.utilization - b.utilization).abs() < 1e-12);
    }

    #[test]
    fn trace_source_without_env_is_synthetic() {
        if std::env::var("HWS_SWF").is_err() {
            assert!(matches!(
                TraceSource::from_env(Scale::Quick),
                TraceSource::Synthetic(_)
            ));
        }
    }

    #[test]
    fn swf_source_traces_vary_by_seed_but_are_deterministic() {
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let a = src.make_trace(1);
        let b = src.make_trace(1);
        let c = src.make_trace(2);
        assert_eq!(a, b);
        // Same raw jobs, different class assignment.
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c);
        assert!(a.validate().is_ok());
        assert!(a.count_kind(JobKind::OnDemand) > 0);
    }

    #[test]
    fn bundled_fixture_matches_its_generator_provenance() {
        // The committed fixture must be exactly what `make_swf_fixture`
        // writes: the plain-SWF export of the quick-scale trace at the
        // fixture seed. Regenerate with
        // `cargo run -p hws-bench --bin make_swf_fixture` if this fails.
        let expected = hws_workload::to_swf(
            &swf_fixture_trace_config().generate(SWF_FIXTURE_SEED),
            &hws_workload::SwfExportConfig {
                embed_classes: false,
                procs_per_node: 1,
            },
        );
        let on_disk = std::fs::read_to_string(bundled_swf_fixture()).expect("fixture present");
        assert_eq!(on_disk, expected, "fixture out of date");
    }

    #[test]
    fn swf_sweep_matches_sequential_bitwise() {
        // The swf_replay acceptance bar, at test scale: parallel sweeping
        // over the imported fixture must not perturb any per-seed metric.
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        let seeds = [0u64, 1];
        let swept = Simulator::run_sweep_with(&cfg, &seeds, |s| src.make_trace(s));
        for (out, &seed) in swept.iter().zip(&seeds) {
            let sequential = Simulator::run_trace(&cfg, &src.make_trace(seed));
            assert_eq!(out.metrics, sequential.metrics, "seed {seed}");
            assert_eq!(out.engine, sequential.engine, "seed {seed}");
        }
    }

    #[test]
    fn fixture_streams_identically_to_materialized() {
        // The streaming-replay contract on the *bundled* corpus rather
        // than a generated one: import the plain fixture (which runs the
        // §IV-A class protocol), re-export it embedded, stream it back,
        // and require the bitwise outcome of the materialized replay.
        let src = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default());
        let trace = src.make_trace(0);
        let swf = hws_workload::to_swf(&trace, &hws_workload::SwfExportConfig::default());
        let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
        let materialized = Simulator::run_trace(&cfg, &trace);
        let streamed = Simulator::run_source(
            &cfg,
            hws_workload::SwfStreamSource::from_reader(swf.as_bytes()).expect("own export"),
        );
        assert_eq!(materialized.metrics, streamed.metrics);
        assert_eq!(materialized.engine, streamed.engine);
        assert_eq!(streamed.admitted_jobs, trace.len() as u64);
    }

    #[test]
    fn notice_mix_override_applies_to_both_variants() {
        let syn = TraceSource::Synthetic(TraceConfig::tiny()).with_notice_mix(NoticeMix::W2);
        match syn {
            TraceSource::Synthetic(cfg) => assert_eq!(cfg.notice_mix, NoticeMix::W2),
            _ => unreachable!(),
        }
        let swf = TraceSource::swf(bundled_swf_fixture(), SwfImportConfig::default())
            .with_notice_mix(NoticeMix::W3);
        match swf {
            TraceSource::SwfFile { cfg, .. } => assert_eq!(cfg.notice_mix, NoticeMix::W3),
            _ => unreachable!(),
        }
    }
}
