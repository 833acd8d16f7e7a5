//! Every input the benchmark feeds the program, pinned here field by field.
//!
//! Nothing is read from the environment and no preset of the program is
//! called (`TraceConfig::theta_2019`, the archive profiles, the bundled SWF
//! fixture): a recalibration elsewhere in the repository must not silently
//! change what the benchmark measures. A new config field breaks the build
//! here, which is the intended, loud way to learn about it.

use hws_core::{
    CkptConfig, FailureConfig, Mechanism, PolicyKind, ShrinkStrategy, SimConfig, VictimOrder,
};
use hws_sim::SimDuration;
use hws_workload::{NoticeMix, SwfImportConfig, TraceConfig};

/// Generator seed of the archive.
pub const ARCHIVE_SEED: u64 = 0;
/// Generator seeds of the paper-scale traces.
pub const PAPER_YEAR_SEEDS: [u64; 2] = [0, 1];
/// Class and notice assignment seed of the service log.
pub const SERVICE_IMPORT_SEED: u64 = 0;

/// The paper's Theta 2019 workload (Table I): one year, 37,298 jobs.
pub fn paper_year_trace() -> TraceConfig {
    TraceConfig {
        system_size: 4_392,
        n_projects: 211,
        target_jobs: 37_298,
        horizon: SimDuration::from_days(365),
        od_project_frac: 0.10,
        rigid_project_frac: 0.60,
        notice_mix: NoticeMix::W5,
        min_job_size: 128,
        size_quantum: 64,
        size_bucket_weights: [0.46, 0.20, 0.14, 0.12, 0.08],
        od_size_bucket_weights: [0.80, 0.18, 0.02, 0.0, 0.0],
        bucket_drift: 0.25,
        runtime_median_s: 3_100.0,
        runtime_sigma: 1.45,
        min_runtime: SimDuration::from_mins(10),
        max_runtime: SimDuration::from_days(1),
        estimate_factor: (1.1, 3.0),
        estimate_exact_frac: 0.2,
        rigid_setup_frac: (0.05, 0.10),
        malleable_setup_frac: (0.0, 0.05),
        malleable_min_frac: 0.2,
        notice_lead: (SimDuration::from_mins(15), SimDuration::from_mins(30)),
        late_window: SimDuration::from_mins(30),
        burst_mean_jobs: 12.0,
        burst_gap_mean: SimDuration::from_mins(4),
        zipf_s: 1.05,
        diurnal: true,
        target_load: Some(0.81),
        capability_frac: 0.0,
    }
}

/// The 100k-job, 12-day theta-shaped archive: Theta's machine, projects
/// and 0.81 load with minute-scale jobs (the archive replay's "quick"
/// calibration as of this benchmark's definition). Sizes sit one octave
/// lower, runtimes are compressed to a ~95 s median with a tighter tail,
/// notice leads scale with the runtimes, and arrivals are flat.
pub fn archive_trace() -> TraceConfig {
    TraceConfig {
        target_jobs: 100_000,
        horizon: SimDuration::from_days(12),
        min_job_size: 64,
        size_bucket_weights: [0.55, 0.25, 0.12, 0.06, 0.02],
        runtime_median_s: 95.0,
        runtime_sigma: 1.0,
        min_runtime: SimDuration::from_secs(10),
        notice_lead: (SimDuration::from_secs(15), SimDuration::from_secs(30)),
        late_window: SimDuration::from_secs(30),
        diurnal: false,
        ..paper_year_trace()
    }
}

/// Class and notice assignment for the service workload's SWF log (the
/// paper's §IV-B protocol).
pub fn service_import() -> SwfImportConfig {
    SwfImportConfig {
        system_size: 4_392,
        procs_per_node: 1,
        completed_only: true,
        include_unknown_status: false,
        od_project_frac: 0.10,
        rigid_project_frac: 0.60,
        notice_mix: NoticeMix::W5,
        notice_lead: (SimDuration::from_mins(15), SimDuration::from_mins(30)),
        late_window: SimDuration::from_mins(30),
        malleable_min_frac: 0.2,
        rigid_setup_frac: (0.05, 0.10),
        malleable_setup_frac: (0.0, 0.05),
        seed: SERVICE_IMPORT_SEED,
    }
}

/// The service workload's log: a 1,430-job, two-week Theta-shaped SWF,
/// copied into the benchmark so a regenerated repository fixture cannot
/// change it.
pub const SERVICE_SWF: &str = include_str!("../data/theta_quick.swf");

/// The §IV-B scheduler parameters under `m`.
///
/// Starts from the default config users run and pins every behavioural
/// field. `measure_decisions` keeps its default and is never set here: the
/// behaviour fingerprint leaves out the wall-clock decision fields instead.
pub fn sim_config(m: Mechanism) -> SimConfig {
    let mut cfg = SimConfig::with_mechanism(m);
    cfg.policy = PolicyKind::Fcfs;
    cfg.easy_backfill = true;
    cfg.backfill_on_reserved = true;
    cfg.ckpt = CkptConfig {
        node_mtbf_hours: 24.0 * 365.0,
        interval_factor: 1.0,
        cost_small: SimDuration::from_secs(600),
        cost_large: SimDuration::from_secs(1_200),
        large_threshold: 1_024,
        enabled: true,
        extends_walltime: false,
    };
    cfg.failures = FailureConfig {
        enabled: false,
        node_mtbf_hours: 24.0 * 365.0,
        seed: 0,
    };
    cfg.malleable_warning = SimDuration::from_secs(120);
    cfg.reservation_timeout = SimDuration::from_mins(10);
    cfg.instant_threshold = SimDuration::from_secs(120);
    cfg.victim_order = VictimOrder::Overhead;
    cfg.shrink_strategy = ShrinkStrategy::EvenWaterFill;
    cfg.paranoid_checks = false;
    cfg.record_timeline = false;
    cfg.hooks = None;
    cfg.federation = None;
    cfg.outages = None;
    cfg
}
