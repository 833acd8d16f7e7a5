//! Integration tests for the failure-injection extension: Daly-optimal
//! checkpointing actually earns its keep once nodes can fail.

use hws_core::FailureConfig;
use hws_sim::{SimDuration as D, SimTime as T};
use hybrid_workload_sched::prelude::*;

fn failing_cfg(mtbf_hours: f64) -> SimConfig {
    SimConfig::baseline().with_failures(mtbf_hours).paranoid()
}

#[test]
fn failing_jobs_still_complete() {
    // Aggressive failures (job MTBF ≈ 40 min for 128 nodes): every job
    // must still finish by retrying from checkpoints.
    let trace = TraceConfig::tiny().generate(1);
    let mut cfg = failing_cfg(2_000.0);
    cfg.ckpt.node_mtbf_hours = 2_000.0; // keep τ consistent with failures
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, trace.len());
    assert!(out.metrics.total_failures > 0, "expected some failures");
}

#[test]
fn failures_extend_turnaround() {
    let trace = TraceConfig::tiny().generate(2);
    let healthy = Simulator::run_trace(&SimConfig::baseline(), &trace).metrics;
    let mut cfg = failing_cfg(1_000.0);
    cfg.ckpt.node_mtbf_hours = 1_000.0;
    let failing = Simulator::run_trace(&cfg, &trace).metrics;
    assert!(failing.total_failures > 0);
    assert!(
        failing.avg_turnaround_h > healthy.avg_turnaround_h,
        "failures {} h !> healthy {} h",
        failing.avg_turnaround_h,
        healthy.avg_turnaround_h
    );
}

#[test]
fn checkpoints_bound_failure_losses() {
    // One long rigid job on a failure-prone machine: with checkpoints the
    // job converges; the wasted fraction shrinks versus no checkpoints.
    let jobs = vec![JobSpecBuilder::rigid(0)
        .size(64)
        .work(D::from_hours(20))
        .estimate(D::from_hours(24))
        .setup(D::from_mins(10))
        .build()];
    let trace = Trace::new(64, D::from_days(10), jobs);

    let mut with_ckpt = failing_cfg(400.0); // job MTBF = 6.25 h
    with_ckpt.ckpt.node_mtbf_hours = 400.0;
    let mut no_ckpt = with_ckpt.clone();
    no_ckpt.ckpt = CkptConfig::disabled();

    let a = Simulator::run_trace(&with_ckpt, &trace).metrics;
    let b = Simulator::run_trace(&no_ckpt, &trace).metrics;
    assert_eq!(a.completed_jobs, 1);
    assert_eq!(b.completed_jobs, 1);
    assert!(a.total_failures > 0);
    // Without checkpoints every failure restarts from zero: the job holds
    // the machine far longer for the same useful work.
    assert!(
        b.avg_turnaround_h > a.avg_turnaround_h,
        "no-ckpt {} h !> ckpt {} h",
        b.avg_turnaround_h,
        a.avg_turnaround_h
    );
}

#[test]
fn failure_streams_are_deterministic() {
    let trace = TraceConfig::tiny().generate(3);
    let mut cfg = failing_cfg(3_000.0);
    let a = Simulator::run_trace(&cfg, &trace).metrics;
    let b = Simulator::run_trace(&cfg, &trace).metrics;
    assert_eq!(a, b);
    // A different failure seed gives a different trajectory.
    cfg.failures = FailureConfig {
        seed: 99,
        ..cfg.failures
    };
    let c = Simulator::run_trace(&cfg, &trace).metrics;
    assert_ne!(a.total_failures, c.total_failures);
}

#[test]
fn failed_on_demand_job_restarts_with_priority() {
    let jobs = vec![
        JobSpecBuilder::on_demand(0)
            .submit_at(T::from_secs(0))
            .size(64)
            .work(D::from_hours(10))
            .estimate(D::from_hours(12))
            .build(),
        JobSpecBuilder::rigid(1)
            .submit_at(T::from_secs(100))
            .size(64)
            .work(D::from_hours(1))
            .estimate(D::from_hours(1))
            .build(),
    ];
    let trace = Trace::new(64, D::from_days(10), jobs);
    let mut cfg = SimConfig::with_mechanism(Mechanism::N_PAA)
        .with_failures(300.0)
        .paranoid();
    cfg.ckpt.node_mtbf_hours = 300.0;
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, 2);
    if out.metrics.total_failures > 0 {
        // The on-demand job restarted ahead of the rigid job every time:
        // rigid only runs after the od fully completes.
        assert!(out.metrics.rigid.avg_turnaround_h >= out.metrics.on_demand.avg_turnaround_h);
    }
}

#[test]
fn malleable_failures_lose_only_setup() {
    // A single malleable job that fails: unlike rigid jobs it resumes from
    // where it stopped, so total time ≈ work + k×setup, far below 2×work.
    let jobs = vec![JobSpecBuilder::malleable(0)
        .size(64)
        .min_size(16)
        .work(D::from_hours(10))
        .estimate(D::from_hours(12))
        .setup(D::from_mins(5))
        .build()];
    let trace = Trace::new(64, D::from_days(5), jobs);
    let mut cfg = SimConfig::with_mechanism(Mechanism::N_SPAA)
        .with_failures(600.0)
        .paranoid();
    cfg.ckpt.node_mtbf_hours = 600.0;
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.completed_jobs, 1);
    let m = &out.metrics;
    if m.total_failures > 0 {
        let budget = 10.0 + (m.total_failures as f64 + 1.0) * (5.0 / 60.0) + 0.1;
        assert!(
            m.avg_turnaround_h <= budget,
            "malleable lost more than setup per failure: {} h > {budget} h ({} failures)",
            m.avg_turnaround_h,
            m.total_failures
        );
    }
}
