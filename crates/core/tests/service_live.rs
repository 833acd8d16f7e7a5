//! Live-service contracts:
//!
//! 1. **Log-replay parity** — replaying a [`SubmissionLog`] through
//!    [`SchedulerService`] (ops at their timestamps, events in between)
//!    produces bitwise-identical metrics to materializing the log and
//!    batch-replaying it, for every mechanism, with and without buffered
//!    cancels.
//! 2. **Snapshot round trip** — snapshot → restore → continue is
//!    bitwise-identical to never pausing, across mechanisms, a
//!    capability-aware custom composition, and a 2-shard federation; a
//!    restored snapshot re-serializes to the same bytes; truncated bytes
//!    error cleanly.
//! 3. **What-if isolation** — forecasting forks never perturb the live
//!    session (snapshot bytes unchanged).
//! 4. **Cancel semantics** — buffered / announced / waiting / too-late.

use hws_cluster::{Cluster, Federation, FederationConfig, SnapshotBackend};
use hws_core::{
    replay_submission_log, CancelOutcome, CapabilityAware, JobStatus, Mechanism, SchedulerService,
    SimConfig, SimOutcome, Simulator,
};
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{LogEntry, SubmissionLog, SubmitOp, Trace, TraceConfig};
use proptest::prelude::*;

fn cfg_for(mechanism: Mechanism) -> SimConfig {
    let mut cfg = SimConfig::with_mechanism(mechanism);
    // Every contract here also runs the O(n)-scan cross-validating
    // cluster accounting: the logs are small enough that paranoia is
    // nearly free, and a restore that corrupted occupancy must trip an
    // assertion, not just drift a metric.
    cfg.paranoid_checks = true;
    cfg
}

/// Insert a buffered cancel (timestamped at the job's earliest event,
/// directly after its submit op) for every `stride`-th submit.
fn with_buffered_cancels(log: &SubmissionLog, stride: usize) -> SubmissionLog {
    let mut entries: Vec<LogEntry> = Vec::new();
    let mut nth = 0usize;
    for e in log.entries() {
        entries.push(e.clone());
        if let SubmitOp::Submit(spec) = &e.op {
            nth += 1;
            if nth.is_multiple_of(stride) {
                entries.push(LogEntry {
                    at: e.at,
                    op: SubmitOp::Cancel(spec.id),
                });
            }
        }
    }
    SubmissionLog::new(log.system_size(), log.horizon(), entries).expect("valid cancel placement")
}

fn assert_parity(cfg: &SimConfig, log: &SubmissionLog, label: &str) {
    let live = replay_submission_log(cfg, log).expect("service replay");
    let trace = log.materialize().expect("only buffered cancels");
    let batch = Simulator::run_trace(cfg, &trace);
    assert_eq!(live.metrics, batch.metrics, "metrics diverge for {label}");
    assert_eq!(live.classes, batch.classes, "classes diverge for {label}");
    assert_eq!(live.shards, batch.shards, "shards diverge for {label}");
    assert_eq!(
        live.admitted_jobs, batch.admitted_jobs,
        "admission counts diverge for {label}"
    );
}

/// Drive `log[..cut]`, snapshot, verify the image round-trips bitwise and
/// rejects truncation, restore, drive the rest, and fold the outcome.
fn run_interrupted<B: SnapshotBackend>(
    mut svc: SchedulerService<B>,
    cfg: &SimConfig,
    ctx: B::Ctx,
    log: &SubmissionLog,
    cut: usize,
) -> SimOutcome
where
    B::Ctx: Clone,
{
    for e in &log.entries()[..cut] {
        svc.apply(e).expect("log entry applies");
    }
    let bytes = svc.snapshot();
    // A restored session must re-serialize to the identical image.
    let reread = SchedulerService::<B>::restore(&bytes, cfg, ctx.clone()).expect("fresh snapshot");
    assert_eq!(reread.snapshot(), bytes, "snapshot not a fixed point");
    // Any strict prefix must error cleanly (never panic).
    for frac in [0, 1, 2, 3] {
        let cut_b = bytes.len() * frac / 4;
        assert!(
            SchedulerService::<B>::restore(&bytes[..cut_b], cfg, ctx.clone()).is_err(),
            "truncation at {cut_b} accepted"
        );
    }
    assert!(
        SchedulerService::<B>::restore(&bytes[..bytes.len() - 1], cfg, ctx.clone()).is_err(),
        "missing final byte accepted"
    );
    let mut svc = reread;
    for e in &log.entries()[cut..] {
        svc.apply(e).expect("log entry applies after restore");
    }
    svc.into_outcome()
}

fn assert_snapshot_transparent(cfg: &SimConfig, log: &SubmissionLog, cut: usize, label: &str) {
    let uninterrupted = replay_submission_log(cfg, log).expect("service replay");
    let resumed = match &cfg.federation {
        None => run_interrupted(
            SchedulerService::new(cfg.clone(), log.system_size()),
            cfg,
            (),
            log,
            cut,
        ),
        Some(fed) => run_interrupted(
            SchedulerService::<Federation>::federated(cfg.clone(), log.system_size()),
            cfg,
            fed.clone(),
            log,
            cut,
        ),
    };
    assert_eq!(
        uninterrupted.metrics, resumed.metrics,
        "snapshot changed the future for {label}"
    );
    assert_eq!(uninterrupted.classes, resumed.classes);
    assert_eq!(uninterrupted.shards, resumed.shards);
    assert_eq!(uninterrupted.admitted_jobs, resumed.admitted_jobs);
}

fn capability_cfg() -> SimConfig {
    let mut cfg = SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUP_SPAA));
    cfg.paranoid_checks = true;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Service replay of a submission log equals batch replay of its
    /// materialization — bitwise — for baseline, all six mechanisms, and
    /// logs with buffered cancels.
    #[test]
    fn log_replay_matches_materialized(seed in 0..1_000u64, jobs in 25..90u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).with_capability_frac(0.1).generate(seed);
        let log = SubmissionLog::from_trace(&trace);
        let cancelled = with_buffered_cancels(&log, 5);
        {
            let cfg = SimConfig::baseline();
            assert_parity(&cfg, &log, "baseline");
            assert_parity(&cfg, &cancelled, "baseline+cancels");
        }
        for m in Mechanism::ALL_SIX {
            let cfg = cfg_for(m);
            assert_parity(&cfg, &log, m.name());
            assert_parity(&cfg, &cancelled, m.name());
        }
    }

    /// Snapshot → restore → drain equals the uninterrupted run, bitwise,
    /// at a random cut point: across the six mechanisms, a
    /// capability-aware custom composition, and a 2-shard federation.
    #[test]
    fn snapshot_restore_is_transparent(seed in 0..1_000u64, jobs in 20..60u32, cut_frac in 0..=100u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).with_capability_frac(0.15).generate(seed);
        let log = with_buffered_cancels(&SubmissionLog::from_trace(&trace), 7);
        let cut = (log.len() * cut_frac as usize) / 100;
        for m in Mechanism::ALL_SIX {
            assert_snapshot_transparent(&cfg_for(m), &log, cut, m.name());
        }
        assert_snapshot_transparent(&capability_cfg(), &log, cut, "capability-aware");
        let fed = cfg_for(Mechanism::CUA_SPAA)
            .federated(FederationConfig::even_split(2, log.system_size()));
        assert_snapshot_transparent(&fed, &log, cut, "2-shard federation");
    }
}

/// What-if forks must not perturb the live session: the snapshot image is
/// byte-identical before and after a forecast, and the forecast covers
/// every mechanism for a runnable probe.
#[test]
fn what_if_leaves_no_trace() {
    let trace = TraceConfig::tiny().with_jobs(40).generate(11);
    let log = SubmissionLog::from_trace(&trace);
    let cfg = cfg_for(Mechanism::CUP_PAA);
    let mut svc = SchedulerService::new(cfg, log.system_size());
    let mid = log.len() / 2;
    for e in &log.entries()[..mid] {
        svc.apply(e).expect("entry applies");
    }
    let before = svc.snapshot();
    let probe = JobSpecBuilder::rigid(9_999_999)
        .submit_at(svc.now() + SimDuration::from_secs(60))
        .size(4)
        .work(SimDuration::from_secs(300))
        .estimate(SimDuration::from_secs(600))
        .build();
    let forecast = svc.what_if(&probe).expect("probe is submittable");
    assert_eq!(
        forecast.len(),
        6,
        "a small rigid probe starts under every mechanism"
    );
    for (&m, &start) in &forecast {
        assert!(
            start >= probe.submit,
            "{m:?} forecasts a start before submission"
        );
    }
    assert_eq!(svc.snapshot(), before, "what_if perturbed the live session");
    assert_eq!(svc.query(probe.id), JobStatus::Unknown);
}

/// Wall-clock time is not state: two default-config services fed the same
/// log snapshot to the same bytes, however long their decisions took.
#[test]
fn same_log_snapshots_to_identical_bytes() {
    let trace = TraceConfig::tiny().with_jobs(60).generate(5);
    assert!(trace.count_kind(hws_workload::JobKind::OnDemand) > 0);
    let log = SubmissionLog::from_trace(&trace);
    let image = || {
        let mut svc = SchedulerService::new(SimConfig::default(), log.system_size());
        for e in log.entries() {
            svc.apply(e).expect("entry applies");
        }
        svc.step_until(SimTime::from_secs(log.horizon().as_secs()));
        svc.snapshot()
    };
    assert_eq!(image(), image());
}

/// No length field of a service image can size an allocation beyond the
/// bytes left: overwriting any 8-byte window with 2³² − 1 (a count that
/// would ask for gigabytes) restores to an error or to a state, never to
/// an aborted process. The windows over the engine's queue, wait-queue,
/// claim, timeout, CUP-plan and shard counts must all be rejected.
#[test]
fn huge_length_fields_error_instead_of_aborting() {
    let trace = TraceConfig::tiny().with_jobs(40).generate(11);
    let log = SubmissionLog::from_trace(&trace);
    let cfg = cfg_for(Mechanism::CUP_SPAA);
    let mut svc = SchedulerService::new(cfg.clone(), log.system_size());
    for e in &log.entries()[..log.len() / 2] {
        svc.apply(e).expect("entry applies");
    }
    let bytes = svc.snapshot();
    let mut rejected = 0;
    for at in 0..=bytes.len() - 8 {
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&0xFFFF_FFFFu64.to_le_bytes());
        if SchedulerService::<Cluster>::restore(&bad, &cfg, ()).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "no overwritten window was rejected");
}

/// Buffered cancel: bitwise-identical to never submitting the job.
#[test]
fn buffered_cancel_equals_never_submitted() {
    let cfg = cfg_for(Mechanism::N_PAA);
    let horizon = SimDuration::from_hours(4);
    let keep = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(100))
        .size(8)
        .work(SimDuration::from_secs(600))
        .estimate(SimDuration::from_secs(900))
        .build();
    let doomed = JobSpecBuilder::rigid(2)
        .submit_at(SimTime::from_secs(200))
        .size(8)
        .work(SimDuration::from_secs(600))
        .estimate(SimDuration::from_secs(900))
        .build();

    let mut svc = SchedulerService::new(cfg.clone(), 64);
    svc.submit(keep.clone()).unwrap();
    svc.submit(doomed.clone()).unwrap();
    assert_eq!(svc.query(doomed.id), JobStatus::Pending);
    assert_eq!(svc.cancel(doomed.id), CancelOutcome::Buffered);
    assert_eq!(svc.query(doomed.id), JobStatus::Cancelled);
    // The id is burned even though the job never ran.
    assert!(svc.submit(doomed.clone()).is_err());
    let with_cancel = svc.into_outcome();

    let clean = Simulator::run_trace(&cfg, &Trace::new(64, horizon, vec![keep]));
    assert_eq!(with_cancel.metrics, clean.metrics);
    assert_eq!(with_cancel.admitted_jobs, clean.admitted_jobs);
}

/// In-flight cancels under paranoid invariant checking: an announced
/// on-demand job releases its reservation and vanishes without a record;
/// a waiting job is recorded as killed; running jobs are too late.
#[test]
fn in_flight_cancels_keep_invariants() {
    let mut cfg = cfg_for(Mechanism::CUP_SPAA);
    cfg.paranoid_checks = true;
    let mut svc = SchedulerService::new(cfg, 64);

    // Fill the machine so everything below queues deterministically.
    let hog = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(10))
        .size(64)
        .work(SimDuration::from_secs(7_200))
        .estimate(SimDuration::from_secs(10_000))
        .build();
    svc.submit(hog.clone()).unwrap();

    // An on-demand job announced at t=600, predicted to arrive at 1_800.
    let od = JobSpecBuilder::on_demand(2)
        .submit_at(SimTime::from_secs(1_800))
        .size(16)
        .work(SimDuration::from_secs(300))
        .estimate(SimDuration::from_secs(600))
        .notice(SimTime::from_secs(600), SimTime::from_secs(1_800))
        .build();
    svc.submit(od.clone()).unwrap();

    // A rigid job that will sit in the queue behind the hog.
    let waiter = JobSpecBuilder::rigid(3)
        .submit_at(SimTime::from_secs(700))
        .size(32)
        .work(SimDuration::from_secs(600))
        .estimate(SimDuration::from_secs(900))
        .build();
    svc.submit(waiter.clone()).unwrap();

    svc.step_until(SimTime::from_secs(1_000));
    assert_eq!(svc.query(hog.id), JobStatus::Running);
    assert_eq!(svc.query(od.id), JobStatus::Announced);
    assert_eq!(svc.query(waiter.id), JobStatus::Waiting);

    assert_eq!(svc.cancel(od.id), CancelOutcome::Cancelled);
    assert_eq!(svc.query(od.id), JobStatus::Cancelled);
    assert_eq!(svc.cancel(waiter.id), CancelOutcome::Cancelled);
    assert_eq!(svc.query(waiter.id), JobStatus::Cancelled);
    assert_eq!(svc.cancel(hog.id), CancelOutcome::TooLate);
    assert_eq!(svc.cancel(hws_workload::JobId(404)), CancelOutcome::Unknown);
    // Cancelling twice reports Unknown, not a second cancellation.
    assert_eq!(svc.cancel(od.id), CancelOutcome::Unknown);

    // The cancelled od job's pending arrival events must die against the
    // liveness guard — draining the run (paranoid checks on) proves the
    // cleanup left a consistent cluster.
    let outcome = svc.into_outcome();
    // Only the hog completes; the waiting job's cancel was recorded as a
    // kill; the announced od job left no record at all.
    assert_eq!(outcome.metrics.completed_jobs, 1);
    assert_eq!(outcome.metrics.killed_jobs, 1);
    assert_eq!(outcome.admitted_jobs, 3);
}

/// The service clock mirrors `Engine::run_until`: inclusive horizon,
/// idempotent repeats, exclusive stepping for op ordering.
#[test]
fn step_horizons_are_inclusive_and_idempotent() {
    let cfg = cfg_for(Mechanism::N_PAA);
    let mut svc = SchedulerService::new(cfg, 64);
    let job = JobSpecBuilder::rigid(1)
        .submit_at(SimTime::from_secs(500))
        .size(4)
        .work(SimDuration::from_secs(60))
        .estimate(SimDuration::from_secs(120))
        .build();
    svc.submit(job.clone()).unwrap();

    // Exclusive: nothing at 500 delivers.
    svc.step_before(SimTime::from_secs(500));
    assert_eq!(svc.query(job.id), JobStatus::Pending);
    // Inclusive: the submission at exactly 500 delivers (and the pass
    // starts the job on the empty machine).
    svc.step_until(SimTime::from_secs(500));
    assert_eq!(svc.query(job.id), JobStatus::Running);
    assert_eq!(svc.now(), SimTime::from_secs(500));
    let before = svc.snapshot();
    svc.step_until(SimTime::from_secs(500));
    assert_eq!(svc.snapshot(), before, "repeated equal horizon acted");

    // Past-due submissions are rejected, not silently reordered.
    let late = JobSpecBuilder::rigid(2)
        .submit_at(SimTime::from_secs(499))
        .size(4)
        .work(SimDuration::from_secs(60))
        .estimate(SimDuration::from_secs(120))
        .build();
    assert!(svc.submit(late).is_err());
}
