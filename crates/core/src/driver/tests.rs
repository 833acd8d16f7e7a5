use super::*;
use crate::config::{Mechanism, SimConfig};
use crate::jobstate::n_checkpoints;
use hws_sim::{SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{JobSpec, Trace, TraceConfig};

fn d(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn trace(system: u32, jobs: Vec<JobSpec>) -> Trace {
    Trace::new(system, SimDuration::from_days(7), jobs)
}

fn run(cfg: SimConfig, tr: &Trace) -> SimOutcome {
    let mut cfg = cfg;
    cfg.paranoid_checks = true;
    Simulator::run_trace(&cfg, tr)
}

#[test]
fn single_rigid_job_completes() {
    let tr = trace(
        100,
        vec![JobSpecBuilder::rigid(0)
            .size(10)
            .work(d(3_600))
            .estimate(d(7_200))
            .setup(d(300))
            .build()],
    );
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 1);
    // turnaround = setup + work (no checkpoint: τ for 10 nodes is huge).
    assert!((out.metrics.avg_turnaround_h - (3_900.0 / 3_600.0)).abs() < 1e-6);
}

#[test]
fn checkpoint_walltime_accounting_modes() {
    // Paper mode (default): checkpoints live inside the recorded
    // runtime — wall time is setup + work regardless of τ.
    let mut cfg = SimConfig::baseline();
    cfg.ckpt.node_mtbf_hours = 0.25; // force frequent checkpoints
    let tr = trace(
        100,
        vec![JobSpecBuilder::rigid(0)
            .size(10)
            .work(d(10_000))
            .estimate(d(20_000))
            .build()],
    );
    let out = run(cfg.clone(), &tr);
    assert!((out.metrics.avg_turnaround_h - 10_000.0 / 3_600.0).abs() < 1e-6);

    // Physical mode (ablation): each checkpoint occupies δ = 600 s.
    cfg.ckpt.extends_walltime = true;
    let out = run(cfg.clone(), &tr);
    let tau = cfg.ckpt.interval(10).unwrap();
    let n = n_checkpoints(d(10_000), Some(tau));
    assert!(n >= 1, "expected at least one checkpoint, τ = {tau}");
    let expect_h = (10_000 + n * 600) as f64 / 3_600.0;
    assert!((out.metrics.avg_turnaround_h - expect_h).abs() < 1e-6);
}

#[test]
fn fcfs_queueing_orders_by_submit() {
    // Two 60-node jobs on a 100-node machine: the second waits.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(60)
                .work(d(1_000))
                .estimate(d(1_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(60)
                .work(d(1_000))
                .estimate(d(1_000))
                .submit_at(t(10))
                .build(),
        ],
    );
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Second job waited ~990 s → mean TAT ≈ (1000 + 1990) / 2.
    assert!((out.metrics.avg_turnaround_h - (2_990.0 / 2.0 / 3_600.0)).abs() < 1e-6);
}

#[test]
fn easy_backfill_lets_small_job_jump() {
    // Head blocked behind a big job; a small short job backfills.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(80)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(1_000))
                .submit_at(t(1))
                .build(),
            JobSpecBuilder::rigid(2)
                .size(20)
                .work(d(500))
                .estimate(d(500))
                .submit_at(t(2))
                .build(),
        ],
    );
    let out = run(SimConfig::baseline(), &tr);
    let rec2 = out; // job 2 fits in the 20 free nodes and ends before the shadow
    assert_eq!(rec2.metrics.completed_jobs, 3);
    // Without backfill job 2 would wait 11000 s; with EASY it runs at t≈2.
    let mut no_bf = SimConfig::baseline();
    no_bf.easy_backfill = false;
    let out2 = run(no_bf, &tr);
    assert!(out2.metrics.avg_turnaround_h > rec2.metrics.avg_turnaround_h);
}

#[test]
fn baseline_od_job_waits_like_everyone() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(5_000))
                .estimate(d(5_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(100))
                .estimate(d(200))
                .submit_at(t(10))
                .build(),
        ],
    );
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert_eq!(out.metrics.instant_start_rate, 0.0);
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
}

#[test]
fn paa_preempts_rigid_for_on_demand() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(50_000))
                .estimate(d(60_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    assert!((out.metrics.rigid.preemption_ratio - 1.0).abs() < 1e-9);
    // The rigid job had no checkpoint yet → it lost its first 1000 s.
    assert!(out.metrics.utilization < out.metrics.raw_occupancy);
}

#[test]
fn spaa_shrinks_malleable_instead_of_preempting() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(20)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    // Shrunk, not preempted.
    assert_eq!(out.metrics.malleable.preemption_ratio, 0.0);
}

#[test]
fn spaa_falls_back_to_paa_when_supply_short() {
    // Malleable can only give 8 nodes (10 → 2), on-demand needs 50.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(10)
                .min_size(2)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(90)
                .work(d(50_000))
                .estimate(d(50_000))
                .submit_at(t(1))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    // PAA kicked in: something was preempted.
    assert!(
        out.metrics.rigid.preemption_ratio > 0.0 || out.metrics.malleable.preemption_ratio > 0.0
    );
}

#[test]
fn preempted_rigid_job_resumes_and_completes() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(5_000))
                .estimate(d(6_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(100)
                .work(d(500))
                .estimate(d(1_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert_eq!(out.metrics.killed_jobs, 0);
    // Rigid job restarted from scratch (no checkpoint yet): total span
    // covers both the wasted 1000 s and the full re-run.
    assert!(out.metrics.rigid.avg_turnaround_h > (5_000.0 + 1_500.0) / 3_600.0 - 1e-9);
}

#[test]
fn malleable_two_minute_warning_delays_od_start() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(90)
                .work(d(10_000))
                .estimate(d(10_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    // min 90 → shrink supply = 10 < 50 → PAA preempts the malleable job.
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Start delayed by the 120 s warning — still "instant".
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    assert_eq!(out.metrics.strict_instant_rate, 0.0);
    assert!((out.metrics.malleable.preemption_ratio - 1.0).abs() < 1e-9);
}

#[test]
fn od_returns_nodes_to_shrunk_lender() {
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::malleable(0)
                .size(100)
                .min_size(20)
                .work(d(20_000))
                .estimate(d(20_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(60)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(1_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::N_SPAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    // Shrink + expand-back happened: 2 000 000 node-seconds of work at
    // ≤100 nodes; if the job expanded back the makespan stays near
    // 20 000 s + shrunk interval compensation.
    let m = &out.metrics;
    assert!(
        m.malleable.avg_turnaround_h < 8.0,
        "{}",
        m.malleable.avg_turnaround_h
    );
}

#[test]
fn cua_collects_nodes_before_arrival() {
    // Machine is full; a job finishes during the notice window; CUA
    // grabs its nodes so the OD job starts instantly at arrival.
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(50)
                .work(d(2_000))
                .estimate(d(2_000))
                .build(),
            JobSpecBuilder::rigid(1)
                .size(50)
                .work(d(50_000))
                .estimate(d(50_000))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(3_000))
                .notice(t(1_500), t(3_000))
                .build(),
        ],
    );
    let out = run(SimConfig::with_mechanism(Mechanism::CUA_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    assert!((out.metrics.strict_instant_rate - 1.0).abs() < 1e-9);
    // No preemption was needed: job 0's release covered the request.
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
}

#[test]
fn cup_preempts_after_checkpoint_before_predicted_arrival() {
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUP_PAA);
    cfg.ckpt.node_mtbf_hours = 0.5; // small τ → checkpoint soon
    cfg.paranoid_checks = true;
    let tr = trace(
        100,
        vec![
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(50_000))
                .estimate(d(50_000))
                .build(),
            JobSpecBuilder::on_demand(1)
                .size(50)
                .work(d(1_000))
                .estimate(d(2_000))
                .submit_at(t(10_000))
                .notice(t(8_200), t(10_000))
                .build(),
        ],
    );
    let out = Simulator::run_trace(&cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
    // The rigid job was preempted (after a checkpoint) pre-arrival.
    assert!((out.metrics.rigid.preemption_ratio - 1.0).abs() < 1e-9);
    // Lost work is bounded by one checkpoint cycle, so utilization
    // should not collapse.
    assert!(out.metrics.utilization > 0.5);
}

#[test]
fn reservation_released_after_timeout() {
    // OD job announced but arrives very late (past the 10-minute
    // timeout); the reserved nodes must not idle until its arrival.
    let jobs = vec![
        JobSpecBuilder::on_demand(0)
            .size(100)
            .work(d(100))
            .estimate(d(200))
            .submit_at(t(10_000))
            .notice(t(100), t(1_000))
            .build(),
        JobSpecBuilder::rigid(1)
            .size(100)
            .work(d(1_000))
            .estimate(d(1_000))
            .submit_at(t(200))
            .build(),
    ];
    let tr = trace(100, jobs);

    // With backfill-on-reserved, the rigid job squats on the reserved
    // nodes immediately and finishes before the OD job shows up.
    let out = run(SimConfig::with_mechanism(Mechanism::CUA_PAA), &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    let tat = out.metrics.rigid.avg_turnaround_h * 3_600.0;
    assert!((tat - 1_000.0).abs() < 2.0, "squatting start: tat = {tat}");
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);

    // Without squatting the rigid job can only start when the timeout
    // (predicted 1000 + 600 s) releases the reservation.
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    cfg.backfill_on_reserved = false;
    let out = run(cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 2);
    let tat = out.metrics.rigid.avg_turnaround_h * 3_600.0;
    assert!(
        (tat - (1_600.0 - 200.0 + 1_000.0)).abs() < 2.0,
        "timeout start: tat = {tat}"
    );
}

#[test]
fn backfill_on_reserved_nodes_evicted_at_arrival() {
    let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    cfg.paranoid_checks = true;
    let tr = trace(
        100,
        vec![
            // Fill the machine so the reservation comes from job 0's
            // release during the notice window.
            JobSpecBuilder::rigid(0)
                .size(100)
                .work(d(2_000))
                .estimate(d(2_000))
                .build(),
            // Backfill candidate arriving during the notice window.
            JobSpecBuilder::rigid(1)
                .size(40)
                .work(d(10_000))
                .estimate(d(10_000))
                .submit_at(t(2_100))
                .build(),
            JobSpecBuilder::on_demand(2)
                .size(100)
                .work(d(500))
                .estimate(d(1_000))
                .submit_at(t(4_000))
                .notice(t(2_050), t(4_000))
                .build(),
        ],
    );
    let out = Simulator::run_trace(&cfg, &tr);
    assert_eq!(out.metrics.completed_jobs, 3);
    // Job 1 squatted on reserved nodes and was evicted at arrival.
    assert!((out.metrics.rigid.preemption_ratio - 0.5).abs() < 1e-9);
    assert!((out.metrics.instant_start_rate - 1.0).abs() < 1e-9);
}

#[test]
fn determinism_same_seed_same_metrics() {
    let tr = TraceConfig::tiny().generate(3);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let a = Simulator::run_trace(&cfg, &tr);
    let b = Simulator::run_trace(&cfg, &tr);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.engine.delivered, b.engine.delivered);
}

#[test]
fn all_six_mechanisms_run_tiny_trace_clean() {
    let tr = TraceConfig::tiny().generate(7);
    for m in Mechanism::ALL_SIX {
        let mut cfg = SimConfig::with_mechanism(m);
        cfg.paranoid_checks = true;
        let out = Simulator::run_trace(&cfg, &tr);
        assert_eq!(
            out.metrics.completed_jobs + out.metrics.killed_jobs,
            tr.len(),
            "{m}: all jobs must finish"
        );
        assert!(out.metrics.utilization <= 1.0 + 1e-9, "{m}");
        assert_eq!(out.metrics.killed_jobs, 0, "{m}");
    }
}

#[test]
fn decision_latency_recorded_and_fast() {
    let tr = TraceConfig::tiny().generate(9);
    let od = tr.count_kind(hws_workload::JobKind::OnDemand) as u64;
    assert!(od > 0, "trace must carry on-demand jobs");
    let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
    let lat = Simulator::run_trace(&cfg, &tr).decision_latency;
    // Every on-demand arrival is one timed decision (notices add more).
    assert!(
        lat.count() >= od,
        "{} decisions for {od} arrivals",
        lat.count()
    );
    // Observation 10: decisions well under 10 ms.
    assert!(lat.max_us() < 10_000.0, "max decision {} µs", lat.max_us());
}

#[test]
fn snapshot_of_another_version_is_rejected_naming_both_versions() {
    use super::snapshot::SNAP_VERSION;
    let tr = TraceConfig::tiny().generate(2);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let mut svc = SchedulerService::from_core(SimCore::new(cfg.clone(), tr.system_size), ());
    for spec in tr.jobs.iter().cloned() {
        svc.inject(spec);
    }
    svc.step_until(t(86_400));
    let mut image = svc.snapshot();
    // Service version byte, then the engine image behind its u64 length.
    const ENGINE_VERSION_AT: usize = 1 + 8;
    assert_eq!(image[ENGINE_VERSION_AT], SNAP_VERSION);
    assert!(SchedulerService::<hws_cluster::Cluster>::restore(&image, &cfg, ()).is_ok());
    let other = SNAP_VERSION + 1;
    image[ENGINE_VERSION_AT] = other;
    let err = SchedulerService::<hws_cluster::Cluster>::restore(&image, &cfg, ())
        .err()
        .expect("a version-skewed image must not restore")
        .to_string();
    assert!(
        err.contains(&format!("version {other}")) && err.contains(&format!("reads {SNAP_VERSION}")),
        "{err}"
    );
}

#[test]
fn restore_rejects_nodes_held_by_a_job_the_table_does_not_run() {
    let tr = TraceConfig::tiny().generate(2);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
    let mut core = SimCore::new(cfg.clone(), tr.system_size);
    let phantom = hws_workload::JobId(u64::MAX);
    assert!(core.cluster.allocate(phantom, 1).is_some());
    // The cluster alone is consistent; only the job table disowns the job.
    assert_eq!(core.cluster.check_invariants(), Ok(()));
    let mut svc = SchedulerService::from_core(core, ());
    for spec in tr.jobs.iter().cloned() {
        svc.inject(spec);
    }
    svc.step_until(t(86_400));
    let image = svc.snapshot();
    let err = SchedulerService::<hws_cluster::Cluster>::restore(&image, &cfg, ())
        .err()
        .expect("nodes held by a phantom job must not restore")
        .to_string();
    assert!(err.contains(&phantom.to_string()), "{err}");
}

#[test]
fn id_set_codec_round_trips_and_rejects_unsorted_or_repeated_ids() {
    use super::snapshot::{get_id_set, put_id_set};
    use hws_sim::snap::{SnapReader, SnapWriter};
    use hws_workload::JobId;
    let decode = |ids: &[u64]| {
        let mut w = SnapWriter::with_capacity(64);
        w.put_len(ids.len());
        for &id in ids {
            w.put_u64(id);
        }
        let bytes = w.into_bytes();
        get_id_set(&mut SnapReader::new(&bytes)).map_err(|e| e.to_string())
    };
    let set: std::collections::BTreeSet<JobId> = [1, 5, 9].map(JobId).into();
    let mut w = SnapWriter::with_capacity(64);
    put_id_set(&mut w, &set);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    assert_eq!(get_id_set(&mut r), Ok(set));
    assert!(r.expect_end().is_ok());
    for bad in [&[1, 5, 3][..], &[2, 4, 4]] {
        let err = decode(bad).expect_err("an unsorted or repeated id must not decode");
        assert!(err.contains("not strictly ascending"), "{bad:?}: {err}");
    }
}

#[test]
fn kill_fires_when_work_exceeds_estimate() {
    let mut spec = JobSpecBuilder::rigid(0).size(10).work(d(5_000)).build();
    spec.estimate = d(1_000); // bypass builder guard: user underestimated
    let tr = trace(100, vec![spec]);
    let out = run(SimConfig::baseline(), &tr);
    assert_eq!(out.metrics.killed_jobs, 1);
    assert_eq!(out.metrics.completed_jobs, 0);
}

use super::core::{Scratch, SCRATCH_RETAIN};

#[test]
fn scratch_stow_caps_retained_capacity() {
    // Ordinary buffers are recycled with their capacity intact…
    let mut slot: Vec<u64> = Vec::new();
    Scratch::stow(&mut slot, Vec::with_capacity(64));
    assert!(slot.capacity() >= 64, "small buffer capacity not recycled");
    // …but an oversized buffer is trimmed on the way back: a one-off
    // queue spike must not pin its high-water allocation forever.
    let mut huge: Vec<u64> = Vec::with_capacity(10 * SCRATCH_RETAIN);
    huge.extend(0..(10 * SCRATCH_RETAIN) as u64);
    Scratch::stow(&mut slot, huge);
    assert!(slot.is_empty(), "stowed buffer not cleared");
    assert!(
        slot.capacity() <= SCRATCH_RETAIN,
        "oversized scratch kept {} entries of capacity",
        slot.capacity()
    );
}

#[test]
fn scratch_capacity_released_after_queue_spike() {
    // A simultaneous-arrival spike 3× the retention cap: the first pass
    // copies thousands of queue keys into scratch, every later pass only
    // a shrinking tail. After the run the pass scratch must have dropped
    // back to the cap — the spike's allocation is not carried through the
    // rest of a long replay.
    const SPIKE: usize = 3 * SCRATCH_RETAIN;
    let jobs: Vec<JobSpec> = (0..SPIKE as u64)
        .map(|i| {
            JobSpecBuilder::rigid(i)
                .size(4)
                .work(d(600))
                .estimate(d(1_200))
                .build()
        })
        .collect();
    let tr = trace(64, jobs);
    let cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
    let mut svc = SchedulerService::from_core(SimCore::new(cfg, tr.system_size), ());
    for spec in tr.jobs.iter().cloned() {
        svc.inject(spec);
    }
    svc.step_until(SimTime::MAX);
    let core = svc.core_mut();
    let metrics = Metrics::compute(&core.rec, core.cfg.instant_threshold);
    assert_eq!(
        metrics.completed_jobs, SPIKE,
        "spike trace did not complete"
    );
    assert!(
        core.scratch.keys.capacity() <= SCRATCH_RETAIN,
        "pass scratch still holds spike capacity ({} keys)",
        core.scratch.keys.capacity()
    );
    assert!(
        core.scratch.keys.capacity() > 0,
        "scratch was not recycled at all"
    );
}
