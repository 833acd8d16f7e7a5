//! Cross-crate integration tests: generator → scheduler → metrics, for
//! every mechanism, with the cluster's conservation invariants checked
//! after every event (paranoid mode).

use hybrid_workload_sched::prelude::*;

fn small_trace(seed: u64) -> Trace {
    TraceConfig::small().generate(seed)
}

#[test]
fn every_mechanism_completes_every_job() {
    let trace = small_trace(1);
    for mechanism in Mechanism::ALL_SIX {
        let cfg = SimConfig::with_mechanism(mechanism).paranoid();
        let out = Simulator::run_trace(&cfg, &trace);
        assert_eq!(
            out.metrics.completed_jobs,
            trace.len(),
            "{mechanism}: every job must eventually complete"
        );
        assert_eq!(out.metrics.killed_jobs, 0, "{mechanism}");
        assert!(out.metrics.utilization <= 1.0 + 1e-9, "{mechanism}");
        assert!(
            out.metrics.utilization <= out.metrics.raw_occupancy + 1e-9,
            "{mechanism}"
        );
    }
}

#[test]
fn baseline_never_preempts() {
    let trace = small_trace(2);
    let out = Simulator::run_trace(&SimConfig::baseline().paranoid(), &trace);
    assert_eq!(out.metrics.rigid.preemption_ratio, 0.0);
    assert_eq!(out.metrics.malleable.preemption_ratio, 0.0);
    // No preemption → no waste → utilization equals raw occupancy.
    assert!((out.metrics.utilization - out.metrics.raw_occupancy).abs() < 1e-12);
}

#[test]
fn hybrid_mechanisms_far_exceed_baseline_instant_start() {
    let trace = small_trace(3);
    let base = Simulator::run_trace(&SimConfig::baseline(), &trace).metrics;
    for mechanism in Mechanism::ALL_SIX {
        let m = Simulator::run_trace(&SimConfig::with_mechanism(mechanism), &trace).metrics;
        assert!(
            m.instant_start_rate >= base.instant_start_rate,
            "{mechanism}: {} < baseline {}",
            m.instant_start_rate,
            base.instant_start_rate
        );
        assert!(
            m.instant_start_rate > 0.7,
            "{mechanism}: {}",
            m.instant_start_rate
        );
    }
}

#[test]
fn runs_are_deterministic_across_repeats() {
    let trace = small_trace(4);
    for mechanism in [Mechanism::CUA_SPAA, Mechanism::CUP_PAA, Mechanism::Baseline] {
        let cfg = SimConfig::with_mechanism(mechanism);
        let a = Simulator::run_trace(&cfg, &trace);
        let b = Simulator::run_trace(&cfg, &trace);
        assert_eq!(a.metrics, b.metrics, "{mechanism}");
        assert_eq!(a.engine, b.engine, "{mechanism}");
    }
}

#[test]
fn different_seeds_produce_different_workloads() {
    let a = small_trace(10);
    let b = small_trace(11);
    assert_ne!(a, b);
    let cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
    let ma = Simulator::run_trace(&cfg, &a).metrics;
    let mb = Simulator::run_trace(&cfg, &b).metrics;
    assert_ne!(ma.avg_turnaround_h, mb.avg_turnaround_h);
}

#[test]
fn disabling_checkpoints_increases_preemption_waste() {
    // Without checkpoints, every rigid preemption loses the entire run.
    let trace = small_trace(5);
    let with = SimConfig::with_mechanism(Mechanism::N_PAA);
    let without = {
        let mut c = with.clone();
        c.ckpt = CkptConfig::disabled();
        c
    };
    let m_with = Simulator::run_trace(&with, &trace).metrics;
    let m_without = Simulator::run_trace(&without, &trace).metrics;
    let waste = |m: &Metrics| m.raw_occupancy - m.utilization;
    // Only meaningful when preemptions actually happened.
    if m_with.rigid.preemption_ratio > 0.0 && m_without.rigid.preemption_ratio > 0.0 {
        assert!(
            waste(&m_without) >= waste(&m_with) - 1e-3,
            "no-ckpt waste {} vs ckpt waste {}",
            waste(&m_without),
            waste(&m_with)
        );
    }
}

#[test]
fn workload_mixes_shift_od_instant_profile() {
    // W2 (accurate notices) must give CUP at least as good an instant rate
    // as W1 (mostly unannounced) — the CUP preparation needs notices.
    let cfg_w1 = TraceConfig::small().with_notice_mix(NoticeMix::W1);
    let cfg_w2 = TraceConfig::small().with_notice_mix(NoticeMix::W2);
    let sim = SimConfig::with_mechanism(Mechanism::CUP_PAA);
    let mut w1 = MetricsAvg::new();
    let mut w2 = MetricsAvg::new();
    for seed in 0..4 {
        w1.push(&Simulator::run_trace(&sim, &cfg_w1.generate(seed)).metrics);
        w2.push(&Simulator::run_trace(&sim, &cfg_w2.generate(seed)).metrics);
    }
    // Both should be high; the check is that notices are not *hurting*.
    assert!(w2.mean().instant_start_rate > 0.8);
    assert!(w1.mean().instant_start_rate > 0.8);
}

#[test]
fn trace_csv_round_trip_preserves_simulation() {
    let trace = small_trace(6);
    let reparsed = Trace::from_csv(&trace.to_csv()).expect("parse");
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    let m1 = Simulator::run_trace(&cfg, &trace).metrics;
    let m2 = Simulator::run_trace(&cfg, &reparsed).metrics;
    assert_eq!(m1.completed_jobs, m2.completed_jobs);
    assert!((m1.avg_turnaround_h - m2.avg_turnaround_h).abs() < 1e-12);
}

#[test]
fn od_front_priority_over_later_batch_jobs() {
    // An on-demand job that cannot start instantly must still start before
    // batch jobs submitted after it.
    use hws_sim::{SimDuration as D, SimTime as T};
    let jobs = vec![
        // Fill the machine with an un-preemptable on-demand job.
        JobSpecBuilder::on_demand(0)
            .submit_at(T::from_secs(0))
            .size(100)
            .work(D::from_secs(5_000))
            .estimate(D::from_secs(6_000))
            .build(),
        // Second OD job arrives; nothing preemptable → waits at the front.
        JobSpecBuilder::on_demand(1)
            .submit_at(T::from_secs(100))
            .size(100)
            .work(D::from_secs(1_000))
            .estimate(D::from_secs(2_000))
            .build(),
        // Batch job submitted later must not overtake it.
        JobSpecBuilder::rigid(2)
            .submit_at(T::from_secs(200))
            .size(100)
            .work(D::from_secs(1_000))
            .estimate(D::from_secs(1_000))
            .build(),
    ];
    let trace = Trace::new(100, D::from_days(1), jobs);
    let out = Simulator::run_trace(
        &SimConfig::with_mechanism(Mechanism::N_PAA).paranoid(),
        &trace,
    );
    assert_eq!(out.metrics.completed_jobs, 3);
    // OD job 1 runs 5000..6000, rigid job 2 runs 6000..7000.
    let od_tat = out.metrics.on_demand.avg_turnaround_h * 3_600.0;
    // Jobs 0 (5000 s) and 1 (6000-100+... ) → mean ≈ (5000 + 5900) / 2.
    assert!((od_tat - 5_450.0).abs() < 5.0, "od tat = {od_tat}");
}
