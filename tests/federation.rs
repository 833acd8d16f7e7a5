//! Federated-dispatch safety nets.
//!
//! * A **regression test pinning 1-shard bitwise parity**: a federation of
//!   one shard must reproduce the single-cluster run exactly — per-seed
//!   metrics *and* engine counters — for every mechanism. This is the
//!   oracle that keeps the `ClusterBackend` refactor honest.
//! * A **property test** over arbitrary feasible workloads and shard
//!   splits: a federation with the same total node count and a
//!   deterministic placement never produces a per-job outcome absent from
//!   the single-cluster run's outcome set (every job still reaches a
//!   terminal state, and no new failure modes — kills — appear out of
//!   nowhere).

use hws_sim::{SimDuration as D, SimTime as T};
use hybrid_workload_sched::prelude::*;
use proptest::prelude::*;

#[test]
fn one_shard_federation_is_bitwise_identical_to_single_cluster() {
    let tcfg = TraceConfig::small();
    for seed in [0u64, 7] {
        let trace = tcfg.generate(seed);
        for m in Mechanism::ALL_SIX {
            let plain = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
            let fed_cfg = SimConfig::with_mechanism(m)
                .federated(FederationConfig::even_split(1, trace.system_size));
            let fed = Simulator::run_trace(&fed_cfg, &trace);
            assert_eq!(
                fed.metrics,
                plain.metrics,
                "{} seed {seed}: 1-shard federation metrics diverged",
                m.name()
            );
            assert_eq!(
                fed.engine,
                plain.engine,
                "{} seed {seed}: 1-shard federation engine stats diverged",
                m.name()
            );
            let shards = fed.shards.expect("federated runs report shards");
            assert_eq!(shards.len(), 1);
            assert!(plain.shards.is_none());
        }
    }
}

#[test]
fn one_shard_federation_matches_on_the_swf_replay_baseline_shape() {
    // Same oracle on a paranoid run: the federation's per-event invariant
    // checks (shard conservation, home consistency) must also hold.
    let trace = TraceConfig::tiny().generate(3);
    let m = Mechanism::CUP_SPAA;
    let plain = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
    let fed_cfg = SimConfig::with_mechanism(m)
        .federated(FederationConfig::even_split(1, trace.system_size))
        .paranoid();
    let fed = Simulator::run_trace(&fed_cfg, &trace);
    assert_eq!(fed.metrics, plain.metrics);
}

#[test]
fn class_affinity_and_least_loaded_runs_complete_and_conserve_shards() {
    let trace = TraceConfig::tiny().generate(1);
    // tiny() is a 1,000-node system; all generated sizes fit a 250-node
    // shard only sometimes — filter instead of assuming.
    let max_size = trace.jobs.iter().map(|j| j.size).max().unwrap();
    let shards = if max_size <= 250 { 4 } else { 2 };
    for fed in [
        FederationConfig::even_split(shards, trace.system_size).with_policy(LeastLoaded),
        FederationConfig::even_split(shards, trace.system_size).with_policy(ClassAffinity),
    ] {
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA)
            .federated(fed)
            .paranoid();
        let out = Simulator::run_trace(&cfg, &trace);
        let report = out.shards.expect("federated run");
        assert_eq!(report.len(), shards);
        let totals = ShardTotals::of(&report);
        assert_eq!(totals.nodes, trace.system_size);
        assert!(totals.occupied_node_seconds > 0);
        assert!(totals.jobs_started > 0);
        // No shard can be occupied beyond its capacity over the span.
        let span_secs = (out.metrics.span_hours * 3_600.0).round() as u64;
        for s in &report {
            assert!(s.occupancy(span_secs) <= 1.0 + 1e-9, "{s:?} over capacity");
        }
    }
}

#[test]
fn oversized_jobs_are_rejected_at_submit_not_starved() {
    // 64-node system split 2×32: a 40-node job can never run on any shard
    // and must terminate as killed instead of wedging the queue forever.
    let jobs = vec![
        JobSpecBuilder::rigid(0)
            .size(40)
            .work(D::from_secs(600))
            .build(),
        JobSpecBuilder::rigid(1)
            .size(8)
            .work(D::from_secs(600))
            .build(),
    ];
    let trace = Trace::new(64, D::from_days(1), jobs);
    let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA)
        .federated(FederationConfig::even_split(2, 64));
    let out = Simulator::run_trace(&cfg, &trace);
    assert_eq!(out.metrics.killed_jobs, 1);
    assert_eq!(out.metrics.completed_jobs, 1);
    // On the single cluster the same job fits and everything completes.
    let plain = Simulator::run_trace(&SimConfig::with_mechanism(Mechanism::CUA_SPAA), &trace);
    assert_eq!(plain.metrics.killed_jobs, 0);
    assert_eq!(plain.metrics.completed_jobs, 2);
}

// ---------------------------------------------------------------------------
// Property: federated outcomes ⊆ single-cluster outcome set
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ArbJob {
    kind: u8,
    submit: u64,
    size: u32,
    work: u64,
    notice_lead: Option<u64>,
    site_hint: Option<u32>,
}

fn arb_job() -> impl Strategy<Value = ArbJob> {
    (
        0..3u8,
        0..100_000u64,
        1..16u32, // ≤ the smallest shard of a 4-way split of 64 nodes
        60..8_000u64,
        proptest::option::of(900..1_800u64),
        proptest::option::of(0..6u32),
    )
        .prop_map(
            |(kind, submit, size, work, notice_lead, site_hint)| ArbJob {
                kind,
                submit,
                size,
                work,
                notice_lead,
                site_hint,
            },
        )
}

fn build_trace(jobs: &[ArbJob], system: u32) -> Trace {
    let specs: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let id = i as u64;
            let submit = T::from_secs(a.submit);
            let work = D::from_secs(a.work);
            let mut b = match a.kind {
                0 => JobSpecBuilder::rigid(id),
                1 => JobSpecBuilder::malleable(id).min_size(1),
                _ => JobSpecBuilder::on_demand(id),
            }
            .submit_at(submit)
            .size(a.size)
            .work(work)
            .estimate(work + D::from_secs(1_800));
            if a.kind == 2 {
                if let Some(lead) = a.notice_lead {
                    let lead = D::from_secs(lead);
                    b = b.notice(submit.saturating_sub(lead), submit);
                }
            }
            if let Some(h) = a.site_hint {
                b = b.site_hint(h);
            }
            b.build()
        })
        .collect();
    Trace::new(system, D::from_days(30), specs)
}

/// A job's terminal outcome, as observable from the §IV-D metrics: either
/// it completed or it was killed. (The simulator runs to quiescence, so a
/// job that did neither would show up as `completed + killed < jobs`.)
fn outcome_sets(m: &Metrics, jobs: usize) -> (usize, usize, usize) {
    (m.completed_jobs, m.killed_jobs, jobs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any federation of 2/4 same-total shards with deterministic
    /// placement yields only job outcomes the single-cluster run could
    /// produce: with feasible sizes and honest estimates the single run
    /// completes every job, so the federated run must too — no stuck jobs,
    /// no spurious kills, on every mechanism family.
    #[test]
    fn federated_outcomes_subset_of_single_cluster(
        jobs in proptest::collection::vec(arb_job(), 1..24),
        n_shards_sel in 0..2usize,
    ) {
        const SYSTEM: u32 = 64;
        let n_shards = [2, 4][n_shards_sel];
        let trace = build_trace(&jobs, SYSTEM);
        prop_assert!(trace.validate().is_ok());
        for m in [Mechanism::N_PAA, Mechanism::CUA_SPAA, Mechanism::CUP_PAA] {
            let single = Simulator::run_trace(&SimConfig::with_mechanism(m), &trace);
            let (s_done, s_killed, n) = outcome_sets(&single.metrics, trace.len());
            prop_assert_eq!(s_done + s_killed, n, "single run left jobs unfinished");
            prop_assert_eq!(s_killed, 0, "honest estimates: nothing may be killed");

            let fed_cfg = SimConfig::with_mechanism(m)
                .federated(FederationConfig::even_split(n_shards, SYSTEM))
                .paranoid();
            let fed = Simulator::run_trace(&fed_cfg, &trace);
            let (f_done, f_killed, _) = outcome_sets(&fed.metrics, trace.len());
            // Outcome-set containment: "killed" never appears in the
            // single-cluster outcome set here, so it must not appear in
            // the federated one; every job still reaches a terminal state.
            prop_assert_eq!(
                f_killed, 0,
                "{} on {} shards produced kills absent from the single-cluster outcome set",
                m.name(), n_shards
            );
            prop_assert_eq!(
                f_done, n,
                "{} on {} shards left jobs unfinished", m.name(), n_shards
            );
            // Shard accounting stays conservative.
            let report = fed.shards.expect("federated run");
            let totals = ShardTotals::of(&report);
            prop_assert_eq!(totals.nodes, SYSTEM);
        }
    }
}
