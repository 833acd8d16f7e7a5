//! Incremental waiting-queue contracts (DESIGN.md §15):
//!
//! 1. **Index matches the re-sort oracle** — the maintained
//!    `BTreeSet<(QueueKey, JobId)>` pass order equals a from-scratch
//!    recompute-every-key-and-sort after *every* event. `paranoid_checks`
//!    wires that oracle (`check_waitq_invariant`) into the per-event
//!    validation hook, so simply completing a paranoid run asserts the
//!    property at every step. Covered across all six mechanisms, every
//!    queue policy (including the time-varying WFP3, whose keys age with
//!    the queue epoch), and a capability-aware composition.
//! 2. **Coalescing is pure dedup** — folding the same tick's redundant
//!    pass requests into one pass changes nothing observable: a run with
//!    the hidden `pass_per_event` oracle (one pass per request, as the
//!    historical driver did) is bitwise identical in metrics, engine
//!    stats, class breakdowns, and shard reports.

use hws_core::{CapabilityAware, Mechanism, PolicyKind, SimConfig, Simulator};
use hws_workload::TraceConfig;
use proptest::prelude::*;

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fcfs,
    PolicyKind::Sjf,
    PolicyKind::Ljf,
    PolicyKind::Wfp3,
];

/// Every configuration the queue index must hold up under: the six paper
/// mechanisms at the default policy, then every policy (static and aging)
/// on the richest mechanism both plain and capability-aware.
fn configs() -> Vec<(String, SimConfig)> {
    let mut cfgs: Vec<(String, SimConfig)> = Vec::new();
    for m in Mechanism::ALL_SIX {
        let c = SimConfig::with_mechanism(m);
        cfgs.push((m.name().into(), c));
    }
    for p in POLICIES {
        let mut c = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
        c.policy = p;
        cfgs.push((format!("CUP&SPAA/{}", p.name()), c));

        let mut cap = SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUP_SPAA));
        cap.policy = p;
        cfgs.push((format!("capability/{}", p.name()), cap));
    }
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: incremental index vs. full re-sort, as a per-event
    /// oracle rather than a sampled end-state check — `paranoid_checks`
    /// re-keys every waiting job from scratch after each event and
    /// asserts the maintained index matches, so any missed or stale
    /// transition (a flip of `od_front`, an aging epoch not refreshed, a
    /// start that left its entry behind) aborts the run at the exact
    /// event that corrupted the order.
    #[test]
    fn index_matches_resort_oracle_every_event(seed in 0..1_000u64, jobs in 40..120u32) {
        let trace = TraceConfig::tiny()
            .with_jobs(jobs)
            .with_capability_frac(0.2)
            .generate(seed);
        for (label, mut cfg) in configs() {
            cfg.paranoid_checks = true;
            let out = Simulator::run_trace(&cfg, &trace);
            prop_assert!(
                out.metrics.completed_jobs + out.metrics.killed_jobs > 0,
                "paranoid run did no work for {label}"
            );
        }
    }

    /// Satellite: same-tick pass coalescing is bitwise-invisible. The
    /// `pass_per_event` oracle re-enables the historical
    /// one-pass-per-request behaviour; every outcome field must match the
    /// coalesced run exactly, for every mechanism, policy, and the
    /// capability composition.
    #[test]
    fn coalescing_is_bitwise_equivalent(seed in 0..1_000u64, jobs in 40..120u32) {
        let trace = TraceConfig::tiny()
            .with_jobs(jobs)
            .with_capability_frac(0.2)
            .generate(seed);
        for (label, cfg) in configs() {
            let coalesced = Simulator::run_trace(&cfg, &trace);
            let mut eager = cfg.clone();
            eager.pass_per_event = true;
            let per_event = Simulator::run_trace(&eager, &trace);
            // Every *scheduling* observable is bitwise identical. The raw
            // engine event counters are exempt by construction: coalescing
            // exists precisely to deliver fewer (redundant) pass events —
            // but it must never change when the run ends, nor save fewer
            // events than it claims.
            assert_eq!(coalesced.metrics, per_event.metrics, "metrics diverge for {label}");
            assert_eq!(coalesced.classes, per_event.classes, "classes diverge for {label}");
            assert_eq!(coalesced.shards, per_event.shards, "shards diverge for {label}");
            assert_eq!(coalesced.admitted_jobs, per_event.admitted_jobs, "admissions diverge for {label}");
            assert_eq!(
                coalesced.engine.end_time, per_event.engine.end_time,
                "end instants diverge for {label}"
            );
            assert_eq!(
                coalesced.engine.cancelled, per_event.engine.cancelled,
                "cancellations diverge for {label}"
            );
            prop_assert!(
                coalesced.engine.delivered <= per_event.engine.delivered,
                "coalescing delivered MORE events for {label}"
            );
        }
    }
}
