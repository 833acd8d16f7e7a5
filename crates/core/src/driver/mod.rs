//! The trace-replay simulator: CQSim-style event loop binding the workload,
//! the cluster, the queue policy, EASY backfilling, and the six hybrid
//! mechanisms together.
//!
//! ## Layer map (see DESIGN.md §1–§3 for the full architecture)
//!
//! * `events` — the [`Ev`] enum and the epoch-guarded dispatch loop.
//! * `alloc` — claims, the `offer_free_nodes` node-routing discipline,
//!   lease settling, and on-demand notice/arrival orchestration.
//! * `preempt` — preempt/shrink/expand/drain/checkpoint mechanics.
//! * `pass` — the FCFS + EASY scheduling pass, shadow computation, and
//!   backfill sizing.
//! * `core` — the slimmed [`SimCore`] state, estimates, run lifecycle —
//!   generic over [`hws_cluster::ClusterBackend`], so the same driver
//!   schedules a single [`hws_cluster::Cluster`] or a multi-shard
//!   [`hws_cluster::Federation`].
//! * [`hooks`] — the [`MechanismHooks`] extension point; the six paper
//!   mechanisms are `{N, CUA, CUP} × {PAA, SPAA}` compositions, and new
//!   mechanisms register via [`SimConfig::with_hooks`] without touching
//!   driver internals.

mod alloc;
mod core;
pub mod environment;
mod events;
pub mod hooks;
mod outage;
mod pass;
mod preempt;
mod service;
mod snapshot;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_hooks;
mod waitq;

pub use self::core::SimCore;
pub use environment::{
    apply_knobs, config_for_knobs, Action, EnvSpec, Environment, EpisodeReport, Observation,
    TunableHooks,
};
pub use events::Ev;
pub use hooks::{
    standard_composition, AdmissionView, ArrivalPlan, ArrivalPolicy, ArrivalView, CapabilityAware,
    CollectUntilArrival, CollectUntilPredicted, Composed, HooksHandle, IgnoreNotices,
    MechanismHooks, NoticeDecision, NoticePolicy, NoticeView, PredictionView, PreemptAtArrival,
    ShrinkThenPreempt,
};
pub use service::{replay_submission_log, CancelOutcome, JobStatus, SchedulerService, SubmitError};

use crate::config::{Mechanism, SimConfig};
use crate::timeline::Timeline;
use hws_cluster::{Federation, SnapshotBackend};
use hws_metrics::{ClassBreakdown, LatencyHistogram, Metrics, OutageReport, Recorder, ShardStat};
use hws_sim::EngineStats;
use hws_workload::{JobSource, MaterializedSource, Trace, TraceConfig};

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    pub metrics: Metrics,
    pub engine: EngineStats,
    pub mechanism: Mechanism,
    /// Present when `SimConfig::record_timeline` was set.
    pub timeline: Option<Timeline>,
    /// Per-shard breakdown, present for federated runs only. Deliberately
    /// *outside* [`Metrics`] so the 1-shard-federation-vs-single-cluster
    /// metric comparison stays bitwise meaningful.
    pub shards: Option<Vec<ShardStat>>,
    /// Capability/capacity breakdown, present only when the trace carried
    /// capability-class jobs. Outside [`Metrics`] for the same reason as
    /// `shards`: zero-capability runs must compare bitwise against the
    /// two-class path.
    pub classes: Option<ClassBreakdown>,
    /// Outage accounting, present only when schedule events actually
    /// applied — outside [`Metrics`] (like `shards`/`classes`) so runs
    /// with no or empty schedules compare bitwise against outage-free
    /// builds.
    pub outages: Option<OutageReport>,
    /// High-water mark of co-resident jobs in the driver's arena — the
    /// O(active) memory claim, measured. For materialized replays this is
    /// still the *live window*, not the trace length: arrivals are
    /// injected lazily and retired jobs leave the arena.
    pub peak_resident_jobs: usize,
    /// Total jobs admitted over the run (equals the trace length).
    pub admitted_jobs: u64,
    /// Wall-clock cost of every notice and on-demand-arrival decision
    /// (Observation 10); outside [`Metrics`] because wall-clock time is
    /// not simulated state. A restored service starts an empty histogram.
    pub decision_latency: LatencyHistogram,
}

/// Public façade: configure once, replay traces.
pub struct Simulator;

impl Simulator {
    /// Replay `trace` under `cfg` and report the §IV-D metrics. Runs on a
    /// single cluster, or — when `cfg.federation` is set — on a
    /// federation of shards at the same total capacity.
    pub fn run_trace(cfg: &SimConfig, trace: &Trace) -> SimOutcome {
        Self::run(cfg, MaterializedSource::new(trace), false)
    }

    /// Replay a streaming [`JobSource`] under `cfg`. This is the O(active
    /// jobs) entry point: arrival events are pulled from the source as
    /// virtual time advances, per-job records fold into the metrics
    /// accumulators as jobs retire, and resident memory tracks the live
    /// window of the workload rather than its length.
    ///
    /// Produces **bitwise-identical** metrics to [`Simulator::run_trace`]
    /// over the materialized equivalent of the same source, on a single
    /// cluster or a federation. A federation's sticky `home` pins and
    /// per-job routing metadata still keep one entry per job seen, so a
    /// federated replay's memory grows with the trace, not the live
    /// window.
    pub fn run_source<S: JobSource>(cfg: &SimConfig, source: S) -> SimOutcome {
        Self::run(cfg, source, true)
    }

    /// The one run loop: batch replay is a client of the service pump.
    /// With `L = source.max_notice_lead()`, each job is injected once
    /// every event earlier than `submit - L` has been delivered (see
    /// DESIGN.md §12). `streaming` folds retired jobs into the metrics
    /// accumulators instead of retaining their records.
    fn run<S: JobSource>(cfg: &SimConfig, source: S, streaming: bool) -> SimOutcome {
        let n = source.system_size();
        match &cfg.federation {
            None => Self::replay(SimCore::new(cfg.clone(), n), (), source, streaming),
            Some(fed) => {
                let core = SimCore::with_backend(cfg.clone(), Federation::new(fed, n));
                Self::replay(core, fed.clone(), source, streaming)
            }
        }
    }

    fn replay<B: SnapshotBackend, S: JobSource>(
        mut core: SimCore<B>,
        ctx: B::Ctx,
        mut source: S,
        streaming: bool,
    ) -> SimOutcome
    where
        B::Ctx: Clone,
    {
        if streaming {
            core.rec = Recorder::streaming(core.cluster.total_nodes(), core.cfg.instant_threshold);
        }
        let lead = source.max_notice_lead();
        let mut svc = SchedulerService::from_core(core, ctx);
        while let Some(spec) = source.next_job() {
            svc.step_before(spec.submit.saturating_sub(lead));
            svc.inject(spec);
        }
        svc.into_outcome()
    }

    /// Generate one trace per seed and replay each under `cfg`, fanning the
    /// runs across CPU cores with scoped threads. Returns one outcome per
    /// seed, in seed order.
    ///
    /// Every run is an independent simulation over its own trace, so the
    /// per-seed metrics are **bitwise identical** to sequential
    /// [`Simulator::run_trace`] calls (only the wall-clock
    /// [`SimOutcome::decision_latency`] side report differs). The
    /// figure/table binaries in `hws-bench` route through this entry
    /// point.
    pub fn run_sweep(cfg: &SimConfig, trace_cfg: &TraceConfig, seeds: &[u64]) -> Vec<SimOutcome> {
        Simulator::run_sweep_with(cfg, seeds, |seed| trace_cfg.generate(seed))
    }

    /// Like [`Simulator::run_sweep`], but over an arbitrary trace factory:
    /// `make_trace(seed)` is called once per seed from the worker threads.
    /// This is how trace sources other than the synthetic generator — SWF
    /// replays, recorded CSV traces — fan across cores with the same
    /// bitwise-deterministic per-seed guarantee (the factory must be a pure
    /// function of the seed).
    pub fn run_sweep_with<F>(cfg: &SimConfig, seeds: &[u64], make_trace: F) -> Vec<SimOutcome>
    where
        F: Fn(u64) -> Trace + Sync,
    {
        hws_sim::par_map(seeds.len(), |i| {
            let trace = make_trace(seeds[i]);
            Simulator::run_trace(cfg, &trace)
        })
    }
}
