//! Per-layer timing from outside the program.
//!
//! Three adaptors wrap the crates' public seams: [`TimedCore`] is the
//! engine's `Simulation` and times `SimCore::handle` by event kind,
//! [`TimedSource`] times `JobSource::next_job`, and [`TimedHooks`] times the
//! mechanism hooks through `SimConfig::hooks` (leaving `cfg.mechanism` as
//! it was). [`replay`] drives them with a copy of the arrival pump in
//! `Simulator::run_core`, so every traced run is checked bitwise against
//! its untraced replay before its numbers are used.

use hws_core::driver::{Ev, SimCore};
use hws_core::mechanism::CupPlan;
use hws_core::{
    standard_composition, AdmissionView, ArrivalPlan, ArrivalView, HooksHandle, MechanismHooks,
    NoticeDecision, NoticeView, PredictionView, SimConfig,
};
use hws_metrics::{Metrics, Recorder};
use hws_sim::{Engine, EngineStats, EventQueue, SimDuration, SimTime, Simulation};
use hws_workload::{JobSource, JobSpec, MaterializedSource, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed layers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    NextJob,
    Queue,
    Admit,
    Pass,
    Arrival,
    Release,
    MechanismEvents,
    OnArrival,
    OnNotice,
    PlanForPrediction,
    MetricsCompute,
    StepBefore,
    Submit,
    Query,
    Snapshot,
    Restore,
    WhatIfDrain,
}

impl Layer {
    pub const ALL: [Layer; 17] = [
        Layer::NextJob,
        Layer::Queue,
        Layer::Admit,
        Layer::Pass,
        Layer::Arrival,
        Layer::Release,
        Layer::MechanismEvents,
        Layer::OnArrival,
        Layer::OnNotice,
        Layer::PlanForPrediction,
        Layer::MetricsCompute,
        Layer::StepBefore,
        Layer::Submit,
        Layer::Query,
        Layer::Snapshot,
        Layer::Restore,
        Layer::WhatIfDrain,
    ];

    /// The per-layer metric name (see `report::PER_LAYER`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::NextJob => "workload.next_job",
            Layer::Queue => "sim.queue",
            Layer::Admit => "core.admit",
            Layer::Pass => "core.pass",
            Layer::Arrival => "core.arrival",
            Layer::Release => "core.release",
            Layer::MechanismEvents => "core.mechanism_events",
            Layer::OnArrival => "core.hooks.on_arrival",
            Layer::OnNotice => "core.hooks.on_notice",
            Layer::PlanForPrediction => "core.hooks.plan_for_prediction",
            Layer::MetricsCompute => "metrics.compute",
            Layer::StepBefore => "service.step_before",
            Layer::Submit => "service.submit",
            Layer::Query => "service.query",
            Layer::Snapshot => "service.snapshot",
            Layer::Restore => "service.restore",
            Layer::WhatIfDrain => "service.what_if_drain",
        }
    }

    /// The layer an event's handler belongs to.
    fn of_event(ev: &Ev) -> Layer {
        match ev {
            Ev::Pass => Layer::Pass,
            Ev::Submit(_) | Ev::Notice(_) => Layer::Arrival,
            Ev::Finish { .. } | Ev::Kill { .. } => Layer::Release,
            Ev::PlannedPreempt { .. }
            | Ev::DrainEnd { .. }
            | Ev::ReservationTimeout(_)
            | Ev::Fail { .. }
            | Ev::Outage { .. } => Layer::MechanismEvents,
        }
    }
}

/// Self time (ns) and call count per layer.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Admission-hook calls: about one per queue entry a pass visits.
    pub admit_hook_calls: u64,
}

impl Spans {
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.add_calls(layer, ns, 1);
    }

    pub fn add_calls(&mut self, layer: Layer, ns: u64, calls: u64) {
        self.ns[layer as usize] += ns;
        self.calls[layer as usize] += calls;
    }

    pub fn merge(&mut self, other: &Spans) {
        for i in 0..self.ns.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        self.admit_hook_calls += other.admit_hook_calls;
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Hook timings shared between the hooks (which the driver holds behind an
/// `Arc`) and the traced loop. Statistics only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct HookClock {
    on_arrival: [AtomicU64; 2],
    on_notice: [AtomicU64; 2],
    plan: [AtomicU64; 2],
    admit_calls: AtomicU64,
}

impl HookClock {
    fn time<T>(slot: &[AtomicU64; 2], f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        slot[0].fetch_add(ns_since(t), Ordering::Relaxed);
        slot[1].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Nanoseconds spent in timed hooks so far.
    fn total_ns(&self) -> u64 {
        [&self.on_arrival, &self.on_notice, &self.plan]
            .iter()
            .map(|s| s[0].load(Ordering::Relaxed))
            .sum()
    }

    /// Run `f` and add its self time to `layer`: its wall time less the
    /// hook time nested inside it, which the hooks' own layers report.
    pub fn self_time<T>(&self, spans: &mut Spans, layer: Layer, f: impl FnOnce() -> T) -> T {
        let hooks_before = self.total_ns();
        let t = Instant::now();
        let out = f();
        let ns = ns_since(t);
        spans.add(layer, ns.saturating_sub(self.total_ns() - hooks_before));
        out
    }

    /// Move the hook timings and counts into `spans`.
    pub fn drain_into(&self, spans: &mut Spans) {
        spans.admit_hook_calls += self.admit_calls.swap(0, Ordering::Relaxed);
        for (slot, layer) in [
            (&self.on_arrival, Layer::OnArrival),
            (&self.on_notice, Layer::OnNotice),
            (&self.plan, Layer::PlanForPrediction),
        ] {
            spans.add_calls(
                layer,
                slot[0].swap(0, Ordering::Relaxed),
                slot[1].swap(0, Ordering::Relaxed),
            );
        }
    }
}

/// Mechanism hooks that forward to `inner` and time each decision. The
/// admission hook runs once per visited queue entry, so it is counted but
/// never timed.
#[derive(Debug)]
pub struct TimedHooks {
    inner: Arc<dyn MechanismHooks>,
    clock: Arc<HookClock>,
}

impl MechanismHooks for TimedHooks {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn uses_notices(&self) -> bool {
        self.inner.uses_notices()
    }
    fn on_notice(&self, view: &NoticeView) -> NoticeDecision {
        HookClock::time(&self.clock.on_notice, || self.inner.on_notice(view))
    }
    fn plans_predictions(&self) -> bool {
        self.inner.plans_predictions()
    }
    fn plan_for_prediction(&self, view: &PredictionView<'_>) -> CupPlan {
        HookClock::time(&self.clock.plan, || self.inner.plan_for_prediction(view))
    }
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        HookClock::time(&self.clock.on_arrival, || self.inner.on_arrival(view))
    }
    fn admit(&self, view: &AdmissionView) -> bool {
        self.clock.admit_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.admit(view)
    }
}

/// `cfg` with its mechanism's standard hooks wrapped in [`TimedHooks`].
pub fn timed_config(cfg: &SimConfig, clock: &Arc<HookClock>) -> SimConfig {
    let inner = standard_composition(cfg.mechanism, cfg.victim_order, cfg.shrink_strategy);
    let mut timed = cfg.clone();
    timed.hooks = Some(HooksHandle(Arc::new(TimedHooks {
        inner,
        clock: Arc::clone(clock),
    })));
    timed
}

/// A job source whose `next_job` is timed.
pub struct TimedSource<S> {
    inner: S,
    ns: u64,
    calls: u64,
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn system_size(&self) -> u32 {
        self.inner.system_size()
    }
    fn max_notice_lead(&self) -> SimDuration {
        self.inner.max_notice_lead()
    }
    fn next_job(&mut self) -> Option<JobSpec> {
        let t = Instant::now();
        let job = self.inner.next_job();
        self.ns += ns_since(t);
        self.calls += 1;
        job
    }
}

/// The engine's model: `SimCore` with each `handle` timed by event kind,
/// minus the hook time nested inside it.
struct TimedCore {
    core: SimCore,
    clock: Arc<HookClock>,
    spans: Spans,
    handled_ns: u64,
}

impl Simulation for TimedCore {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
        let layer = Layer::of_event(&ev);
        let hooks_before = self.clock.total_ns();
        let t = Instant::now();
        self.core.handle(now, ev, queue);
        let ns = ns_since(t);
        let nested = self.clock.total_ns() - hooks_before;
        self.spans.add(layer, ns.saturating_sub(nested));
        self.handled_ns += ns;
    }
}

/// What one replay produced, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    pub metrics: Metrics,
    pub engine: EngineStats,
    pub peak_resident_jobs: usize,
    pub admitted_jobs: u64,
}

impl From<hws_core::SimOutcome> for Replay {
    fn from(o: hws_core::SimOutcome) -> Self {
        Replay {
            metrics: o.metrics,
            engine: o.engine,
            peak_resident_jobs: o.peak_resident_jobs,
            admitted_jobs: o.admitted_jobs,
        }
    }
}

impl Replay {
    /// Whether two replays behaved identically: same fingerprint, engine
    /// counters and job counts. Wall-clock decision timings may differ.
    pub fn same_behaviour(&self, other: &Replay) -> bool {
        crate::report::fingerprint(&self.metrics) == crate::report::fingerprint(&other.metrics)
            && self.engine == other.engine
            && self.peak_resident_jobs == other.peak_resident_jobs
            && self.admitted_jobs == other.admitted_jobs
    }
}

/// Traced replay: the streaming recorder when `streaming` (as
/// `Simulator::run_source` sets up), the retaining one otherwise (as
/// `Simulator::run_trace`). Returns the replay and the spans of every
/// layer it entered; time outside any span is the pump's own glue.
pub fn replay<S: JobSource>(cfg: &SimConfig, source: S, streaming: bool) -> (Replay, Spans) {
    let clock = Arc::new(HookClock::default());
    let cfg = timed_config(cfg, &clock);
    let mut source = TimedSource {
        inner: source,
        ns: 0,
        calls: 0,
    };
    let system_size = source.system_size();
    let mut core = SimCore::new(cfg, system_size);
    if streaming {
        core.rec = Recorder::streaming(system_size, core.cfg.instant_threshold);
    }
    let schedule_notices = !core.cfg.mechanism.is_baseline() && core.hooks().uses_notices();
    let lead = source.max_notice_lead();
    let mut engine = Engine::new(TimedCore {
        core,
        clock: Arc::clone(&clock),
        spans: Spans::default(),
        handled_ns: 0,
    });
    let mut admit = (0u64, 0u64);
    let mut step_ns = 0u64;
    // The arrival pump of `Simulator::run_core`, with the admit and step
    // calls timed. Configs here carry no outage schedule, so there are no
    // outage events to seed.
    let mut next = source.next_job();
    loop {
        while let Some(spec) = next.take() {
            if let Some(head) = engine.queue.peek_time() {
                if spec.submit.saturating_sub(lead) > head {
                    next = Some(spec);
                    break;
                }
            }
            let id = spec.id;
            if let (Some(notice), true) = (&spec.notice, schedule_notices) {
                engine
                    .queue
                    .schedule_arrival(notice.notice_time, Ev::Notice(id));
            }
            engine.queue.schedule_arrival(spec.submit, Ev::Submit(id));
            let t = Instant::now();
            engine.sim.core.admit(spec);
            admit.0 += ns_since(t);
            admit.1 += 1;
            next = source.next_job();
        }
        let t = Instant::now();
        let stepped = engine.step();
        step_ns += ns_since(t);
        if !stepped {
            break;
        }
    }
    let stats = engine.stats();
    let TimedCore {
        core,
        mut spans,
        handled_ns,
        ..
    } = engine.into_sim();
    let t = Instant::now();
    let metrics = Metrics::compute(&core.rec, core.cfg.instant_threshold);
    spans.add(Layer::MetricsCompute, ns_since(t));
    spans.add_calls(
        Layer::Queue,
        step_ns.saturating_sub(handled_ns),
        stats.delivered,
    );
    spans.add_calls(Layer::Admit, admit.0, admit.1);
    spans.add_calls(Layer::NextJob, source.ns, source.calls);
    clock.drain_into(&mut spans);
    let replay = Replay {
        metrics,
        engine: stats,
        peak_resident_jobs: core.jobs().peak_live(),
        admitted_jobs: core.jobs().admitted(),
    };
    (replay, spans)
}

/// Traced counterpart of `Simulator::run_trace`.
pub fn replay_trace(cfg: &SimConfig, trace: &Trace) -> (Replay, Spans) {
    replay(cfg, MaterializedSource::new(trace), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::sim_config;
    use hws_core::{Mechanism, Simulator};
    use hws_workload::TraceConfig;

    /// A traced replay must behave exactly like the untraced one, for all
    /// six mechanisms and both recorder modes.
    #[test]
    fn traced_equals_untraced_for_all_six_mechanisms() {
        let trace = TraceConfig {
            target_jobs: 1_500,
            ..TraceConfig::small()
        }
        .generate(7);
        for m in Mechanism::ALL_SIX {
            let cfg = sim_config(m);
            let untraced: Replay = Simulator::run_trace(&cfg, &trace).into();
            let (traced, spans) = replay_trace(&cfg, &trace);
            assert!(
                traced.same_behaviour(&untraced),
                "{}: traced diverged",
                m.name()
            );
            assert_eq!(spans.calls(Layer::Admit), trace.len() as u64);
            assert!(spans.calls(Layer::Pass) > 0);

            let streamed: Replay =
                Simulator::run_source(&cfg, MaterializedSource::new(&trace)).into();
            let (traced, _) = replay(&cfg, MaterializedSource::new(&trace), true);
            assert!(
                traced.same_behaviour(&streamed),
                "{}: streaming diverged",
                m.name()
            );
            assert_eq!(
                crate::report::fingerprint(&streamed.metrics),
                crate::report::fingerprint(&untraced.metrics)
            );
        }
    }
}
