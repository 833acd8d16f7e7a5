//! Streaming replay must be **bitwise-identical** to materialized replay,
//! and resident job state must track the live window, not the trace
//! length — the two contracts of the O(active)-memory replay engine.
//!
//! The property test exercises all six mechanisms over generated traces:
//! each trace is exported to an embedded SWF in memory, streamed back via
//! [`SwfStreamSource`], and replayed with [`Simulator::run_source`]; every
//! metric and engine counter must equal the materialized
//! [`Simulator::run_trace`] result exactly (float equality, not epsilon).

use hws_cluster::FederationConfig;
use hws_core::{Mechanism, SimConfig, Simulator};
use hws_sim::SimDuration;
use hws_workload::job::JobSpecBuilder;
use hws_workload::{to_swf, SwfExportConfig, SwfStreamSource, Trace, TraceConfig};
use proptest::prelude::*;

/// Stream `trace` back out of its own embedded SWF export.
fn stream_of(trace: &Trace) -> SwfStreamSource<std::io::BufReader<&[u8]>> {
    let swf = to_swf(trace, &SwfExportConfig::default());
    let leaked: &'static [u8] = Box::leak(swf.into_bytes().into_boxed_slice());
    SwfStreamSource::from_reader(std::io::BufReader::new(leaked)).expect("own export streams")
}

fn assert_identical(trace: &Trace, mechanism: Mechanism) {
    let cfg = SimConfig::with_mechanism(mechanism);
    let materialized = Simulator::run_trace(&cfg, trace);
    let streamed = Simulator::run_source(&cfg, stream_of(trace));
    assert_eq!(
        materialized.metrics, streamed.metrics,
        "metrics diverge for {mechanism:?}"
    );
    assert_eq!(
        materialized.engine, streamed.engine,
        "engine counters diverge for {mechanism:?}"
    );
    assert_eq!(materialized.classes, streamed.classes);
    assert_eq!(
        materialized.peak_resident_jobs, streamed.peak_resident_jobs,
        "resident high-water marks diverge for {mechanism:?}"
    );
    assert_eq!(streamed.admitted_jobs, trace.jobs.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Export → stream → replay equals materialized replay, bitwise, for
    /// every mechanism, across generated workloads.
    #[test]
    fn streaming_replay_is_bitwise_identical(seed in 0..1_000u64, jobs in 30..120u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).generate(seed);
        for mechanism in Mechanism::ALL_SIX {
            assert_identical(&trace, mechanism);
        }
    }
}

/// The baseline (non-hybrid) configuration must stream identically too —
/// it skips notice events entirely, which exercises the pump's
/// no-lookahead path.
#[test]
fn baseline_streams_identically() {
    let trace = TraceConfig::tiny().generate(7);
    let cfg = SimConfig::baseline();
    let materialized = Simulator::run_trace(&cfg, &trace);
    let streamed = Simulator::run_source(&cfg, stream_of(&trace));
    assert_eq!(materialized.metrics, streamed.metrics);
    assert_eq!(materialized.engine, streamed.engine);
}

/// Capability-class jobs survive the stream round-trip with an identical
/// per-class breakdown.
#[test]
fn capability_classes_stream_identically() {
    let trace = TraceConfig::tiny().with_capability_frac(0.2).generate(3);
    for mechanism in Mechanism::ALL_SIX {
        assert_identical(&trace, mechanism);
    }
}

/// A federation streams like a single cluster: each job is registered
/// with the placement policy as it is injected, so the streamed replay
/// places every job exactly as the materialized one does.
#[test]
fn two_shard_federation_streams_identically() {
    let trace = TraceConfig::tiny().with_jobs(300).generate(5);
    for mechanism in Mechanism::ALL_SIX {
        let cfg = SimConfig::with_mechanism(mechanism)
            .federated(FederationConfig::even_split(2, trace.system_size));
        let materialized = Simulator::run_trace(&cfg, &trace);
        let streamed = Simulator::run_source(&cfg, stream_of(&trace));
        assert_eq!(materialized.metrics, streamed.metrics, "{mechanism:?}");
        assert_eq!(materialized.engine, streamed.engine, "{mechanism:?}");
        assert_eq!(materialized.shards, streamed.shards, "{mechanism:?}");
        assert!(streamed.shards.is_some());
        assert_eq!(
            materialized.peak_resident_jobs, streamed.peak_resident_jobs,
            "{mechanism:?}"
        );
    }
}

/// O(active) regression: a workload of 2 000 jobs arriving in well-spaced
/// bursts of 100 must never hold more than a couple of bursts' worth of
/// jobs resident. A driver that kept every job materialized would report a
/// peak near the trace length; the arena must stay near the burst size.
#[test]
fn peak_resident_jobs_tracks_live_window_not_trace_length() {
    const BURSTS: u64 = 20;
    const PER_BURST: u64 = 100;
    let mut jobs = Vec::new();
    for b in 0..BURSTS {
        for i in 0..PER_BURST {
            let id = b * PER_BURST + i;
            // One burst per simulated day; each job runs well under an
            // hour, so a burst fully drains before the next arrives.
            jobs.push(
                JobSpecBuilder::rigid(id)
                    .submit_at(hws_sim::SimTime::from_secs(b * 86_400 + i))
                    .size(4)
                    .work(SimDuration::from_secs(600))
                    .estimate(SimDuration::from_secs(1_200))
                    .build(),
            );
        }
    }
    let total = jobs.len() as u64;
    let trace = Trace::new(64, SimDuration::from_days(BURSTS + 1), jobs);

    let cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    let materialized = Simulator::run_trace(&cfg, &trace);
    let streamed = Simulator::run_source(&cfg, stream_of(&trace));

    assert_eq!(materialized.metrics, streamed.metrics);
    assert_eq!(streamed.admitted_jobs, total);
    // The bound is one burst plus lookahead slack — far below the trace.
    assert!(
        streamed.peak_resident_jobs <= 150,
        "peak resident {} jobs; expected ~one burst (100), trace has {}",
        streamed.peak_resident_jobs,
        total
    );
    assert_eq!(materialized.peak_resident_jobs, streamed.peak_resident_jobs);
}
