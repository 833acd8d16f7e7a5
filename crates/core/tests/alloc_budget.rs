//! Allocation-budget regression tests (run with `--features count-allocs`):
//! the steady-state per-event replay path must stay within a small constant
//! heap-allocation budget, and the recycled kernels (event queue, job
//! arena) must be allocation-free once warm.
//!
//! The budgets carry slack — they are tripwires for structural regressions
//! (a per-pass `HashSet`, a rebuilt key cache, a per-notice snapshot
//! `Vec`), not exact counts.
#![cfg(feature = "count-allocs")]

use hws_core::counting_alloc::{allocation_count, CountingAlloc};
use hws_core::{Mechanism, SimConfig, Simulator};
use hws_sim::{EventQueue, SimDuration, SimTime};
use hws_workload::job::JobSpecBuilder;
use hws_workload::{JobId, TraceConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warm event queue: pushes and pops at steady occupancy must not allocate
/// (the heap and ring storage are already sized).
#[test]
fn event_queue_steady_state_is_allocation_free() {
    let mut q: EventQueue<u64> = EventQueue::new();
    // Warm up: grow the heap and the cancellation ring past the working set.
    for i in 0..1_024u64 {
        q.schedule(SimTime::from_secs(i), i);
    }
    while q.pop().is_some() {}
    let before = allocation_count();
    for round in 0..1_000u64 {
        // Times keep advancing: the queue's watermark forbids scheduling
        // in the causal past.
        for i in 0..8 {
            q.schedule(SimTime::from_secs(2_000 + round * 10 + i), i);
        }
        for _ in 0..8 {
            q.pop().unwrap();
        }
    }
    let grew = allocation_count() - before;
    assert_eq!(grew, 0, "warm push/pop allocated {grew} times");
}

/// Warm job arena: a sliding admit/retire window must not allocate once
/// the free list and the id index have reached the window size.
#[test]
fn job_table_steady_state_is_allocation_free() {
    let spec = |id: u64| {
        JobSpecBuilder::rigid(id)
            .size(4)
            .work(SimDuration::from_secs(60))
            .estimate(SimDuration::from_secs(120))
            .build()
    };
    let mut t = hws_core::JobTable::new();
    for id in 0..256u64 {
        t.admit(spec(id));
    }
    for id in 0..256u64 {
        t.retire(JobId(id));
    }
    let before = allocation_count();
    for id in 256..4_096u64 {
        // JobSpec itself is plain data (no heap fields), so the only
        // candidate allocations are the arena's own structures.
        t.admit(spec(id));
        assert!(t.state(JobId(id)).id == JobId(id));
        t.retire(JobId(id));
    }
    let grew = allocation_count() - before;
    assert_eq!(grew, 0, "warm admit/lookup/retire allocated {grew} times");
}

/// End-to-end tripwire: replaying a multi-thousand-job hybrid workload
/// must stay under a small per-event allocation budget. The driver's
/// steady-state event handling recycles its buffers; what remains is
/// bookkeeping that scales with decisions (claims, leases, per-od plans),
/// not with queue depth.
#[test]
fn per_event_allocation_budget_holds() {
    let trace = TraceConfig::tiny().with_jobs(2_000).generate(11);
    let cfg = SimConfig::with_mechanism(Mechanism::CUP_SPAA);
    // Warm-up run: fault in lazy statics, grow thread-local caches.
    let _ = Simulator::run_trace(&cfg, &trace);
    let before = allocation_count();
    let outcome = Simulator::run_trace(&cfg, &trace);
    let allocs = allocation_count() - before;
    let events = outcome.engine.delivered.max(1);
    let per_event = allocs as f64 / events as f64;
    eprintln!("measured {per_event:.3} allocations/event ({allocs} over {events} events)");
    // Measured ~0.63/event on the arena + recycled-scratch driver; the
    // pre-arena driver (per-pass HashSet + key cache) sat well above 2.
    assert!(
        per_event < 2.0,
        "hot path allocated {allocs} times over {events} events ({per_event:.2}/event)"
    );
}
