//! Microbench of `Cluster` node bookkeeping on a 4,392-node machine (the
//! paper's Theta): one job's allocate + release at 128, 1,024 and 4,392
//! nodes, and a reserve + release_reservation of 1,024 nodes. Every start
//! and every finish of a replay pays one of these, so their cost per node
//! moved bounds the scheduler's per-job overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use hws_cluster::Cluster;
use hws_workload::JobId;
use std::hint::black_box;

const THETA_NODES: u32 = 4_392;

fn bench_cluster_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_alloc");

    for k in [128u32, 1_024, THETA_NODES] {
        g.bench_function(format!("allocate_release/{k}_nodes"), |b| {
            // A quarter of the machine stays busy (capped so the largest
            // job still fits), so the free stack is not in its initial
            // order; each iteration starts and finishes one job.
            let mut cl = Cluster::new(THETA_NODES);
            let background = (THETA_NODES - k).min(THETA_NODES / 4);
            if background > 0 {
                cl.allocate(JobId(0), background).expect("fits");
            }
            let job = JobId(1);
            b.iter(|| {
                let placed = cl.allocate(job, black_box(k)).map(<[_]>::len);
                black_box(placed);
                black_box(cl.release(job))
            });
        });
    }

    g.bench_function("reserve_release_reservation/1024_nodes", |b| {
        let mut cl = Cluster::new(THETA_NODES);
        let holder = JobId(2);
        b.iter(|| {
            black_box(cl.reserve(holder, black_box(1_024)));
            black_box(cl.release_reservation(holder))
        });
    });

    g.finish();
}

criterion_group!(benches, bench_cluster_alloc);
criterion_main!(benches);
