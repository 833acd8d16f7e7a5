//! Property tests: arbitrary operation sequences never violate the
//! cluster's conservation invariants, node accounting is exact, and every
//! job gets exactly the nodes, in exactly the order, that a per-node
//! reference model of the free stack and reservations hands out.

use hws_cluster::{Cluster, NodeId};
use hws_workload::JobId;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Allocate {
        job: u64,
        k: u32,
    },
    AllocateWithReserved {
        job: u64,
        k: u32,
    },
    Backfill {
        job: u64,
        k: u32,
        use_reserved: bool,
    },
    Release {
        job: u64,
    },
    Shrink {
        job: u64,
        k: u32,
    },
    Expand {
        job: u64,
        k: u32,
    },
    Reserve {
        holder: u64,
        k: u32,
    },
    ReleaseReservation {
        holder: u64,
    },
    TransferReserved {
        from: u64,
        to: u64,
        k: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..24u64, 1..16u32).prop_map(|(job, k)| Op::Allocate { job, k }),
        (0..24u64, 1..16u32).prop_map(|(job, k)| Op::AllocateWithReserved { job, k }),
        // A reservation holder starting on its own reserved nodes.
        (24..32u64, 1..16u32).prop_map(|(job, k)| Op::AllocateWithReserved { job, k }),
        (0..24u64, 1..16u32, any::<bool>()).prop_map(|(job, k, use_reserved)| Op::Backfill {
            job,
            k,
            use_reserved
        }),
        (0..24u64).prop_map(|job| Op::Release { job }),
        (0..24u64, 1..8u32).prop_map(|(job, k)| Op::Shrink { job, k }),
        (0..24u64, 1..8u32).prop_map(|(job, k)| Op::Expand { job, k }),
        (24..32u64, 1..16u32).prop_map(|(holder, k)| Op::Reserve { holder, k }),
        (24..32u64).prop_map(|holder| Op::ReleaseReservation { holder }),
        (24..32u64, 24..32u64, 1..16u32).prop_map(|(from, to, k)| Op::TransferReserved {
            from,
            to,
            k
        }),
    ]
}

fn apply(c: &mut Cluster, op: &Op) {
    match *op {
        Op::Allocate { job, k } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate(JobId(job), k);
            }
        }
        Op::AllocateWithReserved { job, k } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate_with_reserved(JobId(job), k);
            }
        }
        Op::Backfill {
            job,
            k,
            use_reserved,
        } => {
            if !c.is_running(JobId(job)) {
                let _ = c.allocate_backfill(JobId(job), k, |_| use_reserved);
            }
        }
        Op::Release { job } => {
            let _ = c.release(JobId(job));
        }
        Op::Shrink { job, k } => {
            if c.size_of(JobId(job)) > k {
                let _ = c.shrink(JobId(job), k);
            }
        }
        Op::Expand { job, k } => {
            if c.is_running(JobId(job)) {
                let _ = c.expand(JobId(job), k);
            }
        }
        Op::Reserve { holder, k } => {
            let _ = c.reserve(JobId(holder), k);
        }
        Op::ReleaseReservation { holder } => {
            let _ = c.release_reservation(JobId(holder));
        }
        Op::TransferReserved { from, to, k } => {
            let _ = c.transfer_reserved(JobId(from), JobId(to), k);
        }
    }
}

/// Oracle check: the incremental `(plain, squatted)` counters, the squatter
/// index, and the reserved-idle total must exactly match what a full node
/// scan reports, for every job and holder id the op space can produce.
fn assert_matches_scan_oracle(c: &Cluster) {
    let mut reserved_idle_scanned = 0;
    for id in (0..64).map(JobId) {
        assert_eq!(
            c.split_of(id),
            c.split_of_scanned(id),
            "split counters diverged for {id}"
        );
        assert_eq!(
            c.squatters(id),
            c.squatters_scanned(id),
            "squatter index diverged for holder {id}"
        );
        reserved_idle_scanned += c.reserved_idle_count(id);
    }
    assert_eq!(c.total_reserved_idle(), reserved_idle_scanned);
}

/// Per-node reference model of the cluster's placement order: the free
/// stack as a plain LIFO `Vec` popped one id at a time, each job's node
/// list (with the holder of every squatted node), and each holder's idle
/// reserved nodes. It mirrors `apply`'s guards op for op.
struct NodeOrderModel {
    free: Vec<u32>,
    jobs: BTreeMap<u64, Vec<(u32, Option<u64>)>>,
    idle: BTreeMap<u64, Vec<u32>>,
}

impl NodeOrderModel {
    fn new(n: u32) -> Self {
        NodeOrderModel {
            free: (0..n).rev().collect(),
            jobs: BTreeMap::new(),
            idle: BTreeMap::new(),
        }
    }

    /// Pop up to `k` ids off `stack`, one at a time, into `to`.
    fn pop_into(
        stack: &mut Vec<u32>,
        k: usize,
        holder: Option<u64>,
        to: &mut Vec<(u32, Option<u64>)>,
    ) {
        for _ in 0..k {
            match stack.pop() {
                Some(id) => to.push((id, holder)),
                None => break,
            }
        }
    }

    /// Send vacated nodes home: plain ones onto the free stack, squatted
    /// ones back onto their holder's reservation.
    fn vacate(&mut self, nodes: impl IntoIterator<Item = (u32, Option<u64>)>) {
        for (id, holder) in nodes {
            match holder {
                None => self.free.push(id),
                Some(h) => self.idle.entry(h).or_default().push(id),
            }
        }
    }

    fn idle_len(&self, holder: u64) -> usize {
        self.idle.get(&holder).map_or(0, Vec::len)
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Allocate { job, k } => {
                if !self.jobs.contains_key(&job) && self.free.len() >= k as usize {
                    let mut nodes = Vec::new();
                    Self::pop_into(&mut self.free, k as usize, None, &mut nodes);
                    self.jobs.insert(job, nodes);
                }
            }
            Op::AllocateWithReserved { job, k } => {
                if !self.jobs.contains_key(&job)
                    && self.idle_len(job) + self.free.len() >= k as usize
                {
                    let mut nodes = Vec::new();
                    if let Some(own) = self.idle.get_mut(&job) {
                        Self::pop_into(own, k as usize, None, &mut nodes);
                        if own.is_empty() {
                            self.idle.remove(&job);
                        }
                    }
                    let rest = k as usize - nodes.len();
                    Self::pop_into(&mut self.free, rest, None, &mut nodes);
                    self.jobs.insert(job, nodes);
                }
            }
            Op::Backfill {
                job,
                k,
                use_reserved,
            } => {
                let squattable = if use_reserved {
                    self.idle.values().map(Vec::len).sum()
                } else {
                    0
                };
                if !self.jobs.contains_key(&job) && self.free.len() + squattable >= k as usize {
                    let mut nodes = Vec::new();
                    Self::pop_into(&mut self.free, k as usize, None, &mut nodes);
                    let holders: Vec<u64> = self.idle.keys().copied().collect();
                    for h in holders {
                        if nodes.len() == k as usize || !use_reserved {
                            break;
                        }
                        let idle = self.idle.get_mut(&h).expect("listed holder");
                        Self::pop_into(idle, k as usize - nodes.len(), Some(h), &mut nodes);
                        if idle.is_empty() {
                            self.idle.remove(&h);
                        }
                    }
                    self.jobs.insert(job, nodes);
                }
            }
            Op::Release { job } => {
                if let Some(nodes) = self.jobs.remove(&job) {
                    self.vacate(nodes);
                }
            }
            Op::Shrink { job, k } => {
                if let Some(nodes) = self.jobs.get_mut(&job) {
                    if nodes.len() > k as usize {
                        // Plain nodes go first; the sort is stable.
                        nodes.sort_by_key(|&(_, holder)| holder.is_some());
                        let removed: Vec<_> = nodes.drain(..k as usize).collect();
                        self.vacate(removed);
                    }
                }
            }
            Op::Expand { job, k } => {
                if let Some(nodes) = self.jobs.get_mut(&job) {
                    Self::pop_into(&mut self.free, k as usize, None, nodes);
                }
            }
            Op::Reserve { holder, k } => {
                let take = (k as usize).min(self.free.len());
                if take > 0 {
                    let mut popped = Vec::new();
                    Self::pop_into(&mut self.free, take, None, &mut popped);
                    let idle = self.idle.entry(holder).or_default();
                    idle.extend(popped.into_iter().map(|(id, _)| id));
                }
            }
            Op::ReleaseReservation { holder } => {
                if let Some(idle) = self.idle.remove(&holder) {
                    self.free.extend(idle);
                }
                for nodes in self.jobs.values_mut() {
                    for (_, h) in nodes.iter_mut() {
                        if *h == Some(holder) {
                            *h = None;
                        }
                    }
                }
            }
            Op::TransferReserved { from, to, k } => {
                if from != to {
                    if let Some(src) = self.idle.get_mut(&from) {
                        let moved = src.split_off(src.len() - (k as usize).min(src.len()));
                        if src.is_empty() {
                            self.idle.remove(&from);
                        }
                        self.idle.entry(to).or_default().extend(moved);
                    }
                }
            }
        }
    }

    /// Every job's node list, in order, and every pool's size agree with
    /// the cluster.
    fn assert_matches(&self, c: &Cluster, op: &Op) {
        for job in 0..32u64 {
            let want: Vec<NodeId> = self
                .jobs
                .get(&job)
                .map(|v| v.iter().map(|&(id, _)| NodeId(id)).collect())
                .unwrap_or_default();
            assert_eq!(
                c.nodes_of(JobId(job)),
                want.as_slice(),
                "J{job} after {op:?}"
            );
            assert_eq!(
                c.reserved_idle_count(JobId(job)) as usize,
                self.idle_len(job),
                "reservation of J{job} after {op:?}"
            );
        }
        assert_eq!(
            c.free_count() as usize,
            self.free.len(),
            "free pool after {op:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Placement order is part of the contract: the byte-locked baselines
    /// depend on which node ids each job receives and in what order. After
    /// every op of an arbitrary sequence, `nodes_of` equals the per-node
    /// reference model for every job.
    #[test]
    fn node_order_matches_the_per_node_model(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = Cluster::new(n);
        let mut model = NodeOrderModel::new(n);
        for op in &ops {
            apply(&mut c, op);
            model.apply(op);
            model.assert_matches(&c, op);
        }
    }

    #[test]
    fn invariants_hold_under_arbitrary_op_sequences(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = Cluster::new(n);
        for op in &ops {
            apply(&mut c, op);
            prop_assert_eq!(c.check_invariants(), Ok(()));
        }
    }

    /// The incremental accounting is exact: after every operation of an
    /// arbitrary allocate/release/reserve/backfill/shrink/expand/transfer
    /// sequence, `split_of`, `squatters`, and `total_reserved_idle` agree
    /// with a full-node-scan oracle.
    #[test]
    fn incremental_counters_match_scan_oracle(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut c = Cluster::new(n);
        assert_matches_scan_oracle(&c);
        for op in &ops {
            apply(&mut c, op);
            assert_matches_scan_oracle(&c);
        }
        // And after tearing everything down.
        let running: Vec<JobId> = c.running_jobs().collect();
        for job in running {
            c.release(job);
        }
        for holder in (0..64).map(JobId) {
            c.release_reservation(holder);
        }
        assert_matches_scan_oracle(&c);
        prop_assert_eq!(c.total_reserved_idle(), 0);
    }

    #[test]
    fn releasing_everything_restores_full_capacity(
        n in 8..64u32,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut c = Cluster::new(n);
        for op in &ops {
            apply(&mut c, op);
        }
        let running: Vec<JobId> = c.running_jobs().collect();
        for job in running {
            c.release(job);
        }
        for holder in (0..64).map(JobId) {
            c.release_reservation(holder);
        }
        prop_assert_eq!(c.free_count(), n);
        prop_assert_eq!(c.check_invariants(), Ok(()));
    }

    #[test]
    fn allocation_sizes_are_exact(
        n in 8..64u32,
        sizes in proptest::collection::vec(1..10u32, 1..10),
    ) {
        let mut c = Cluster::new(n);
        let mut allocated = 0u32;
        for (i, &k) in sizes.iter().enumerate() {
            if let Some(nodes) = c.allocate(JobId(i as u64), k) {
                prop_assert_eq!(nodes.len() as u32, k);
                allocated += k;
            }
            prop_assert_eq!(c.free_count(), n - allocated);
        }
    }
}
