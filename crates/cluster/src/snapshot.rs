//! Byte-level snapshot support for resource-manager state.
//!
//! The live scheduler service (`hws-core`) checkpoints a running
//! simulation into a versioned byte blob and later restores it — or forks
//! it into speculative what-if futures. This module provides the cluster
//! half: a lossless codec for [`Cluster`] and the [`SnapshotBackend`]
//! trait that lets the driver snapshot any backend generically
//! ([`Federation`] implements it against its [`FederationConfig`]).
//!
//! ## Format notes
//!
//! * Little-endian fixed-width primitives via [`SnapWriter`]; the caller
//!   owns the version byte.
//! * **Order is data.** The free-list stack order and each job's node-list
//!   order feed future allocation decisions, so they are serialized
//!   verbatim; restore-then-continue must be bitwise identical to an
//!   uninterrupted run.
//! * Unordered maps (allocations, reservations) are written in sorted
//!   job-id order so equal states encode to equal bytes.
//! * Derived accounting (splits, squatter index, reserved-idle total) is
//!   *not* serialized; decoding rebuilds it and then runs
//!   [`Cluster::check_invariants`], so a corrupted snapshot fails closed
//!   instead of producing a subtly inconsistent machine.

use crate::node::{NodeId, NodeState};
use crate::{Cluster, ClusterBackend, Federation, FederationConfig, Split};
use hws_sim::snap::{SnapError, SnapReader, SnapWriter};
use hws_workload::JobId;
use std::collections::{BTreeMap, HashMap};

/// A [`ClusterBackend`] whose full dynamic state can round-trip through
/// the snapshot byte format.
///
/// `Ctx` carries whatever the byte stream deliberately omits because it is
/// code rather than data: nothing for a bare [`Cluster`], the
/// [`FederationConfig`] (placement policy, shard names) for a
/// [`Federation`]. Restoring against a context that does not match the
/// encoder's is an error, not silent misbehavior.
pub trait SnapshotBackend: ClusterBackend + Sized {
    /// Reconstruction context not carried by the byte stream.
    type Ctx;

    /// Append this backend's complete dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Rebuild a backend from bytes written by
    /// [`SnapshotBackend::snapshot`] under the same context.
    fn restore(r: &mut SnapReader<'_>, ctx: &Self::Ctx) -> Result<Self, SnapError>;
}

impl SnapshotBackend for Cluster {
    type Ctx = ();

    fn snapshot(&self, w: &mut SnapWriter) {
        self.encode_snap(w);
    }

    fn restore(r: &mut SnapReader<'_>, _ctx: &()) -> Result<Self, SnapError> {
        Cluster::decode_snap(r)
    }
}

impl SnapshotBackend for Federation {
    type Ctx = FederationConfig;

    fn snapshot(&self, w: &mut SnapWriter) {
        self.encode_snap(w);
    }

    fn restore(r: &mut SnapReader<'_>, cfg: &FederationConfig) -> Result<Self, SnapError> {
        Federation::decode_snap(r, cfg)
    }
}

fn encode_node(st: &NodeState, w: &mut SnapWriter) {
    match *st {
        NodeState::Free => w.put_u8(0),
        NodeState::Busy { job } => {
            w.put_u8(1);
            w.put_u64(job.0);
        }
        NodeState::Reserved { holder } => {
            w.put_u8(2);
            w.put_u64(holder.0);
        }
        NodeState::ReservedBusy { holder, job } => {
            w.put_u8(3);
            w.put_u64(holder.0);
            w.put_u64(job.0);
        }
        NodeState::Down => w.put_u8(4),
    }
}

fn decode_node(r: &mut SnapReader<'_>) -> Result<NodeState, SnapError> {
    Ok(match r.get_u8()? {
        0 => NodeState::Free,
        1 => NodeState::Busy {
            job: JobId(r.get_u64()?),
        },
        2 => NodeState::Reserved {
            holder: JobId(r.get_u64()?),
        },
        3 => NodeState::ReservedBusy {
            holder: JobId(r.get_u64()?),
            job: JobId(r.get_u64()?),
        },
        4 => NodeState::Down,
        t => return Err(r.err(format!("bad node state tag {t}"))),
    })
}

/// Reads one `job → [nodes]` table (allocations or reservations), in
/// strictly sorted job order, validating every node id against `expect`
/// and marking it in the exactly-once occupancy bitmap.
fn decode_node_table(
    r: &mut SnapReader<'_>,
    nodes: &[NodeState],
    seen: &mut [bool],
    what: &str,
    expect: impl Fn(JobId, NodeState) -> bool,
) -> Result<HashMap<JobId, Vec<NodeId>>, SnapError> {
    let n = r.get_len()?;
    let mut table = HashMap::with_capacity(n);
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let job = r.get_u64()?;
        if prev.is_some_and(|p| p >= job) {
            return Err(r.err(format!("{what} table not strictly sorted at job {job}")));
        }
        prev = Some(job);
        let k = r.get_len()?;
        if k == 0 {
            return Err(r.err(format!("empty {what} list for job {job}")));
        }
        let mut list = Vec::with_capacity(k);
        for _ in 0..k {
            let id = r.get_u32()?;
            let Some(&st) = nodes.get(id as usize) else {
                return Err(r.err(format!("{what} node {id} out of range")));
            };
            if !expect(JobId(job), st) {
                return Err(r.err(format!("{what} node {id} for job {job} is in state {st:?}")));
            }
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(r.err(format!("node {id} listed twice")));
            }
            list.push(NodeId(id));
        }
        table.insert(JobId(job), list);
    }
    Ok(table)
}

impl Cluster {
    /// Serialize the full machine state: per-node states, the free-list
    /// stack in order, and each job's allocation / reservation node lists
    /// in order (jobs sorted by id).
    pub fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.total_nodes());
        for st in &self.nodes {
            encode_node(st, w);
        }
        w.put_len(self.free_list.len());
        for id in &self.free_list {
            w.put_u32(id.0);
        }
        let mut jobs: Vec<JobId> = self.alloc.keys().copied().collect();
        jobs.sort();
        w.put_len(jobs.len());
        for job in jobs {
            w.put_u64(job.0);
            let list = &self.alloc[&job];
            w.put_len(list.len());
            for id in list {
                w.put_u32(id.0);
            }
        }
        let mut holders: Vec<JobId> = self.reserved_idle.keys().copied().collect();
        holders.sort();
        w.put_len(holders.len());
        for holder in holders {
            w.put_u64(holder.0);
            let list = &self.reserved_idle[&holder];
            w.put_len(list.len());
            for id in list {
                w.put_u32(id.0);
            }
        }
        // Draining marks (already a sorted set; Down nodes are carried by
        // the per-node states themselves and belong to no list).
        w.put_len(self.draining.len());
        for &id in &self.draining {
            w.put_u32(id);
        }
    }

    /// Decode a cluster written by [`Cluster::encode_snap`]. Every node
    /// must be claimed exactly once across the free list, the allocations,
    /// and the reservations, with a state matching its claimant; the
    /// derived accounting is rebuilt and cross-checked via
    /// [`Cluster::check_invariants`]. Malformed input errors, never
    /// panics.
    pub fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_u32()? as usize;
        if n == 0 {
            return Err(r.err("cluster must have at least one node"));
        }
        if n > r.remaining() {
            // Each node costs at least its one-byte tag.
            return Err(r.err(format!("implausible node count {n}")));
        }
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(decode_node(r)?);
        }
        let mut seen = vec![false; n];
        // Down nodes live in no list: claim them straight from the state
        // array so the exactly-once check still covers the whole machine.
        let mut down_count = 0u32;
        for (i, st) in nodes.iter().enumerate() {
            if *st == NodeState::Down {
                seen[i] = true;
                down_count += 1;
            }
        }
        let n_free = r.get_len()?;
        let mut free_list = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let id = r.get_u32()?;
            let Some(&st) = nodes.get(id as usize) else {
                return Err(r.err(format!("free-list node {id} out of range")));
            };
            if st != NodeState::Free {
                return Err(r.err(format!("free-list node {id} is in state {st:?}")));
            }
            if std::mem::replace(&mut seen[id as usize], true) {
                return Err(r.err(format!("node {id} listed twice")));
            }
            free_list.push(NodeId(id));
        }
        let alloc = decode_node_table(r, &nodes, &mut seen, "allocation", |job, st| {
            matches!(st, NodeState::Busy { job: j } if j == job)
                || matches!(st, NodeState::ReservedBusy { job: j, .. } if j == job)
        })?;
        let reserved_idle = decode_node_table(
            r,
            &nodes,
            &mut seen,
            "reservation",
            |holder, st| matches!(st, NodeState::Reserved { holder: h } if h == holder),
        )?;
        if let Some(orphan) = seen.iter().position(|s| !s) {
            return Err(r.err(format!("node {orphan} claimed by no list")));
        }
        let n_draining = r.get_len()?;
        let mut draining = Vec::with_capacity(n_draining);
        let mut prev_drain: Option<u32> = None;
        for _ in 0..n_draining {
            let id = r.get_u32()?;
            if prev_drain.is_some_and(|p| p >= id) {
                return Err(r.err(format!("draining list not strictly sorted at {id}")));
            }
            prev_drain = Some(id);
            if id as usize >= n {
                return Err(r.err(format!("draining node {id} out of range")));
            }
            draining.push(id);
        }
        // Rebuild the derived accounting from the authoritative state.
        let mut splits = HashMap::with_capacity(alloc.len());
        let mut squatter_index: HashMap<JobId, BTreeMap<JobId, u32>> = HashMap::new();
        for (&job, list) in &alloc {
            let mut split = Split::default();
            for id in list {
                match nodes[id.index()] {
                    NodeState::ReservedBusy { holder, .. } => {
                        split.squatted += 1;
                        *squatter_index
                            .entry(holder)
                            .or_default()
                            .entry(job)
                            .or_default() += 1;
                    }
                    _ => split.plain += 1,
                }
            }
            splits.insert(job, split);
        }
        let reserved_idle_total = reserved_idle.values().map(|v| v.len() as u32).sum();
        let cluster = Cluster {
            nodes,
            free_list,
            alloc,
            reserved_idle,
            splits,
            squatter_index,
            reserved_idle_total,
            draining: draining.into_iter().collect(),
            down_count,
            spare: Vec::new(),
        };
        cluster
            .check_invariants()
            .map_err(|e| r.err(format!("restored cluster fails invariants: {e}")))?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    /// A cluster exercising every node state: running jobs, an on-demand
    /// reservation, and a backfill squatting on part of it.
    fn busy_cluster() -> Cluster {
        let mut c = Cluster::new(24);
        c.allocate(j(1), 5).expect("fits");
        c.allocate(j(3), 2).expect("fits");
        c.reserve(j(9), 8);
        // 9 free + 8 squattable: the backfill squats on 3 reserved nodes.
        c.allocate_backfill(j(2), 12, |_| true).expect("fits");
        c.release(j(1));
        c.check_invariants().expect("sane fixture");
        c
    }

    fn encode(c: &Cluster) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.encode_snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cluster_snapshot_round_trips_bitwise() {
        let c = busy_cluster();
        let bytes = encode(&c);
        let mut r = SnapReader::new(&bytes);
        let back = Cluster::decode_snap(&mut r).expect("decodes");
        r.expect_end().expect("consumed exactly");
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
        assert_eq!(back.free_count(), c.free_count());
        assert_eq!(back.total_reserved_idle(), c.total_reserved_idle());
        assert_eq!(back.split_of(j(2)), c.split_of(j(2)));
        assert_eq!(back.squatters(j(9)), c.squatters(j(9)));
    }

    #[test]
    fn restored_cluster_continues_identically() {
        let mut a = busy_cluster();
        let bytes = encode(&a);
        let mut b = Cluster::decode_snap(&mut SnapReader::new(&bytes)).expect("decodes");
        // The same operation sequence must yield identical node choices —
        // the free-list order survived the round trip.
        assert_eq!(a.allocate(j(4), 3).map(<[NodeId]>::to_vec), {
            b.allocate(j(4), 3).map(<[NodeId]>::to_vec)
        });
        assert_eq!(a.release(j(2)), b.release(j(2)));
        assert_eq!(a.release_reservation(j(9)), b.release_reservation(j(9)));
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn corrupt_cluster_snapshots_error_instead_of_panicking() {
        let bytes = encode(&busy_cluster());
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                Cluster::decode_snap(&mut r).is_err() || r.expect_end().is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
        // A free-list entry pointing at a busy node is caught immediately.
        let mut w = SnapWriter::new();
        w.put_u32(2);
        w.put_u8(1); // node 0: Busy { job 1 }
        w.put_u64(1);
        w.put_u8(0); // node 1: Free
        w.put_len(1);
        w.put_u32(0); // free list claims the busy node
        w.put_len(1);
        w.put_u64(1);
        w.put_len(1);
        w.put_u32(1);
        w.put_len(0);
        let bad = w.into_bytes();
        assert!(Cluster::decode_snap(&mut SnapReader::new(&bad)).is_err());
    }

    #[test]
    fn node_claimed_twice_or_never_is_rejected() {
        // Node 1 in both the free list and an allocation.
        let mut w = SnapWriter::new();
        w.put_u32(2);
        w.put_u8(0);
        w.put_u8(1);
        w.put_u64(7);
        w.put_len(1);
        w.put_u32(0);
        w.put_len(1);
        w.put_u64(7);
        w.put_len(2);
        w.put_u32(1);
        w.put_u32(1);
        w.put_len(0);
        let bytes = w.into_bytes();
        let err = Cluster::decode_snap(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(err.what.contains("twice"), "got: {err}");
        // A node no list claims.
        let mut w = SnapWriter::new();
        w.put_u32(2);
        w.put_u8(0);
        w.put_u8(0);
        w.put_len(1);
        w.put_u32(0);
        w.put_len(0);
        w.put_len(0);
        let bytes = w.into_bytes();
        let err = Cluster::decode_snap(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(err.what.contains("claimed by no list"), "got: {err}");
    }

    fn sample_specs() -> Vec<hws_workload::JobSpec> {
        use hws_workload::job::JobSpecBuilder;
        vec![
            JobSpecBuilder::rigid(1).size(4).build(),
            JobSpecBuilder::on_demand(9).size(5).build(),
            JobSpecBuilder::malleable(2).size(6).min_size(2).build(),
        ]
    }

    #[test]
    fn federation_snapshot_round_trips_and_continues_identically() {
        let cfg = FederationConfig::even_split(2, 24);
        let specs = sample_specs();
        let mut f = Federation::new(&cfg, 24);
        for spec in &specs {
            f.note_job(spec);
        }
        assert!(f.try_allocate_with_reserved(j(1), 4));
        assert_eq!(ClusterBackend::reserve(&mut f, j(9), 5), 5);
        f.try_allocate_backfill(j(2), 6, &mut |_| true)
            .expect("fits");
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = Federation::restore(&mut r, &cfg).expect("decodes");
        r.expect_end().expect("consumed exactly");
        assert_eq!(back.home_of(j(1)), f.home_of(j(1)));
        assert_eq!(back.home_of(j(2)), f.home_of(j(2)));
        let mut w2 = SnapWriter::new();
        back.snapshot(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "re-encode must reproduce the bytes");
        // Continue both with the same ops: placement (meta-driven) and
        // release order must agree.
        assert_eq!(
            ClusterBackend::release(&mut f, j(2)),
            ClusterBackend::release(&mut back, j(2))
        );
        assert!(f.try_allocate_with_reserved(j(9), 5));
        assert!(back.try_allocate_with_reserved(j(9), 5));
        let mut wa = SnapWriter::new();
        let mut wb = SnapWriter::new();
        f.snapshot(&mut wa);
        back.snapshot(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn federation_restore_rejects_mismatched_config() {
        let cfg = FederationConfig::even_split(2, 24);
        let f = Federation::new(&cfg, 24);
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let bytes = w.into_bytes();
        // Wrong shard count.
        let other = FederationConfig::even_split(3, 24);
        assert!(Federation::restore(&mut SnapReader::new(&bytes), &other).is_err());
        // Right count, wrong shard sizes.
        let skewed = FederationConfig {
            shards: vec![
                crate::ShardSpec {
                    name: "a".into(),
                    nodes: 20,
                },
                crate::ShardSpec {
                    name: "b".into(),
                    nodes: 4,
                },
            ],
            policy: cfg.policy.clone(),
        };
        assert!(Federation::restore(&mut SnapReader::new(&bytes), &skewed).is_err());
    }

    #[test]
    fn note_job_registers_routing_metadata_idempotently() {
        use hws_workload::job::JobSpecBuilder;
        let cfg = FederationConfig::even_split(2, 24);
        // Built with no jobs at all: the live-service path.
        let mut f = Federation::new(&cfg, 24);
        let hinted = JobSpecBuilder::rigid(5).size(2).site_hint(1).build();
        f.note_job(&hinted);
        assert!(f.try_allocate_with_reserved(j(5), 2));
        assert_eq!(f.home_of(j(5)), Some(1), "hint came from note_job");
        // Re-noting with different metadata keeps the first registration.
        let mut renote = hinted.clone();
        renote.site_hint = Some(0);
        f.note_job(&renote);
        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let back =
            Federation::restore(&mut SnapReader::new(&w.into_bytes()), &cfg).expect("decodes");
        assert_eq!(back.home_of(j(5)), Some(1));
        // A bare cluster accepts note_job as a no-op.
        let mut c = Cluster::new(8);
        c.note_job(&hinted);
        assert_eq!(c.free_count(), 8);
    }
}
