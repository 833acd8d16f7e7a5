//! The [`ClusterBackend`] abstraction: everything the scheduler driver
//! needs from a resource manager, as a trait.
//!
//! [`Cluster`] is the single-machine implementation (the paper's model);
//! [`Federation`](crate::Federation) dispatches over several named
//! `Cluster` shards behind the same contract. The driver
//! (`hws-core`'s `SimCore`) is generic over this trait, so every
//! mechanism, queue policy, and metric works unchanged on either backend.
//!
//! ## Contract (see DESIGN.md §10)
//!
//! * **Jobs never span shards.** Every allocation, reservation, squat,
//!   shrink, and preemption is local to one shard; a multi-shard backend
//!   routes each operation to the job's shard.
//! * **Sticky placement.** Once a job has touched a shard (reservation or
//!   allocation), it stays there across preempt/resume cycles — checkpoint
//!   data is shard-local, so migrating a preempted job would forfeit it.
//! * **Aggregate queries are upper bounds.** [`free_count`] sums over
//!   shards; a job cannot necessarily use that many nodes at once. The
//!   per-job queries ([`avail_for`], [`backfill_avail_for`]) answer the
//!   question the scheduler actually asks — "how many nodes could *this*
//!   job get on one shard right now" — and on a single cluster they reduce
//!   exactly to the classic `free + own-reserved` arithmetic.
//! * **Determinism.** Given the same operation sequence, a backend must
//!   make identical placement decisions; the multi-seed sweep depends on
//!   per-seed bitwise reproducibility.
//!
//! [`free_count`]: ClusterBackend::free_count
//! [`avail_for`]: ClusterBackend::avail_for
//! [`backfill_avail_for`]: ClusterBackend::backfill_avail_for

use crate::node::{NodeId, NodeState};
use crate::{Cluster, ReleaseOutcome};
use hws_workload::{JobId, JobSpec};

/// A resource manager the scheduler driver can run against.
///
/// Object safety is not required (the driver is statically generic), but
/// the squat predicates are `&mut dyn FnMut` so implementations can route
/// them through shard-local scans without monomorphizing per closure.
pub trait ClusterBackend: std::fmt::Debug + Send {
    // ------------------------------------------------------------------
    // Shape
    // ------------------------------------------------------------------

    /// Total nodes across all shards.
    fn total_nodes(&self) -> u32;

    /// Number of shards (1 for a single cluster).
    fn shard_count(&self) -> usize {
        1
    }

    /// Shard names, `None` for a single (unnamed) cluster. `Some` is the
    /// driver's cue to maintain per-shard statistics.
    fn shard_labels(&self) -> Option<Vec<String>> {
        None
    }

    /// Node count of shard `i` (the whole machine for a single cluster).
    fn shard_nodes(&self, i: usize) -> u32 {
        assert_eq!(i, 0, "single cluster has exactly one shard");
        self.total_nodes()
    }

    /// The shard a job is currently placed on (allocation or reservation),
    /// if the backend distinguishes shards at all. A single cluster always
    /// answers `None`: there is nothing to distinguish, and the driver
    /// treats `None` as "no shard filtering".
    fn shard_of(&self, job: JobId) -> Option<usize>;

    /// The shard `job`'s *prospective* availability refers to: its home
    /// when placed, else the shard [`ClusterBackend::avail_for`] answered
    /// for. The driver projects the EASY shadow against this shard only —
    /// releases elsewhere can never reach the job. `None` (the single
    /// cluster) disables the filtering.
    fn placement_shard(&self, job: JobId) -> Option<usize> {
        self.shard_of(job)
    }

    /// The largest node count any single job could ever be granted (the
    /// biggest shard). Jobs above this bound can never start and must be
    /// rejected at submission, or they would wait forever.
    fn max_job_size(&self) -> u32;

    /// Register workload metadata for one job before any placement query
    /// about it. The driver calls this as it injects each job, in batch
    /// replay and in the live scheduler service alike. Idempotent —
    /// re-noting a known job keeps the first registration. A single
    /// cluster has no routing decisions to inform, so the default is a
    /// no-op.
    fn note_job(&mut self, _spec: &JobSpec) {}

    // ------------------------------------------------------------------
    // Aggregate accounting (upper bounds across shards)
    // ------------------------------------------------------------------

    /// Plain free nodes across all shards.
    fn free_count(&self) -> u32;

    /// Plain free nodes on shard `i` (the machine-wide count for a
    /// single cluster). Observation-side accounting only — allocation
    /// paths go through the per-job availability queries below.
    fn shard_free_nodes(&self, i: usize) -> u32 {
        assert_eq!(i, 0, "single cluster has exactly one shard");
        self.free_count()
    }

    /// Idle nodes reserved for `holder` (shard-local by construction).
    fn reserved_idle_count(&self, holder: JobId) -> u32;

    /// Idle reserved nodes across all holders and shards. O(shards).
    fn total_reserved_idle(&self) -> u32;

    /// Nodes currently allocated to `job` (0 if not running).
    fn size_of(&self, job: JobId) -> u32;

    fn is_running(&self, job: JobId) -> bool;

    /// Visit every running job, in the backend's internal order. Callers
    /// needing a deterministic order must sort what they collect (job ids
    /// are totally ordered); the driver's victim scans do.
    fn for_each_running(&self, f: &mut dyn FnMut(JobId));

    /// A running job's `(plain busy, squatted)` node split. O(1).
    fn split_of(&self, job: JobId) -> (u32, u32);

    /// Visit every running job with a non-zero *plain* (non-squatted)
    /// node count — the jobs whose release feeds the free pool — yielding
    /// that count, restricted to `shard` when given. Iteration order is
    /// the backend's internal order, as for
    /// [`ClusterBackend::for_each_running`]; the one hot caller (the EASY
    /// shadow projection) sorts what it collects. Concrete backends
    /// override this with a single walk of their split counters instead of
    /// a per-job `split_of` lookup.
    fn for_each_plain_split(&self, shard: Option<usize>, f: &mut dyn FnMut(JobId, u32)) {
        self.for_each_running(&mut |j| {
            if shard.is_some() && self.shard_of(j) != shard {
                return;
            }
            let (plain, _) = self.split_of(j);
            if plain > 0 {
                f(j, plain);
            }
        });
    }

    /// Jobs squatting on `holder`'s reserved nodes, in job-id order.
    fn squatters(&self, holder: JobId) -> Vec<(JobId, u32)>;

    // ------------------------------------------------------------------
    // Per-job availability (the scheduler's fits-checks)
    // ------------------------------------------------------------------

    /// Nodes `job` could start on right now without squatting: free nodes
    /// plus its own idle reservation, co-located on one shard. On a single
    /// cluster this is exactly `free_count() + reserved_idle_count(job)`;
    /// a federation answers for the job's shard (or its best feasible
    /// shard when the job is not yet placed).
    fn avail_for(&self, job: JobId) -> u32;

    /// Like [`ClusterBackend::avail_for`] for a job with no reservation of
    /// its own, additionally counting idle reserved nodes whose holder
    /// satisfies `squat_allowed` (single-shard co-located). On a single
    /// cluster: `free_count() + squattable_idle(squat_allowed)`.
    fn backfill_avail_for(&self, job: JobId, squat_allowed: &mut dyn FnMut(JobId) -> bool) -> u32;

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate `k` plain free nodes for `job`. Returns success.
    fn try_allocate(&mut self, job: JobId, k: u32) -> bool;

    /// Allocate `k` nodes for `job`, consuming its own idle reservation
    /// first and topping up from the free pool (one shard). Returns
    /// success; on failure nothing changes.
    fn try_allocate_with_reserved(&mut self, job: JobId, k: u32) -> bool;

    /// Allocate `k` nodes for a backfill job, squatting on idle reserved
    /// nodes whose holder satisfies `squat_allowed` when the free pool
    /// falls short (one shard). Returns the holders squatted on.
    fn try_allocate_backfill(
        &mut self,
        job: JobId,
        k: u32,
        squat_allowed: &mut dyn FnMut(JobId) -> bool,
    ) -> Option<Vec<(JobId, u32)>>;

    /// Release all of `job`'s nodes (plain → free pool, squatted → their
    /// holders' reservations).
    fn release(&mut self, job: JobId) -> ReleaseOutcome;

    /// Malleable shrink by `k` nodes, surrendering plain nodes first.
    fn shrink(&mut self, job: JobId, k: u32) -> ReleaseOutcome;

    /// Malleable expand by up to `k` nodes from the job's shard's free
    /// pool. Returns nodes actually added.
    fn expand(&mut self, job: JobId, k: u32) -> u32;

    // ------------------------------------------------------------------
    // Reservations
    // ------------------------------------------------------------------

    /// Move up to `k` free nodes into `holder`'s reservation (pinning the
    /// holder to a shard on first contact). Returns nodes reserved.
    fn reserve(&mut self, holder: JobId, k: u32) -> u32;

    /// Move up to `k` idle reserved nodes from `from` to `to`. Cross-shard
    /// transfers are impossible (nodes cannot change machines) and return
    /// 0. Returns nodes transferred.
    fn transfer_reserved(&mut self, from: JobId, to: JobId, k: u32) -> u32;

    /// Drop `holder`'s reservation; idle reserved nodes return to the free
    /// pool, squatters keep running. Returns nodes freed.
    fn release_reservation(&mut self, holder: JobId) -> u32;

    // ------------------------------------------------------------------
    // Availability (outage engine)
    // ------------------------------------------------------------------

    /// Nodes currently out of service across all shards.
    fn down_nodes(&self) -> u32 {
        0
    }

    /// Nodes in service across all shards.
    fn live_nodes(&self) -> u32 {
        self.total_nodes() - self.down_nodes()
    }

    /// In-service node count of shard `i`.
    fn shard_live_nodes(&self, i: usize) -> u32 {
        assert_eq!(i, 0, "single cluster has exactly one shard");
        self.live_nodes()
    }

    /// The largest node count any single job could be granted at *current*
    /// live capacity (the biggest shard's in-service count). Unlike
    /// [`ClusterBackend::max_job_size`] this moves with outages; the
    /// driver uses it to decide when a blocked oversized job has become
    /// permanently infeasible.
    fn live_max_job_size(&self) -> u32 {
        self.live_nodes()
    }

    /// Authoritative state of node `node` of shard `shard` (`None` when
    /// out of range).
    fn node_state(&self, shard: usize, node: NodeId) -> Option<NodeState>;

    /// Graceful drain: a free node leaves service immediately, an occupied
    /// or reserved one is marked and leaves when next freed. Returns
    /// `true` when the node is down after the call. Idempotent.
    fn drain_node(&mut self, shard: usize, node: NodeId) -> bool;

    /// Hard outage on an idle reserved node: pull it out of `holder`'s
    /// reservation and take it down. Returns `false` if the node is not an
    /// idle reserved node of `holder` on that shard.
    fn down_reserved_node(&mut self, shard: usize, holder: JobId, node: NodeId) -> bool;

    /// Return a down node to service (or cancel a pending drain mark).
    /// Returns `true` when anything changed. Idempotent.
    fn rejoin_node(&mut self, shard: usize, node: NodeId) -> bool;

    /// Remove one specific node from a running job's allocation (malleable
    /// shrink-away from a lost node); the node is disposed through the
    /// normal release path, so a draining mark takes effect.
    fn release_single_node(&mut self, job: JobId, node: NodeId);

    // ------------------------------------------------------------------
    // Arrival orchestration & checks
    // ------------------------------------------------------------------

    /// An on-demand job is arriving: finalize its placement now so the
    /// arrival plan (victim scans, raids, claims) is computed against one
    /// shard. Returns the shard, or `None` when the backend does not
    /// distinguish shards (single cluster — a no-op).
    fn prepare_arrival(&mut self, od: JobId) -> Option<usize>;

    /// Full-scan consistency check, linear in nodes plus node-list
    /// entries (each shard's, for a federation). Runs after every event
    /// under `paranoid_checks` and on every snapshot restore, where it
    /// costs about 20 µs for 4,392 nodes.
    fn check_invariants(&self) -> Result<(), String>;
}

impl ClusterBackend for Cluster {
    fn total_nodes(&self) -> u32 {
        Cluster::total_nodes(self)
    }

    fn shard_of(&self, _job: JobId) -> Option<usize> {
        None
    }

    fn max_job_size(&self) -> u32 {
        Cluster::total_nodes(self)
    }

    fn free_count(&self) -> u32 {
        Cluster::free_count(self)
    }

    fn reserved_idle_count(&self, holder: JobId) -> u32 {
        Cluster::reserved_idle_count(self, holder)
    }

    fn total_reserved_idle(&self) -> u32 {
        Cluster::total_reserved_idle(self)
    }

    fn size_of(&self, job: JobId) -> u32 {
        Cluster::size_of(self, job)
    }

    fn is_running(&self, job: JobId) -> bool {
        Cluster::is_running(self, job)
    }

    fn for_each_running(&self, f: &mut dyn FnMut(JobId)) {
        for j in self.running_jobs() {
            f(j);
        }
    }

    fn split_of(&self, job: JobId) -> (u32, u32) {
        Cluster::split_of(self, job)
    }

    fn for_each_plain_split(&self, _shard: Option<usize>, f: &mut dyn FnMut(JobId, u32)) {
        Cluster::for_each_plain_split(self, f)
    }

    fn squatters(&self, holder: JobId) -> Vec<(JobId, u32)> {
        Cluster::squatters(self, holder)
    }

    fn avail_for(&self, job: JobId) -> u32 {
        Cluster::free_count(self) + Cluster::reserved_idle_count(self, job)
    }

    fn backfill_avail_for(&self, _job: JobId, squat_allowed: &mut dyn FnMut(JobId) -> bool) -> u32 {
        Cluster::free_count(self) + self.squattable_idle(squat_allowed)
    }

    fn try_allocate(&mut self, job: JobId, k: u32) -> bool {
        self.allocate(job, k).is_some()
    }

    fn try_allocate_with_reserved(&mut self, job: JobId, k: u32) -> bool {
        self.allocate_with_reserved(job, k).is_some()
    }

    fn try_allocate_backfill(
        &mut self,
        job: JobId,
        k: u32,
        squat_allowed: &mut dyn FnMut(JobId) -> bool,
    ) -> Option<Vec<(JobId, u32)>> {
        self.allocate_backfill(job, k, squat_allowed)
    }

    fn release(&mut self, job: JobId) -> ReleaseOutcome {
        Cluster::release(self, job)
    }

    fn shrink(&mut self, job: JobId, k: u32) -> ReleaseOutcome {
        Cluster::shrink(self, job, k)
    }

    fn expand(&mut self, job: JobId, k: u32) -> u32 {
        Cluster::expand(self, job, k)
    }

    fn reserve(&mut self, holder: JobId, k: u32) -> u32 {
        Cluster::reserve(self, holder, k)
    }

    fn transfer_reserved(&mut self, from: JobId, to: JobId, k: u32) -> u32 {
        Cluster::transfer_reserved(self, from, to, k)
    }

    fn release_reservation(&mut self, holder: JobId) -> u32 {
        Cluster::release_reservation(self, holder)
    }

    fn down_nodes(&self) -> u32 {
        Cluster::down_count(self)
    }

    fn node_state(&self, shard: usize, node: NodeId) -> Option<NodeState> {
        assert_eq!(shard, 0, "single cluster has exactly one shard");
        Cluster::node_state(self, node)
    }

    fn drain_node(&mut self, shard: usize, node: NodeId) -> bool {
        assert_eq!(shard, 0, "single cluster has exactly one shard");
        Cluster::drain_node(self, node)
    }

    fn down_reserved_node(&mut self, shard: usize, holder: JobId, node: NodeId) -> bool {
        assert_eq!(shard, 0, "single cluster has exactly one shard");
        Cluster::down_reserved_node(self, holder, node)
    }

    fn rejoin_node(&mut self, shard: usize, node: NodeId) -> bool {
        assert_eq!(shard, 0, "single cluster has exactly one shard");
        Cluster::rejoin_node(self, node)
    }

    fn release_single_node(&mut self, job: JobId, node: NodeId) {
        Cluster::release_single_node(self, job, node)
    }

    fn prepare_arrival(&mut self, _od: JobId) -> Option<usize> {
        None
    }

    fn check_invariants(&self) -> Result<(), String> {
        Cluster::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n)
    }

    /// The trait impl on `Cluster` must agree with the inherent methods —
    /// the driver's fits-checks go through the trait, the tests and
    /// invariants through the inherent API.
    #[test]
    fn cluster_trait_mirrors_inherent_api() {
        let mut c = Cluster::new(16);
        assert_eq!(ClusterBackend::max_job_size(&c), 16);
        assert_eq!(ClusterBackend::shard_count(&c), 1);
        assert_eq!(ClusterBackend::shard_labels(&c), None);
        assert!(c.try_allocate(j(1), 4));
        assert_eq!(ClusterBackend::shard_of(&c, j(1)), None);
        assert_eq!(ClusterBackend::reserve(&mut c, j(9), 6), 6);
        // avail_for = free + own reservation, exactly the classic sum.
        assert_eq!(ClusterBackend::avail_for(&c, j(9)), 6 + 6);
        assert_eq!(ClusterBackend::avail_for(&c, j(2)), 6);
        assert_eq!(c.backfill_avail_for(j(2), &mut |_| true), 12);
        assert_eq!(c.backfill_avail_for(j(2), &mut |_| false), 6);
        let squat = c
            .try_allocate_backfill(j(2), 8, &mut |_| true)
            .expect("fits with squatting");
        assert_eq!(squat, vec![(j(9), 2)]);
        let mut seen = Vec::new();
        c.for_each_running(&mut |id| seen.push(id));
        seen.sort();
        assert_eq!(seen, vec![j(1), j(2)]);
        assert_eq!(ClusterBackend::split_of(&c, j(2)), (6, 2));
        assert!(ClusterBackend::check_invariants(&c).is_ok());
        // No shard ever materializes on a single cluster.
        assert_eq!(c.prepare_arrival(j(3)), None);
    }
}
