//! Raw per-job and system-level measurements, populated by the simulation
//! driver through narrow callbacks.

use crate::classes::ClassAcc;
use crate::summary::MetricsAcc;
use hws_sim::snap::{SnapError, SnapReader, SnapWriter};
use hws_sim::{SimDuration, SimTime};
use hws_workload::{IdMap, JobClass, JobId, JobKind, NoticeCategory};
use std::collections::{BTreeMap, BTreeSet};

/// Everything measured about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub kind: JobKind,
    /// Capability/capacity class (orthogonal to `kind`; `Capacity` for
    /// every job of the paper's two-class workload).
    pub class: JobClass,
    /// Requested size (the maximum for malleable jobs).
    pub size: u32,
    pub submit: SimTime,
    pub first_start: Option<SimTime>,
    pub finish: Option<SimTime>,
    /// Times this job was preempted (kills for rigid, warnings for
    /// malleable, squatter evictions included).
    pub preemptions: u32,
    /// Shrink operations applied while running.
    pub shrinks: u32,
    /// Expand operations applied while running.
    pub expands: u32,
    /// For on-demand jobs: `first_start - submit`.
    pub start_delay: Option<SimDuration>,
    /// Advance-notice category (meaningful for on-demand jobs).
    pub category: NoticeCategory,
    /// True when the job exceeded its runtime estimate and was killed.
    pub killed: bool,
    /// Node failures this job absorbed (failure-injection extension).
    pub failures: u32,
}

impl JobRecord {
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.since(self.submit))
    }

    /// Queueing delay before the first start.
    pub fn wait(&self) -> Option<SimDuration> {
        self.first_start.map(|s| s.since(self.submit))
    }

    /// Bounded slowdown with the conventional 10-second runtime floor:
    /// `max(turnaround / max(runtime, 10 s), 1)`.
    pub fn bounded_slowdown(&self) -> Option<f64> {
        let tat = self.turnaround()?.as_secs() as f64;
        let run = self.finish?.since(self.first_start?).as_secs().max(10) as f64;
        Some((tat / run).max(1.0))
    }

    pub fn completed(&self) -> bool {
        self.finish.is_some() && !self.killed
    }

    fn encode_snap(&self, w: &mut SnapWriter) {
        w.put_u8(match self.kind {
            JobKind::Rigid => 0,
            JobKind::OnDemand => 1,
            JobKind::Malleable => 2,
        });
        w.put_u8(match self.class {
            JobClass::Capacity => 0,
            JobClass::Capability => 1,
        });
        w.put_u32(self.size);
        w.put_u64(self.submit.0);
        w.put_opt_u64(self.first_start.map(|t| t.0));
        w.put_opt_u64(self.finish.map(|t| t.0));
        w.put_u32(self.preemptions);
        w.put_u32(self.shrinks);
        w.put_u32(self.expands);
        w.put_opt_u64(self.start_delay.map(|d| d.0));
        w.put_u8(match self.category {
            NoticeCategory::NoNotice => 0,
            NoticeCategory::Accurate => 1,
            NoticeCategory::Early => 2,
            NoticeCategory::Late => 3,
        });
        w.put_bool(self.killed);
        w.put_u32(self.failures);
    }

    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let kind = match r.get_u8()? {
            0 => JobKind::Rigid,
            1 => JobKind::OnDemand,
            2 => JobKind::Malleable,
            t => return Err(r.err(format!("bad job kind tag {t}"))),
        };
        let class = match r.get_u8()? {
            0 => JobClass::Capacity,
            1 => JobClass::Capability,
            t => return Err(r.err(format!("bad job class tag {t}"))),
        };
        let size = r.get_u32()?;
        let submit = SimTime(r.get_u64()?);
        let first_start = r.get_opt_u64()?.map(SimTime);
        let finish = r.get_opt_u64()?.map(SimTime);
        let preemptions = r.get_u32()?;
        let shrinks = r.get_u32()?;
        let expands = r.get_u32()?;
        let start_delay = r.get_opt_u64()?.map(SimDuration);
        let category = match r.get_u8()? {
            0 => NoticeCategory::NoNotice,
            1 => NoticeCategory::Accurate,
            2 => NoticeCategory::Early,
            3 => NoticeCategory::Late,
            t => return Err(r.err(format!("bad notice category tag {t}"))),
        };
        let killed = r.get_bool()?;
        let failures = r.get_u32()?;
        Ok(JobRecord {
            kind,
            class,
            size,
            submit,
            first_start,
            finish,
            preemptions,
            shrinks,
            expands,
            start_delay,
            category,
            killed,
            failures,
        })
    }
}

/// What happens to a job's record once the job retires.
// One `Retention` lives per `Recorder` (one per run), so the unused
// bytes a `Retain`-mode recorder carries for the `Stream` payload are
// irrelevant; boxing would only add an indirection on the fold path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Retention {
    /// Keep every record for the run's lifetime (the classic mode: CSV
    /// export, per-job inspection, batch metric folds).
    Retain,
    /// Fold records into the metric accumulators as jobs retire, in job-id
    /// order, and drop them — O(active jobs) resident memory.
    ///
    /// Bitwise equality with [`Retention::Retain`] rests on two facts:
    /// submissions arrive in ascending id order (asserted), and a record
    /// is folded only once every smaller id has been folded — so the float
    /// summation sequence is exactly the batch fold's id-ordered sequence.
    Stream {
        acc: MetricsAcc,
        classes: ClassAcc,
        /// Retired records waiting for every smaller id to retire.
        done: BTreeMap<JobId, JobRecord>,
        /// Submitted-but-not-retired ids; the minimum blocks the fold.
        live: BTreeSet<JobId>,
        /// Largest id submitted so far (ascending-order assert).
        last_id: Option<JobId>,
        /// Records folded and dropped so far.
        folded: u64,
    },
}

/// Collects measurements during one simulation run.
#[derive(Debug, Clone)]
pub struct Recorder {
    pub system_size: u32,
    retention: Retention,
    records: IdMap<JobRecord>,
    /// Node-seconds any job occupied (work + setup + checkpoint + drain).
    occupied_node_seconds: u128,
    /// Node-seconds of computation discarded because of preemption.
    wasted_node_seconds: u128,
    first_submit: Option<SimTime>,
    last_finish: Option<SimTime>,
    /// Any capability-class job submitted? Lets two-class runs skip the
    /// per-class breakdown entirely.
    saw_capability: bool,
}

impl Recorder {
    pub fn new(system_size: u32) -> Self {
        Recorder {
            system_size,
            retention: Retention::Retain,
            records: IdMap::default(),
            occupied_node_seconds: 0,
            wasted_node_seconds: 0,
            first_submit: None,
            last_finish: None,
            saw_capability: false,
        }
    }

    /// A recorder that folds each job's record into the metric
    /// accumulators when the job [retires](Recorder::retire) and drops it,
    /// keeping resident memory O(active jobs). `instant_threshold` must
    /// match the one later passed to `Metrics::compute`.
    ///
    /// Requires submissions in ascending job-id order (asserted) — the
    /// order traces are numbered in. Per-job queries (`get`, `jobs_csv`)
    /// only see jobs not yet folded.
    pub fn streaming(system_size: u32, instant_threshold: SimDuration) -> Self {
        let mut r = Recorder::new(system_size);
        r.retention = Retention::Stream {
            acc: MetricsAcc::new(instant_threshold),
            classes: ClassAcc::default(),
            done: BTreeMap::new(),
            live: BTreeSet::new(),
            last_id: None,
            folded: 0,
        };
        r
    }

    /// Declare `id`'s record final: no further callback will reference it.
    /// A no-op when retaining; in streaming mode the record folds into the
    /// accumulators as soon as every smaller id has also retired.
    pub fn retire(&mut self, id: JobId) {
        if let Retention::Stream {
            acc,
            classes,
            done,
            live,
            folded,
            ..
        } = &mut self.retention
        {
            let r = self
                .records
                .remove(&id)
                .unwrap_or_else(|| panic!("{id} retired but never submitted"));
            live.remove(&id);
            done.insert(id, r);
            // Fold the ready prefix: everything below the smallest live id
            // (all smaller ids were submitted earlier and have retired).
            while let Some(entry) = done.first_entry() {
                if live.first().is_some_and(|l| l < entry.key()) {
                    break;
                }
                let (_, r) = entry.remove_entry();
                acc.push(&r);
                classes.push(&r);
                *folded += 1;
            }
        }
    }

    /// The streaming fold of retired records, when in streaming mode.
    pub(crate) fn metrics_acc(&self) -> Option<&MetricsAcc> {
        match &self.retention {
            Retention::Stream { acc, .. } => Some(acc),
            Retention::Retain => None,
        }
    }

    /// The streaming per-class fold, when in streaming mode.
    pub(crate) fn class_acc(&self) -> Option<&ClassAcc> {
        match &self.retention {
            Retention::Stream { classes, .. } => Some(classes),
            Retention::Retain => None,
        }
    }

    /// Records not yet folded into the streaming accumulators: all records
    /// when retaining; live jobs plus the fold's waiting buffer when
    /// streaming. Unordered — callers sort by id.
    pub(crate) fn unfolded(&self) -> impl Iterator<Item = (JobId, &JobRecord)> {
        let pending = match &self.retention {
            Retention::Stream { done, .. } => Some(done),
            Retention::Retain => None,
        };
        self.records.iter().map(|(id, r)| (*id, r)).chain(
            pending
                .into_iter()
                .flat_map(|d| d.iter().map(|(id, r)| (*id, r))),
        )
    }

    pub fn job_submitted(&mut self, id: JobId, kind: JobKind, size: u32, t: SimTime) {
        self.job_submitted_with_category(id, kind, size, t, NoticeCategory::NoNotice);
    }

    pub fn job_submitted_with_category(
        &mut self,
        id: JobId,
        kind: JobKind,
        size: u32,
        t: SimTime,
        category: NoticeCategory,
    ) {
        self.job_submitted_full(id, kind, JobClass::Capacity, size, t, category);
    }

    /// Full submission record, including the capability/capacity class.
    /// The narrower `job_submitted*` entry points default to
    /// [`JobClass::Capacity`].
    pub fn job_submitted_full(
        &mut self,
        id: JobId,
        kind: JobKind,
        class: JobClass,
        size: u32,
        t: SimTime,
        category: NoticeCategory,
    ) {
        self.first_submit = Some(self.first_submit.map_or(t, |f| f.min(t)));
        self.saw_capability |= class == JobClass::Capability;
        if let Retention::Stream { live, last_id, .. } = &mut self.retention {
            assert!(
                last_id.is_none_or(|p| p < id),
                "streaming recorder requires ascending job-id submissions ({id} after {last_id:?})"
            );
            *last_id = Some(id);
            live.insert(id);
        }
        self.records.entry(id).or_insert(JobRecord {
            kind,
            class,
            size,
            submit: t,
            first_start: None,
            finish: None,
            preemptions: 0,
            shrinks: 0,
            expands: 0,
            start_delay: None,
            category,
            killed: false,
            failures: 0,
        });
    }

    pub fn job_failed(&mut self, id: JobId) {
        self.rec(id).failures += 1;
    }

    pub fn job_started(&mut self, id: JobId, t: SimTime) {
        let r = self.rec(id);
        if r.first_start.is_none() {
            r.first_start = Some(t);
            let delay = t.since(r.submit);
            if r.kind == JobKind::OnDemand {
                r.start_delay = Some(delay);
            }
        }
    }

    pub fn job_preempted(&mut self, id: JobId) {
        self.rec(id).preemptions += 1;
    }

    pub fn job_shrunk(&mut self, id: JobId) {
        self.rec(id).shrinks += 1;
    }

    pub fn job_expanded(&mut self, id: JobId) {
        self.rec(id).expands += 1;
    }

    pub fn job_finished(&mut self, id: JobId, t: SimTime) {
        self.rec(id).finish = Some(t);
        self.last_finish = Some(self.last_finish.map_or(t, |f| f.max(t)));
    }

    pub fn job_killed(&mut self, id: JobId, t: SimTime) {
        let r = self.rec(id);
        r.finish = Some(t);
        r.killed = true;
        self.last_finish = Some(self.last_finish.map_or(t, |f| f.max(t)));
    }

    /// Account `nodes × dur` of node occupancy.
    pub fn add_occupancy(&mut self, nodes: u32, dur: SimDuration) {
        self.occupied_node_seconds += u128::from(nodes) * u128::from(dur.as_secs());
    }

    /// Account computation discarded due to preemption.
    pub fn add_waste(&mut self, nodes: u32, dur: SimDuration) {
        self.wasted_node_seconds += u128::from(nodes) * u128::from(dur.as_secs());
    }

    fn rec(&mut self, id: JobId) -> &mut JobRecord {
        self.records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("{id} was never submitted"))
    }

    pub fn get(&self, id: JobId) -> Option<&JobRecord> {
        self.records.get(&id)
    }

    pub fn records(&self) -> impl Iterator<Item = (&JobId, &JobRecord)> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn occupied_node_seconds(&self) -> u128 {
        self.occupied_node_seconds
    }

    pub fn wasted_node_seconds(&self) -> u128 {
        self.wasted_node_seconds
    }

    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        Some((self.first_submit?, self.last_finish?))
    }

    /// Whether any capability-class job was submitted — an O(1) guard so
    /// two-class runs never pay for a per-class breakdown.
    pub fn saw_capability(&self) -> bool {
        self.saw_capability
    }

    /// Serialize a **retaining** recorder: every record (sorted by job
    /// id), the occupancy/waste accumulators and the run span, byte-exact. Streaming recorders hold partial
    /// float folds that cannot round-trip losslessly mid-stream, so the
    /// live scheduler service (the snapshot consumer) always retains.
    ///
    /// # Panics
    ///
    /// Panics when the recorder is in streaming mode.
    pub fn encode_snap(&self, w: &mut SnapWriter) {
        assert!(
            matches!(self.retention, Retention::Retain),
            "snapshotting a streaming recorder is not supported"
        );
        w.put_u32(self.system_size);
        let mut ids: Vec<JobId> = self.records.keys().copied().collect();
        ids.sort();
        w.put_len(ids.len());
        for id in ids {
            w.put_u64(id.0);
            self.records[&id].encode_snap(w);
        }
        w.put_u64(self.occupied_node_seconds as u64);
        w.put_u64((self.occupied_node_seconds >> 64) as u64);
        w.put_u64(self.wasted_node_seconds as u64);
        w.put_u64((self.wasted_node_seconds >> 64) as u64);
        w.put_opt_u64(self.first_submit.map(|t| t.0));
        w.put_opt_u64(self.last_finish.map(|t| t.0));
        w.put_bool(self.saw_capability);
    }

    /// Decode a recorder written by [`Recorder::encode_snap`]. Malformed
    /// input errors, never panics.
    pub fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let system_size = r.get_u32()?;
        let n = r.get_len()?;
        let mut records = IdMap::with_capacity_and_hasher(n, Default::default());
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let id = r.get_u64()?;
            if prev.is_some_and(|p| p >= id) {
                return Err(r.err(format!("job records not strictly sorted at {id}")));
            }
            prev = Some(id);
            records.insert(JobId(id), JobRecord::decode_snap(r)?);
        }
        let occupied = u128::from(r.get_u64()?) | (u128::from(r.get_u64()?) << 64);
        let wasted = u128::from(r.get_u64()?) | (u128::from(r.get_u64()?) << 64);
        let first_submit = r.get_opt_u64()?.map(SimTime);
        let last_finish = r.get_opt_u64()?.map(SimTime);
        let saw_capability = r.get_bool()?;
        Ok(Recorder {
            system_size,
            retention: Retention::Retain,
            records,
            occupied_node_seconds: occupied,
            wasted_node_seconds: wasted,
            first_submit,
            last_finish,
            saw_capability,
        })
    }

    /// Export one CSV row per job (sorted by id) for external analysis.
    pub fn jobs_csv(&self) -> String {
        let mut rows: Vec<(&JobId, &JobRecord)> = self.records.iter().collect();
        rows.sort_by_key(|(id, _)| **id);
        let mut out = String::from(
            "id,kind,category,size,submit,first_start,finish,wait_s,turnaround_s,\
preemptions,shrinks,expands,failures,killed,class\n",
        );
        for (id, r) in rows {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                id.0,
                r.kind.label(),
                r.category.label(),
                r.size,
                r.submit.as_secs(),
                r.first_start
                    .map_or(String::new(), |t| t.as_secs().to_string()),
                r.finish.map_or(String::new(), |t| t.as_secs().to_string()),
                r.wait().map_or(String::new(), |d| d.as_secs().to_string()),
                r.turnaround()
                    .map_or(String::new(), |d| d.as_secs().to_string()),
                r.preemptions,
                r.shrinks,
                r.expands,
                r.failures,
                r.killed,
                r.class.label(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lifecycle_is_tracked() {
        let mut r = Recorder::new(100);
        r.job_submitted(JobId(1), JobKind::Rigid, 10, t(100));
        r.job_started(JobId(1), t(200));
        r.job_preempted(JobId(1));
        r.job_started(JobId(1), t(400)); // restart does not move first_start
        r.job_finished(JobId(1), t(900));
        let rec = r.get(JobId(1)).unwrap();
        assert_eq!(rec.first_start, Some(t(200)));
        assert_eq!(rec.preemptions, 1);
        assert_eq!(rec.turnaround(), Some(SimDuration::from_secs(800)));
        assert!(rec.completed());
        assert_eq!(r.span(), Some((t(100), t(900))));
    }

    #[test]
    fn on_demand_start_delay() {
        let mut r = Recorder::new(100);
        r.job_submitted(JobId(2), JobKind::OnDemand, 10, t(1_000));
        r.job_started(JobId(2), t(1_090));
        assert_eq!(
            r.get(JobId(2)).unwrap().start_delay,
            Some(SimDuration::from_secs(90))
        );
    }

    #[test]
    fn rigid_jobs_have_no_start_delay_metric() {
        let mut r = Recorder::new(100);
        r.job_submitted(JobId(3), JobKind::Rigid, 10, t(0));
        r.job_started(JobId(3), t(50));
        assert_eq!(r.get(JobId(3)).unwrap().start_delay, None);
    }

    #[test]
    fn occupancy_and_waste_accumulate() {
        let mut r = Recorder::new(100);
        r.add_occupancy(10, SimDuration::from_secs(100));
        r.add_occupancy(5, SimDuration::from_secs(10));
        r.add_waste(3, SimDuration::from_secs(7));
        assert_eq!(r.occupied_node_seconds(), 1_050);
        assert_eq!(r.wasted_node_seconds(), 21);
    }

    #[test]
    fn killed_jobs_are_not_completed() {
        let mut r = Recorder::new(100);
        r.job_submitted(JobId(4), JobKind::Rigid, 10, t(0));
        r.job_started(JobId(4), t(1));
        r.job_killed(JobId(4), t(100));
        let rec = r.get(JobId(4)).unwrap();
        assert!(rec.killed);
        assert!(!rec.completed());
        assert!(rec.finish.is_some());
    }

    #[test]
    #[should_panic(expected = "never submitted")]
    fn starting_unknown_job_panics() {
        let mut r = Recorder::new(1);
        r.job_started(JobId(9), t(0));
    }

    #[test]
    fn jobs_csv_exports_rows() {
        let mut r = Recorder::new(10);
        r.job_submitted(JobId(1), JobKind::Rigid, 4, t(100));
        r.job_started(JobId(1), t(200));
        r.job_finished(JobId(1), t(500));
        r.job_submitted(JobId(0), JobKind::OnDemand, 2, t(50));
        let csv = r.jobs_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("id,kind,category"));
        // Sorted by id: job 0 first, never started → empty fields.
        assert!(lines[1].starts_with("0,on-demand,no-notice,2,50,,"));
        assert!(lines[2].starts_with("1,rigid,no-notice,4,100,200,500,100,400,"));
    }

    fn busy_recorder() -> Recorder {
        let mut r = Recorder::new(128);
        r.job_submitted_full(
            JobId(3),
            JobKind::OnDemand,
            JobClass::Capability,
            16,
            t(50),
            NoticeCategory::Early,
        );
        r.job_submitted(JobId(7), JobKind::Malleable, 32, t(60));
        r.job_started(JobId(3), t(55));
        r.job_started(JobId(7), t(80));
        r.job_shrunk(JobId(7));
        r.job_expanded(JobId(7));
        r.job_preempted(JobId(7));
        r.job_failed(JobId(7));
        r.job_finished(JobId(3), t(500));
        r.job_killed(JobId(7), t(700));
        r.add_occupancy(16, SimDuration::from_secs(445));
        r.add_waste(4, SimDuration::from_secs(20));
        r
    }

    fn encode(r: &Recorder) -> Vec<u8> {
        let mut w = hws_sim::SnapWriter::new();
        r.encode_snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snap_codec_round_trips_every_field() {
        let r = busy_recorder();
        let bytes = encode(&r);
        let mut rd = hws_sim::SnapReader::new(&bytes);
        let back = Recorder::decode_snap(&mut rd).expect("decodes");
        rd.expect_end().expect("consumed exactly");
        assert_eq!(back.system_size, r.system_size);
        assert_eq!(back.get(JobId(3)), r.get(JobId(3)));
        assert_eq!(back.get(JobId(7)), r.get(JobId(7)));
        assert_eq!(back.occupied_node_seconds(), r.occupied_node_seconds());
        assert_eq!(back.wasted_node_seconds(), r.wasted_node_seconds());
        assert_eq!(back.span(), r.span());
        assert_eq!(back.saw_capability(), r.saw_capability());
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
        assert_eq!(back.jobs_csv(), r.jobs_csv());
    }

    #[test]
    fn snap_decode_rejects_truncation() {
        let bytes = encode(&busy_recorder());
        for cut in 0..bytes.len() {
            let mut rd = hws_sim::SnapReader::new(&bytes[..cut]);
            assert!(
                Recorder::decode_snap(&mut rd).is_err() || rd.expect_end().is_err(),
                "truncation at {cut} must not decode cleanly"
            );
        }
    }

    /// A record count of 2³² − 1 with only a few bytes left errors
    /// instead of sizing an allocation.
    #[test]
    fn huge_record_count_errors_instead_of_aborting() {
        let mut w = hws_sim::SnapWriter::new();
        w.put_u32(64);
        w.put_u64(0xFFFF_FFFF);
        w.put_u64(1);
        let bytes = w.into_bytes();
        let err = Recorder::decode_snap(&mut hws_sim::SnapReader::new(&bytes)).unwrap_err();
        assert!(err.what.contains("implausible length"), "{err}");
    }

    #[test]
    #[should_panic(expected = "streaming recorder")]
    fn snapshotting_streaming_recorder_panics() {
        let r = Recorder::streaming(10, SimDuration::from_secs(60));
        let mut w = hws_sim::SnapWriter::new();
        r.encode_snap(&mut w);
    }
}
