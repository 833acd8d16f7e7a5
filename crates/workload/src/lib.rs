//! # hws-workload — job model and synthetic Theta-like workload generator
//!
//! The paper evaluates on a proprietary one-year Cobalt trace from Theta
//! (ALCF, 2019): 4,392 KNL nodes, 37,298 jobs, 211 projects, runtimes up to
//! one day, sizes of at least 128 nodes. That trace is not public, so this
//! crate builds a **calibrated synthetic equivalent** (see `DESIGN.md` §4):
//!
//! * project-structured submissions with Zipf-skewed activity,
//! * bursty per-project sessions (reproducing the paper's Fig. 5 on-demand
//!   burst pattern),
//! * the published size mix (Fig. 3) and runtime bounds (Table I),
//! * job-type assignment *by project* (10 % on-demand / 60 % rigid / 30 %
//!   malleable projects, §IV-B) with large on-demand jobs reassigned,
//! * the four advance-notice categories of Fig. 1 mixed per Table III
//!   (workloads W1–W5).
//!
//! Everything is deterministic given a seed.

pub mod dist;
pub mod gen;
pub mod ids;
pub mod job;
pub mod knobs;
pub mod outage;
pub mod source;
pub mod stats;
pub mod sublog;
pub mod swf;
pub mod trace;

pub use gen::{NoticeMix, TraceConfig};
pub use ids::{JobId, ProjectId};
pub use job::{JobClass, JobKind, JobSpec, NoticeCategory, NoticeSpec};
pub use knobs::{BackfillLevel, KnobVector, PlacementChoice, CKPT_MULT_MAX, CKPT_MULT_MIN};
pub use outage::{MaintenanceWindow, OutageEvent, OutageKind, OutageSchedule};
pub use source::{JobSource, MaterializedSource, SwfStreamSource};
pub use sublog::{earliest_event, LogEntry, SubmissionLog, SubmitOp};
pub use swf::{
    import_swf, import_swf_reader, to_swf, to_swf_writer, SwfError, SwfExportConfig,
    SwfImportConfig,
};
pub use trace::Trace;
