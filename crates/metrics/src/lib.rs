//! # hws-metrics — measurement for hybrid-workload simulations
//!
//! Implements the paper's §IV-D metrics:
//!
//! 1. **Job turnaround time** (submission → completion), overall and per
//!    job class;
//! 2. **On-demand instant-start rate** — the share of on-demand jobs that
//!    launch within the two-minute vacate window of their arrival (plus a
//!    strict `delay == 0` variant);
//! 3. **Preemption ratio** per class — the share of rigid/malleable jobs
//!    preempted at least once;
//! 4. **System utilization** — occupied node-time minus computation wasted
//!    by preemption (lost work segments, drain windows, repeated setups),
//!    over `N × span`.
//!
//! A [`Recorder`] receives callbacks from the simulation driver;
//! [`Metrics::compute`] folds the records into the report. `MetricsAvg`
//! averages reports across seeds the way the paper averages ten traces.

pub mod classes;
pub mod latency;
pub mod outage;
pub mod record;
pub mod reward;
pub mod shard;
pub mod summary;
pub mod table;

pub use classes::{ClassAcc, ClassBreakdown, ClassStats};
pub use latency::LatencyHistogram;
pub use outage::OutageReport;
pub use record::{JobRecord, Recorder};
pub use reward::{RewardKind, RewardSpec};
pub use shard::{ShardStat, ShardTotals};
pub use summary::{KindStats, Metrics, MetricsAcc, MetricsAvg};
pub use table::Table;
