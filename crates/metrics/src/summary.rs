//! Folding raw records into the paper's evaluation metrics, and averaging
//! across seeds.

use crate::record::{JobRecord, Recorder};
use hws_sim::SimDuration;
use hws_workload::{JobKind, NoticeCategory};

/// Per-class statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    pub completed: usize,
    pub avg_turnaround_h: f64,
    /// Share of jobs of this class preempted at least once.
    pub preemption_ratio: f64,
}

/// One simulation run's evaluation report (§IV-D).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Mean turnaround over all completed jobs, hours.
    pub avg_turnaround_h: f64,
    pub rigid: KindStats,
    pub on_demand: KindStats,
    pub malleable: KindStats,
    /// Share of on-demand jobs starting within the instant threshold of
    /// their arrival.
    pub instant_start_rate: f64,
    /// Share of on-demand jobs starting at exactly their arrival instant.
    pub strict_instant_rate: f64,
    /// Useful node-time over total elapsed node-time; "excludes wasted
    /// computation due to preemption".
    pub utilization: f64,
    /// Occupancy including waste (for cross-checks and ablations).
    pub raw_occupancy: f64,
    pub completed_jobs: usize,
    pub killed_jobs: usize,
    pub span_hours: f64,
    /// Mean queueing delay before the first start, hours.
    pub avg_wait_h: f64,
    /// Mean bounded slowdown (10-second runtime floor).
    pub avg_bounded_slowdown: f64,
    /// On-demand instant-start rate per notice category, in the order
    /// [no-notice, accurate, early, late]; NaN-free (0 when empty).
    pub instant_by_category: [f64; 4],
    /// Total failures absorbed (failure-injection extension).
    pub total_failures: u64,
}

/// Incremental fold of per-job records into the scalar state behind
/// [`Metrics`]. Records **must** be pushed in ascending job-id order — the
/// float summation sequence is part of the bitwise-determinism contract,
/// and id order is the one the materialized fold has always used.
///
/// [`Metrics::compute`] drives this for both retention modes: a retaining
/// recorder pushes every record at the end (the classic batch fold), a
/// streaming recorder pushes each record as its job retires and only the
/// stragglers at the end — the per-record operation sequence is identical,
/// so the two modes produce bitwise-equal reports.
#[derive(Debug, Clone)]
pub struct MetricsAcc {
    instant_threshold: SimDuration,
    sum_tat: f64,
    n_completed: usize,
    killed: usize,
    /// Per kind: (tat_sum, completed, preempted, total).
    per: [(f64, usize, usize, usize); 3],
    od_total: usize,
    od_instant: usize,
    od_strict: usize,
    wait_sum: f64,
    wait_n: usize,
    slow_sum: f64,
    slow_n: usize,
    cat_inst: [(usize, usize); 4],
    total_failures: u64,
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl MetricsAcc {
    /// `instant_threshold` is the start-delay bound under which an
    /// on-demand start counts as "instant" (the driver passes its
    /// two-minute vacate window).
    pub fn new(instant_threshold: SimDuration) -> Self {
        MetricsAcc {
            instant_threshold,
            sum_tat: 0.0,
            n_completed: 0,
            killed: 0,
            per: [(0.0, 0, 0, 0); 3],
            od_total: 0,
            od_instant: 0,
            od_strict: 0,
            wait_sum: 0.0,
            wait_n: 0,
            slow_sum: 0.0,
            slow_n: 0,
            cat_inst: [(0, 0); 4],
            total_failures: 0,
        }
    }

    pub fn instant_threshold(&self) -> SimDuration {
        self.instant_threshold
    }

    /// Fold one (final) job record.
    pub fn push(&mut self, r: &JobRecord) {
        let idx = match r.kind {
            JobKind::Rigid => 0,
            JobKind::OnDemand => 1,
            JobKind::Malleable => 2,
        };
        self.per[idx].3 += 1;
        if r.preemptions > 0 {
            self.per[idx].2 += 1;
        }
        if r.killed {
            self.killed += 1;
            return;
        }
        self.total_failures += u64::from(r.failures);
        if let Some(tat) = r.turnaround() {
            let h = tat.as_hours_f64();
            self.sum_tat += h;
            self.n_completed += 1;
            self.per[idx].0 += h;
            self.per[idx].1 += 1;
        }
        if let Some(w) = r.wait() {
            self.wait_sum += w.as_hours_f64();
            self.wait_n += 1;
        }
        if let Some(s) = r.bounded_slowdown() {
            self.slow_sum += s;
            self.slow_n += 1;
        }
        if r.kind == JobKind::OnDemand {
            if let Some(delay) = r.start_delay {
                self.od_total += 1;
                let cat = match r.category {
                    NoticeCategory::NoNotice => 0,
                    NoticeCategory::Accurate => 1,
                    NoticeCategory::Early => 2,
                    NoticeCategory::Late => 3,
                };
                self.cat_inst[cat].1 += 1;
                if delay <= self.instant_threshold {
                    self.od_instant += 1;
                    self.cat_inst[cat].0 += 1;
                }
                if delay.is_zero() {
                    self.od_strict += 1;
                }
            }
        }
    }

    /// Combine the folded per-job state with the recorder's run-level
    /// aggregates (span, occupancy) into the report.
    pub fn finish(&self, rec: &Recorder) -> Metrics {
        let instant_by_category = self.cat_inst.map(|(i, n)| ratio(i as f64, n as f64));

        let kind_stats = |i: usize| KindStats {
            completed: self.per[i].1,
            avg_turnaround_h: ratio(self.per[i].0, self.per[i].1 as f64),
            preemption_ratio: ratio(self.per[i].2 as f64, self.per[i].3 as f64),
        };

        let (span_hours, capacity_ns) = match rec.span() {
            Some((a, b)) if b > a => {
                let span = b - a;
                (
                    span.as_hours_f64(),
                    u128::from(rec.system_size) * u128::from(span.as_secs()),
                )
            }
            _ => (0.0, 0),
        };
        let useful = rec
            .occupied_node_seconds()
            .saturating_sub(rec.wasted_node_seconds());
        let utilization = ratio(useful as f64, capacity_ns as f64);
        let raw_occupancy = ratio(rec.occupied_node_seconds() as f64, capacity_ns as f64);

        Metrics {
            avg_turnaround_h: ratio(self.sum_tat, self.n_completed as f64),
            rigid: kind_stats(0),
            on_demand: kind_stats(1),
            malleable: kind_stats(2),
            instant_start_rate: ratio(self.od_instant as f64, self.od_total as f64),
            strict_instant_rate: ratio(self.od_strict as f64, self.od_total as f64),
            utilization,
            raw_occupancy,
            completed_jobs: self.n_completed,
            killed_jobs: self.killed,
            span_hours,
            avg_wait_h: ratio(self.wait_sum, self.wait_n as f64),
            avg_bounded_slowdown: ratio(self.slow_sum, self.slow_n as f64),
            instant_by_category,
            total_failures: self.total_failures,
        }
    }
}

impl Metrics {
    /// Fold a recorder into the report. `instant_threshold` is the
    /// start-delay bound under which an on-demand start counts as
    /// "instant" (the driver passes its two-minute vacate window).
    ///
    /// For a streaming recorder, the retired-and-folded prefix is reused
    /// as-is (its threshold must match) and only unfolded records are
    /// pushed here; the result is bitwise-identical to the retaining fold.
    pub fn compute(rec: &Recorder, instant_threshold: SimDuration) -> Metrics {
        let mut acc = match rec.metrics_acc() {
            Some(a) => {
                assert_eq!(
                    a.instant_threshold(),
                    instant_threshold,
                    "streaming recorder folded with a different instant threshold"
                );
                a.clone()
            }
            None => MetricsAcc::new(instant_threshold),
        };
        // Fold in job-id order so float summation is deterministic across
        // runs (HashMap iteration order is not). A streaming recorder's
        // already-folded prefix covers exactly the ids below every record
        // surfaced here, so the overall sequence stays id-ordered.
        let mut sorted: Vec<_> = rec.unfolded().collect();
        sorted.sort_by_key(|(id, _)| *id);
        for (_, r) in sorted {
            acc.push(r);
        }
        acc.finish(rec)
    }

    /// One-line human summary (examples, quick experiments).
    pub fn one_line(&self) -> String {
        format!(
            "TAT {:.1} h | util {:.1}% | instant {:.1}% | preempt r/m {:.1}%/{:.1}%",
            self.avg_turnaround_h,
            self.utilization * 100.0,
            self.instant_start_rate * 100.0,
            self.rigid.preemption_ratio * 100.0,
            self.malleable.preemption_ratio * 100.0,
        )
    }
}

/// Streaming average of [`Metrics`] across seeds (the paper repeats each
/// experiment on ten randomly generated traces and averages). Counts sum
/// exactly; their mean is truncated to an integer.
#[derive(Debug, Clone, Default)]
pub struct MetricsAvg {
    n: usize,
    sum: Metrics,
}

/// Field-wise combination of two reports: `f` on every float field, `g` on
/// every count. One list of fields, so summing and averaging cannot pair
/// different fields.
fn zip_fields(
    a: &Metrics,
    b: &Metrics,
    f: impl Fn(f64, f64) -> f64,
    g: impl Fn(u64, u64) -> u64,
) -> Metrics {
    let count = |x: usize, y: usize| g(x as u64, y as u64) as usize;
    let kind = |x: &KindStats, y: &KindStats| KindStats {
        completed: count(x.completed, y.completed),
        avg_turnaround_h: f(x.avg_turnaround_h, y.avg_turnaround_h),
        preemption_ratio: f(x.preemption_ratio, y.preemption_ratio),
    };
    Metrics {
        avg_turnaround_h: f(a.avg_turnaround_h, b.avg_turnaround_h),
        rigid: kind(&a.rigid, &b.rigid),
        on_demand: kind(&a.on_demand, &b.on_demand),
        malleable: kind(&a.malleable, &b.malleable),
        instant_start_rate: f(a.instant_start_rate, b.instant_start_rate),
        strict_instant_rate: f(a.strict_instant_rate, b.strict_instant_rate),
        utilization: f(a.utilization, b.utilization),
        raw_occupancy: f(a.raw_occupancy, b.raw_occupancy),
        completed_jobs: count(a.completed_jobs, b.completed_jobs),
        killed_jobs: count(a.killed_jobs, b.killed_jobs),
        span_hours: f(a.span_hours, b.span_hours),
        avg_wait_h: f(a.avg_wait_h, b.avg_wait_h),
        avg_bounded_slowdown: f(a.avg_bounded_slowdown, b.avg_bounded_slowdown),
        instant_by_category: std::array::from_fn(|i| {
            f(a.instant_by_category[i], b.instant_by_category[i])
        }),
        total_failures: g(a.total_failures, b.total_failures),
    }
}

impl MetricsAvg {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, m: &Metrics) {
        self.sum = zip_fields(&self.sum, m, |s, x| s + x, |s, x| s + x);
        self.n += 1;
    }

    pub fn count(&self) -> usize {
        self.n
    }

    /// The averaged report.
    ///
    /// # Panics
    ///
    /// Panics when no samples were pushed.
    pub fn mean(&self) -> Metrics {
        assert!(self.n > 0, "no samples");
        let n = self.n as f64;
        zip_fields(
            &self.sum,
            &self.sum,
            |s, _| s / n,
            |s, _| (s as f64 / n) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_sim::SimTime;
    use hws_workload::JobId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn threshold() -> SimDuration {
        SimDuration::from_secs(120)
    }

    #[test]
    fn turnaround_and_instant_rates() {
        let mut rec = Recorder::new(100);
        // Rigid job: 2 h turnaround.
        rec.job_submitted(JobId(1), JobKind::Rigid, 10, t(0));
        rec.job_started(JobId(1), t(600));
        rec.job_finished(JobId(1), t(7_200));
        // OD job: starts instantly.
        rec.job_submitted(JobId(2), JobKind::OnDemand, 10, t(100));
        rec.job_started(JobId(2), t(100));
        rec.job_finished(JobId(2), t(3_700));
        // OD job: starts after 10 minutes (not instant).
        rec.job_submitted(JobId(3), JobKind::OnDemand, 10, t(200));
        rec.job_started(JobId(3), t(800));
        rec.job_finished(JobId(3), t(4_400));
        rec.add_occupancy(100, SimDuration::from_secs(7_200));

        let m = Metrics::compute(&rec, threshold());
        assert_eq!(m.completed_jobs, 3);
        assert!((m.instant_start_rate - 0.5).abs() < 1e-9);
        assert!((m.strict_instant_rate - 0.5).abs() < 1e-9);
        assert!((m.rigid.avg_turnaround_h - 2.0).abs() < 1e-9);
        assert!((m.on_demand.avg_turnaround_h - 1.0833).abs() < 1e-3);
    }

    #[test]
    fn utilization_excludes_waste() {
        let mut rec = Recorder::new(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 10, t(0));
        rec.job_started(JobId(1), t(0));
        rec.job_finished(JobId(1), t(1_000));
        // Fully occupied for the whole 1000 s span, 2000 node-s wasted.
        rec.add_occupancy(10, SimDuration::from_secs(1_000));
        rec.add_waste(2, SimDuration::from_secs(1_000));
        let m = Metrics::compute(&rec, threshold());
        assert!((m.raw_occupancy - 1.0).abs() < 1e-9);
        assert!((m.utilization - 0.8).abs() < 1e-9);
    }

    #[test]
    fn preemption_ratio_counts_jobs_not_events() {
        let mut rec = Recorder::new(10);
        for id in 0..4u64 {
            rec.job_submitted(JobId(id), JobKind::Rigid, 1, t(0));
            rec.job_started(JobId(id), t(0));
            rec.job_finished(JobId(id), t(100));
        }
        rec.job_preempted(JobId(0));
        rec.job_preempted(JobId(0)); // double preemption still one job
        let m = Metrics::compute(&rec, threshold());
        assert!((m.rigid.preemption_ratio - 0.25).abs() < 1e-9);
    }

    #[test]
    fn killed_jobs_excluded_from_turnaround() {
        let mut rec = Recorder::new(10);
        rec.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec.job_started(JobId(1), t(0));
        rec.job_killed(JobId(1), t(100));
        rec.job_submitted(JobId(2), JobKind::Rigid, 1, t(0));
        rec.job_started(JobId(2), t(0));
        rec.job_finished(JobId(2), t(3_600));
        let m = Metrics::compute(&rec, threshold());
        assert_eq!(m.killed_jobs, 1);
        assert_eq!(m.completed_jobs, 1);
        assert!((m.avg_turnaround_h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_yields_zeroes() {
        let rec = Recorder::new(10);
        let m = Metrics::compute(&rec, threshold());
        assert_eq!(m.completed_jobs, 0);
        assert_eq!(m.utilization, 0.0);
        assert_eq!(m.instant_start_rate, 0.0);
    }

    #[test]
    fn averaging_across_runs() {
        let mut rec1 = Recorder::new(10);
        rec1.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec1.job_started(JobId(1), t(0));
        rec1.job_finished(JobId(1), t(3_600));
        rec1.add_occupancy(10, SimDuration::from_secs(3_600));
        let m1 = Metrics::compute(&rec1, threshold());

        let mut rec2 = Recorder::new(10);
        rec2.job_submitted(JobId(1), JobKind::Rigid, 1, t(0));
        rec2.job_started(JobId(1), t(0));
        rec2.job_finished(JobId(1), t(10_800));
        rec2.add_occupancy(5, SimDuration::from_secs(10_800));
        let m2 = Metrics::compute(&rec2, threshold());

        let mut avg = MetricsAvg::new();
        avg.push(&m1);
        avg.push(&m2);
        assert_eq!(avg.count(), 2);
        let m = avg.mean();
        assert!((m.avg_turnaround_h - 2.0).abs() < 1e-9); // (1 + 3) / 2
        assert!((m.utilization - 0.75).abs() < 1e-9); // (1.0 + 0.5) / 2
    }

    #[test]
    fn mean_of_one_sample_returns_every_field_unchanged() {
        // A distinct value per field: any slot mix-up in the hand-numbered
        // `fields`/`mean` mapping swaps two of them.
        let kind = |c: usize, tat: f64, pr: f64| KindStats {
            completed: c,
            avg_turnaround_h: tat,
            preemption_ratio: pr,
        };
        let m = Metrics {
            avg_turnaround_h: 1.5,
            rigid: kind(2, 3.5, 4.5),
            on_demand: kind(5, 6.5, 7.5),
            malleable: kind(8, 9.5, 10.5),
            instant_start_rate: 11.5,
            strict_instant_rate: 12.5,
            utilization: 13.5,
            raw_occupancy: 14.5,
            completed_jobs: 15,
            killed_jobs: 16,
            span_hours: 17.5,
            avg_wait_h: 18.5,
            avg_bounded_slowdown: 19.5,
            instant_by_category: [20.5, 21.5, 22.5, 23.5],
            total_failures: 24,
        };
        let mut avg = MetricsAvg::new();
        avg.push(&m);
        assert_eq!(avg.mean(), m);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn mean_of_empty_average_panics() {
        MetricsAvg::new().mean();
    }

    #[test]
    fn one_line_renders() {
        let rec = Recorder::new(10);
        let m = Metrics::compute(&rec, threshold());
        assert!(m.one_line().contains("util"));
    }
}
