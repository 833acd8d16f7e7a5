//! **Table II** — baseline performance of plain FCFS/EASY with no special
//! treatment of on-demand, rigid, or malleable jobs.
//!
//! Paper values: 15.6 h average turnaround, 83.93 % utilization, 22.69 %
//! on-demand instant-start rate.
//!
//! ```text
//! cargo run --release -p hws-bench --bin table2
//! HWS_SCALE=full HWS_SEEDS=10 cargo run --release -p hws-bench --bin table2
//! ```

use hws_bench::{run_averaged_source, seeds_from_env, Scale, TraceSource};
use hws_core::SimConfig;
use hws_metrics::Table;

fn main() {
    let scale = Scale::from_env();
    let seeds = seeds_from_env();
    let source = TraceSource::from_env(scale);
    eprintln!(
        "table2: scale {scale:?}, {seeds} seeds, {}",
        source.describe()
    );

    let (m, _) = run_averaged_source(&SimConfig::baseline(), &source, seeds);

    let mut t = Table::new(vec![
        "Avg. Turnaround",
        "System Util.",
        "On-demand Jobs' Instant Start Rate",
    ]);
    t.row(vec![
        format!("{:.1} hours", m.avg_turnaround_h),
        format!("{:.2}%", m.utilization * 100.0),
        format!("{:.2}%", m.instant_start_rate * 100.0),
    ]);
    println!("TABLE II: Baseline performance (FCFS/EASY, no special treatment)");
    println!("{}", t.render());
    println!("paper reports: 15.6 hours | 83.93% | 22.69%");
    println!(
        "(supporting: raw occupancy {:.2}%, completed {} jobs, span {:.0} h)",
        m.raw_occupancy * 100.0,
        m.completed_jobs,
        m.span_hours
    );
}
