//! Ablation studies for the design choices DESIGN.md §6 calls out — these
//! go beyond the paper's figures and probe which pieces of the mechanism
//! design actually carry the results:
//!
//! 1. backfilling on reserved nodes on/off (§III-B1 footnote),
//! 2. PAA victim ordering: overhead (paper) vs size vs newest-first,
//! 3. SPAA shrink distribution: even water-fill (paper) vs proportional,
//! 4. the malleable two-minute warning: 0 s / 120 s / 600 s,
//! 5. queue policy under the best mechanism: FCFS vs SJF vs LJF vs WFP3.
//!
//! ```text
//! cargo run --release -p hws-bench --bin ablations
//! ```

use hws_bench::{run_averaged_source, seeds_from_env, Scale, TraceSource};
use hws_core::{Mechanism, PolicyKind, ShrinkStrategy, SimConfig, VictimOrder};
use hws_metrics::{Metrics, Table};
use hws_sim::SimDuration;

fn row_of(m: &Metrics) -> Vec<String> {
    vec![
        format!("{:.1}", m.avg_turnaround_h),
        format!("{:.1}", m.utilization * 100.0),
        format!("{:.1}", m.instant_start_rate * 100.0),
        format!("{:.2}", (m.raw_occupancy - m.utilization) * 100.0),
        format!(
            "{:.1}/{:.1}",
            m.rigid.preemption_ratio * 100.0,
            m.malleable.preemption_ratio * 100.0
        ),
    ]
}

const HEADER: [&str; 6] = [
    "variant",
    "TAT (h)",
    "util %",
    "instant %",
    "wasted %",
    "preempt r/m %",
];

fn main() {
    let scale = Scale::from_env();
    let seeds = seeds_from_env();
    let source = TraceSource::from_env(scale);
    eprintln!(
        "ablations: scale {scale:?}, {}, {seeds} seeds per cell",
        source.describe()
    );
    let with_name = |name: &str, cfg: &SimConfig| {
        let mut cells = vec![name.to_string()];
        cells.extend(row_of(&run_averaged_source(cfg, &source, seeds).0));
        cells
    };

    // 1. Backfill on reserved nodes.
    let mut t = Table::new(HEADER.to_vec());
    for (name, on) in [
        ("reserved backfill ON (paper)", true),
        ("reserved backfill OFF", false),
    ] {
        let mut cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA);
        cfg.backfill_on_reserved = on;
        t.row(with_name(name, &cfg));
    }
    println!("ABLATION 1: backfilling on on-demand reservations (CUA&SPAA)");
    println!("{}", t.render());

    // 2. PAA victim ordering.
    let mut t = Table::new(HEADER.to_vec());
    for (name, order) in [
        ("overhead asc (paper)", VictimOrder::Overhead),
        ("size ascending", VictimOrder::SizeAscending),
        ("newest first", VictimOrder::NewestFirst),
    ] {
        let mut cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
        cfg.victim_order = order;
        t.row(with_name(name, &cfg));
    }
    println!("ABLATION 2: PAA victim ordering (N&PAA)");
    println!("{}", t.render());

    // 3. SPAA shrink distribution.
    let mut t = Table::new(HEADER.to_vec());
    for (name, strat) in [
        ("even water-fill (paper)", ShrinkStrategy::EvenWaterFill),
        ("proportional to slack", ShrinkStrategy::Proportional),
    ] {
        let mut cfg = SimConfig::with_mechanism(Mechanism::N_SPAA);
        cfg.shrink_strategy = strat;
        t.row(with_name(name, &cfg));
    }
    println!("ABLATION 3: SPAA shrink distribution (N&SPAA)");
    println!("{}", t.render());

    // 4. Malleable warning duration.
    let mut t = Table::new(HEADER.to_vec());
    for secs in [0u64, 120, 600] {
        let mut cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
        cfg.malleable_warning = SimDuration::from_secs(secs);
        // Keep the instant criterion fixed at the paper's 2 minutes so the
        // variants are comparable.
        cfg.instant_threshold = SimDuration::from_secs(120);
        let label = format!(
            "{secs} s warning{}",
            if secs == 120 { " (paper)" } else { "" }
        );
        t.row(with_name(&label, &cfg));
    }
    println!("ABLATION 4: malleable preemption warning (N&PAA)");
    println!("{}", t.render());

    // 5. Queue policy under CUA&SPAA.
    let mut t = Table::new(HEADER.to_vec());
    for p in PolicyKind::ALL {
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA).policy(p);
        let label = format!(
            "{}{}",
            p.name(),
            if p == PolicyKind::Fcfs {
                " (paper)"
            } else {
                ""
            }
        );
        t.row(with_name(&label, &cfg));
    }
    println!("ABLATION 5: queue policy under CUA&SPAA");
    println!("{}", t.render());
}
