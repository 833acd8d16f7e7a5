//! **Figure 7** — impact of the rigid jobs' checkpointing frequency on
//! scheduling performance. The x-axis follows the paper's convention:
//! "50% means rigid jobs makes checkpoints twice as frequent as the
//! optimal checkpointing frequency" — i.e. the label is the interval
//! multiplier on the Daly optimum.
//!
//! Expected shape (Observation 13): more frequent checkpoints than Daly
//! reduce rigid turnaround and improve utilization for every mechanism,
//! because preemptions (not failures) dominate interruptions.

use hws_bench::{run_averaged_source, seeds_from_env, Scale, TraceSource};
use hws_core::{Mechanism, SimConfig};
use hws_metrics::{Metrics, Table};

fn main() {
    let scale = Scale::from_env();
    let seeds = seeds_from_env();
    let source = TraceSource::from_env(scale);
    let factors = [0.25, 0.5, 1.0, 2.0];
    eprintln!(
        "fig7: scale {scale:?}, {}, {seeds} seeds x {} factors x 6 mechanisms",
        source.describe(),
        factors.len()
    );

    let mut results: Vec<(f64, Mechanism, Metrics)> = Vec::new();
    for &f in &factors {
        for m in Mechanism::ALL_SIX {
            let cfg = SimConfig::with_mechanism(m).ckpt_factor(f);
            results.push((f, m, run_averaged_source(&cfg, &source, seeds).0));
        }
    }

    type Panel = (&'static str, fn(&Metrics) -> String);
    let panels: [Panel; 4] = [
        ("rigid turnaround (h)", |m| {
            format!("{:.1}", m.rigid.avg_turnaround_h)
        }),
        ("avg turnaround (h)", |m| {
            format!("{:.1}", m.avg_turnaround_h)
        }),
        ("system utilization (%)", |m| {
            format!("{:.1}", m.utilization * 100.0)
        }),
        ("rigid preemption ratio (%)", |m| {
            format!("{:.1}", m.rigid.preemption_ratio * 100.0)
        }),
    ];
    for (title, fmt) in panels {
        let mut t = Table::new(vec![
            "ckpt interval",
            "N&PAA",
            "N&SPAA",
            "CUA&PAA",
            "CUA&SPAA",
            "CUP&PAA",
            "CUP&SPAA",
        ]);
        for &f in &factors {
            let mut cells = vec![format!("{:.0}% of Daly", f * 100.0)];
            for m in Mechanism::ALL_SIX {
                let cell = results
                    .iter()
                    .find(|(ff, mm, _)| *ff == f && *mm == m)
                    .map(|(_, _, metrics)| fmt(metrics))
                    .expect("grid complete");
                cells.push(cell);
            }
            t.row(cells);
        }
        println!("FIGURE 7 panel: {title}");
        println!("{}", t.render());
    }

    // Observation 13 check: for each mechanism, the 50%-interval rigid
    // turnaround should not exceed the 200%-interval one.
    let rigid_at = |f: f64, m: Mechanism| {
        results
            .iter()
            .find(|(ff, mm, _)| *ff == f && *mm == m)
            .map(|(_, _, x)| x.rigid.avg_turnaround_h)
            .expect("present")
    };
    let ok = Mechanism::ALL_SIX
        .iter()
        .filter(|&&m| rigid_at(0.5, m) <= rigid_at(2.0, m) + 0.3)
        .count();
    println!("Obs 13: more frequent checkpoints help rigid turnaround for {ok}/6 mechanisms");
}
