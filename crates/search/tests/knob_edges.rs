//! Knob-vector edge sweep + leaderboard codec property tests.
//!
//! Mirrors the `import_survives_config_edge_values` style of
//! `crates/workload/src/swf.rs`: drive every knob axis to its extreme
//! values — admission throttle `none/0/1/7`, checkpoint multiplier at
//! both clamp bounds, every backfill level, every placement policy over
//! a federated base — materialise the candidate, and run it to
//! completion. The assertion is the run *returning*: no panics, no
//! wedged simulations, and every job accounted for. Invalid vectors
//! must be rejected by `validate` (one regression per rejection arm),
//! and randomly-assembled leaderboards must survive the text codec
//! round trip exactly.

use hws_cluster::FederationConfig;
use hws_core::{config_for_knobs, Mechanism, SimConfig, Simulator};
use hws_search::{Leaderboard, LeaderboardRow};
use hws_workload::{
    BackfillLevel, KnobVector, PlacementChoice, Trace, TraceConfig, CKPT_MULT_MAX, CKPT_MULT_MIN,
};
use proptest::prelude::*;

const THROTTLES: [Option<u32>; 4] = [None, Some(0), Some(1), Some(7)];
const CKPT_MULTS: [f64; 3] = [CKPT_MULT_MIN, 1.0, CKPT_MULT_MAX];
const BACKFILLS: [Option<BackfillLevel>; 4] = [
    None,
    Some(BackfillLevel::Off),
    Some(BackfillLevel::Conservative),
    Some(BackfillLevel::Aggressive),
];
const PLACEMENTS: [Option<PlacementChoice>; 4] = [
    None,
    Some(PlacementChoice::FirstFit),
    Some(PlacementChoice::LeastLoaded),
    Some(PlacementChoice::ClassAffinity),
];

fn edge_trace(seed: u64) -> Trace {
    let mut trace = TraceConfig::tiny().generate(seed);
    trace.tag_capability(0.25);
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Any point on the edge lattice materialises and simulates to
    // completion — the whole sweep is panic- and deadlock-free.
    #[test]
    fn every_edge_knob_vector_simulates_to_completion(
        mech_idx in 0..6usize,
        throttle_idx in 0..THROTTLES.len(),
        ckpt_idx in 0..CKPT_MULTS.len(),
        backfill_idx in 0..BACKFILLS.len(),
        placement_idx in 0..PLACEMENTS.len(),
        seed in 0..16u64,
    ) {
        let knobs = KnobVector {
            admit_throttle: THROTTLES[throttle_idx],
            backfill: BACKFILLS[backfill_idx],
            ckpt_mult: CKPT_MULTS[ckpt_idx],
            placement: PLACEMENTS[placement_idx],
        };
        prop_assert_eq!(knobs.validate(), Ok(()));
        // Text codec is total over valid vectors.
        prop_assert_eq!(&KnobVector::from_text(&knobs.to_text()).unwrap(), &knobs);

        let trace = edge_trace(seed);
        let base = SimConfig::baseline()
            .federated(FederationConfig::even_split(2, trace.system_size));
        let cfg = config_for_knobs(&base, Mechanism::ALL_SIX[mech_idx], &knobs)
            .expect("edge vector must materialise over a federated base");
        let out = Simulator::run_trace(&cfg, &trace);

        // Returning at all is the headline assertion; on top of it,
        // conservation: every admitted job either completed, was killed,
        // or was starved by a zero throttle — never lost.
        prop_assert_eq!(out.admitted_jobs, trace.jobs.len() as u64);
        let finished = (out.metrics.completed_jobs + out.metrics.killed_jobs) as u64;
        prop_assert!(finished <= out.admitted_jobs);
        if knobs.admit_throttle != Some(0) {
            prop_assert_eq!(finished, out.admitted_jobs);
        }
    }

    // Randomly-assembled leaderboards survive the codec exactly.
    #[test]
    fn leaderboard_codec_round_trips_arbitrary_rows(
        n_rows in 0..5usize,
        salt in 0..1024u64,
    ) {
        const SCORES: [f64; 6] = [-123.456, -1.0, 0.0, 0.25, 7e-3, 1e9];
        const MECHS: [&str; 3] = ["N&PAA", "CUA&SPAA", "FCFS/EASY"];
        let rows = (0..n_rows)
            .map(|i| {
                let mix = salt.wrapping_mul(31).wrapping_add(i as u64);
                LeaderboardRow {
                    rank: i + 1,
                    mechanism: MECHS[(mix % 3) as usize].to_string(),
                    knobs: KnobVector {
                        admit_throttle: THROTTLES[(mix % 4) as usize],
                        backfill: BACKFILLS[(mix / 4 % 4) as usize],
                        ckpt_mult: CKPT_MULTS[(mix / 16 % 3) as usize],
                        placement: PLACEMENTS[(mix / 48 % 4) as usize],
                    },
                    seeds: (mix % 7) as usize,
                    mean_reward: SCORES[(mix % 6) as usize],
                    fingerprint: mix.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    scores: (0..(mix % 4))
                        .map(|k| SCORES[((mix + k) % 6) as usize])
                        .collect(),
                }
            })
            .collect();
        let lb = Leaderboard {
            search: "grid".to_string(),
            reward: "neg-bounded-slowdown".to_string(),
            rows,
        };
        let text = lb.to_text();
        let back = Leaderboard::from_text(&text).unwrap();
        prop_assert_eq!(&back, &lb);
        prop_assert_eq!(back.to_text(), text);
    }
}

#[test]
fn placement_knob_requires_a_federated_base() {
    let knobs = KnobVector {
        placement: Some(PlacementChoice::LeastLoaded),
        ..KnobVector::identity()
    };
    let err = config_for_knobs(&SimConfig::baseline(), Mechanism::N_PAA, &knobs).unwrap_err();
    assert!(err.contains("federated"), "{err}");
}

// One regression per `KnobVector::validate` rejection arm, checked at
// this level so a future refactor of the codec cannot silently drop an
// arm from the materialisation path.
#[test]
fn each_validate_rejection_arm_blocks_materialisation() {
    let base = SimConfig::baseline();
    let cases: [(f64, &str); 4] = [
        (f64::NAN, "NaN"),
        (f64::INFINITY, "not finite"),
        (CKPT_MULT_MIN / 2.0, "below minimum"),
        (CKPT_MULT_MAX * 2.0, "above maximum"),
    ];
    for (mult, want) in cases {
        let knobs = KnobVector {
            ckpt_mult: mult,
            ..KnobVector::identity()
        };
        let err = config_for_knobs(&base, Mechanism::N_PAA, &knobs).unwrap_err();
        assert!(err.contains(want), "ckpt_mult {mult}: {err}");
    }
}
