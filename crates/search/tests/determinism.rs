//! Tuner determinism: the load-bearing reproducibility claims.
//!
//! * Same (space, base, seeds) twice → **byte-identical** leaderboard
//!   text, for both tuners.
//! * A parallel search is **bitwise identical** to a sequential one
//!   (the `par_map` slot pattern returns results in index order, and
//!   every fold runs in that order).
//! * An identity-knob candidate materialises to a configuration whose
//!   run is bitwise equal to plain `SimConfig::with_mechanism` — the
//!   bridge that lets a leaderboard row be compared against every
//!   committed `BENCH_*.json` number.
//! * Real tuner output survives the text codec round trip exactly.

use hws_core::{Mechanism, SimConfig, Simulator};
use hws_metrics::RewardSpec;
use hws_search::{
    grid_search, tournament_search, Candidate, Leaderboard, SearchConfig, SearchSpace,
    TournamentConfig,
};
use hws_workload::{BackfillLevel, KnobVector, Trace, TraceConfig};

fn make_trace(seed: u64) -> Trace {
    let mut trace = TraceConfig::tiny().generate(seed);
    trace.tag_capability(0.25);
    trace
}

fn small_space() -> SearchSpace {
    SearchSpace {
        mechanisms: vec![Mechanism::N_PAA, Mechanism::CUA_SPAA],
        throttles: vec![None, Some(1)],
        backfills: vec![None, Some(BackfillLevel::Conservative)],
        ckpt_mults: vec![1.0],
        placements: vec![None],
    }
}

#[test]
fn grid_search_is_byte_reproducible() {
    let space = small_space();
    let cfg = SearchConfig::new(
        SimConfig::baseline(),
        RewardSpec::neg_bounded_slowdown(),
        vec![0, 1, 2],
    );
    let a = grid_search(&space, &cfg, make_trace).expect("first run");
    let b = grid_search(&space, &cfg, make_trace).expect("second run");
    assert_eq!(
        a.to_text(),
        b.to_text(),
        "two runs of the same grid search must emit identical bytes"
    );
    assert_eq!(a, b);
}

#[test]
fn grid_parallel_is_bitwise_sequential() {
    let space = small_space();
    let par = SearchConfig::new(
        SimConfig::baseline(),
        RewardSpec::class_weighted(1.0, 3.0),
        vec![0, 1],
    );
    let seq = par.clone().sequential();
    let a = grid_search(&space, &par, make_trace).expect("parallel");
    let b = grid_search(&space, &seq, make_trace).expect("sequential");
    assert_eq!(a.to_text(), b.to_text(), "parallel grid != sequential grid");
}

#[test]
fn tournament_is_byte_reproducible_and_parallel_matches_sequential() {
    let space = small_space();
    let par = TournamentConfig::new(SimConfig::baseline(), RewardSpec::utilization(), 3, 2);
    let seq = par.clone().sequential();
    let a = tournament_search(&space, &par, make_trace).expect("parallel");
    let b = tournament_search(&space, &par, make_trace).expect("parallel again");
    let c = tournament_search(&space, &seq, make_trace).expect("sequential");
    assert_eq!(a.to_text(), b.to_text(), "tournament not reproducible");
    assert_eq!(
        a.to_text(),
        c.to_text(),
        "parallel tournament != sequential"
    );
}

#[test]
fn leaderboards_are_well_formed_and_round_trip() {
    let space = small_space();
    let cfg = SearchConfig::new(
        SimConfig::baseline(),
        RewardSpec::blend(1.0, 10.0),
        vec![0, 1],
    );
    let lb = grid_search(&space, &cfg, make_trace).expect("grid");

    // Every candidate ranked exactly once, best first.
    assert_eq!(lb.rows.len(), space.len());
    for (i, row) in lb.rows.iter().enumerate() {
        assert_eq!(row.rank, i + 1);
        assert_eq!(row.seeds, cfg.seeds.len());
        assert!(row.mean_reward.is_finite());
        if i > 0 {
            assert!(
                lb.rows[i - 1].mean_reward >= row.mean_reward,
                "grid rows must be sorted by mean reward"
            );
        }
    }
    assert_eq!(lb.winner().map(|r| r.rank), Some(1));

    let text = lb.to_text();
    let back = Leaderboard::from_text(&text).expect("parse own output");
    assert_eq!(back, lb);
    assert_eq!(back.to_text(), text, "codec must be a fixed point");
}

#[test]
fn tournament_spends_more_seeds_on_survivors() {
    let space = small_space();
    let cfg = TournamentConfig::new(
        SimConfig::baseline(),
        RewardSpec::neg_bounded_slowdown(),
        3,
        2,
    );
    let lb = tournament_search(&space, &cfg, make_trace).expect("tournament");
    assert_eq!(lb.rows.len(), space.len(), "every candidate stays ranked");
    let first = lb.rows.first().expect("winner");
    let last = lb.rows.last().expect("loser");
    assert!(
        first.seeds > last.seeds,
        "successive halving must evaluate the winner ({} seeds) on more \
         seeds than the first-round casualty ({} seeds)",
        first.seeds,
        last.seeds
    );
    assert_eq!(first.seeds, 3 * 2, "the winner survives every round");
    assert_eq!(last.seeds, 2, "a first-round casualty sees one round");
}

#[test]
fn identity_candidate_runs_bitwise_equal_to_plain_mechanism_config() {
    let trace = make_trace(7);
    for m in Mechanism::ALL_SIX {
        let candidate = Candidate {
            mechanism: m,
            knobs: KnobVector::identity(),
        };
        let cfg = candidate
            .to_config(&SimConfig::baseline())
            .expect("materialise");
        assert!(
            cfg.hooks.is_none(),
            "identity candidate must carry no hooks"
        );
        let got = Simulator::run_trace(&cfg, &trace);

        let plain = SimConfig::with_mechanism(m);
        let want = Simulator::run_trace(&plain, &trace);
        assert_eq!(got.metrics, want.metrics, "{}", m.name());
        assert_eq!(got.engine, want.engine, "{}", m.name());
        assert_eq!(got.classes, want.classes, "{}", m.name());
    }
}

#[test]
fn tuner_input_validation_rejects_degenerate_requests() {
    let space = small_space();
    let no_seeds = SearchConfig::new(SimConfig::baseline(), RewardSpec::utilization(), vec![]);
    assert!(grid_search(&space, &no_seeds, make_trace)
        .unwrap_err()
        .contains("seed"));

    let no_rounds = TournamentConfig::new(SimConfig::baseline(), RewardSpec::utilization(), 0, 2);
    assert!(tournament_search(&space, &no_rounds, make_trace)
        .unwrap_err()
        .contains("round"));

    let no_spr = TournamentConfig::new(SimConfig::baseline(), RewardSpec::utilization(), 2, 0);
    assert!(tournament_search(&space, &no_spr, make_trace)
        .unwrap_err()
        .contains("seed"));

    let mut bad = small_space();
    bad.mechanisms.push(Mechanism::Custom);
    let cfg = SearchConfig::new(SimConfig::baseline(), RewardSpec::utilization(), vec![0]);
    assert!(grid_search(&bad, &cfg, make_trace)
        .unwrap_err()
        .contains("Custom"));
}
