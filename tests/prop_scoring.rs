//! Property-based coverage of the cold-start scoring subsystem: the
//! factorization must reconstruct masked profile matrices within
//! tolerance across seeds and mask densities, the learned set score must
//! be a permutation-invariant function that degrades monotonically in
//! contention, and a fleet with scoring *disabled* must stay bit-for-bit
//! on the legacy trajectory (the committed golden baselines pin that
//! trajectory to its pre-scoring values, so together these guarantee the
//! subsystem is strictly opt-in).

use proptest::prelude::*;
use sturgeon::fleet::{Fleet, FleetParams, FleetResult};
use sturgeon::placement::PlacementParams;
use sturgeon::prelude::*;
use sturgeon_workloads::loadgen::LoadProfile;

fn masked_params(seed: u64, mask_fraction: f64) -> ScoringParams {
    ScoringParams {
        masked_app: Some(BeAppId::Raytrace.name().to_string()),
        seed,
        mask_fraction,
        ..ScoringParams::default()
    }
}

/// Applies the permutation implied by sorting `priorities` to `set`.
fn permute(set: &[&str], priorities: &[u64]) -> Vec<String> {
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by_key(|&i| (priorities[i % priorities.len()], i));
    order.into_iter().map(|i| set[i].to_string()).collect()
}

proptest! {
    // Each case fits three factorizations (~60 ms); keep the budget low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn factorization_reconstructs_within_tolerance_across_seeds(
        seed in 0u64..u64::MAX / 2,
        mask_fraction in 0.05f64..0.45,
    ) {
        let params = masked_params(seed, mask_fraction);
        let spec = NodeSpec::xeon_e5_2630_v4();
        let matrix = ProfileMatrix::build(&spec, &PowerModel::default(), &params)
            .expect("matrix builds for every valid seed/mask");
        prop_assert!(matrix.cells_hidden() > 0);
        let cf = ColdStartPredictor::fit(matrix, &params).expect("factorization fits");
        let tput = cf.plane_fit(ScoreMetric::Throughput);
        prop_assert!(
            tput.rmse_observed < 0.10,
            "tput training rmse {} at seed {seed} mask {mask_fraction}",
            tput.rmse_observed
        );
        prop_assert!(
            tput.rmse_heldout < 0.25,
            "tput held-out rmse {} at seed {seed} mask {mask_fraction}",
            tput.rmse_heldout
        );
        let power = cf.plane_fit(ScoreMetric::Power);
        prop_assert!(
            power.rmse_heldout < 2.0,
            "power held-out rmse {} W at seed {seed} mask {mask_fraction}",
            power.rmse_heldout
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn set_score_is_permutation_invariant(
        sigmas in prop::collection::vec(0.0f64..1.0, 6..7),
        picks in prop::collection::vec(0usize..6, 1..8),
        priorities in prop::collection::vec(0u64..u64::MAX, 8..9),
    ) {
        let names = ["a", "b", "c", "d", "e", "f"];
        let scorer = SetScorer::from_sigmas(
            names.iter().zip(&sigmas).map(|(&n, &s)| (n, s)),
        );
        let set: Vec<&str> = picks.iter().map(|&i| names[i]).collect();
        let shuffled = permute(&set, &priorities);
        prop_assert_eq!(
            scorer.score(&set).to_bits(),
            scorer.score(&shuffled).to_bits(),
            "score must not depend on member order: {:?} vs {:?}",
            set,
            shuffled
        );
    }

    #[test]
    fn set_score_degrades_monotonically_in_sigma(
        base in 0.0f64..0.9,
        bump in 0.01f64..0.1,
        other in 0.0f64..1.0,
        k in 2usize..6,
    ) {
        // Two scorers identical except one member's contention rises:
        // every set containing that member must score strictly lower.
        let quiet = SetScorer::from_sigmas([("hot", base), ("cold", other)]);
        let loud = SetScorer::from_sigmas([("hot", base + bump), ("cold", other)]);
        let mut set = vec!["cold"; k - 1];
        set.push("hot");
        prop_assert!(
            loud.score(&set) < quiet.score(&set),
            "raising sigma {base} -> {} must lower the score ({} vs {})",
            base + bump,
            loud.score(&set),
            quiet.score(&set)
        );
        // And scores stay in the sane band: (0, k].
        let s = quiet.score(&set);
        prop_assert!(s > 0.0 && s <= k as f64, "score {s} out of (0, {k}]");
    }
}

fn run_fleet(scoring: Option<ScoringParams>) -> FleetResult {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let params = FleetParams {
        shards: 2,
        placement: Some(PlacementParams {
            interval_s: 5,
            ..PlacementParams::default()
        }),
        scoring,
        ..FleetParams::default()
    };
    let mut fleet = Fleet::new(pair, 8, params, 42);
    fleet.run(LoadProfile::paper_fluctuating(60.0), 20)
}

fn assert_nodes_bit_identical(a: &FleetResult, b: &FleetResult) {
    assert_eq!(a.nodes.len(), b.nodes.len());
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.node, y.node);
        assert_eq!(
            x.qos_rate.to_bits(),
            y.qos_rate.to_bits(),
            "node {}",
            x.node
        );
        assert_eq!(
            x.mean_be_throughput.to_bits(),
            y.mean_be_throughput.to_bits(),
            "node {}",
            x.node
        );
        assert_eq!(
            x.mean_power_w.to_bits(),
            y.mean_power_w.to_bits(),
            "node {}",
            x.node
        );
        assert_eq!(
            x.overload_fraction.to_bits(),
            y.overload_fraction.to_bits(),
            "node {}",
            x.node
        );
    }
    assert_eq!(a.qos_rate.to_bits(), b.qos_rate.to_bits());
    assert_eq!(
        a.total_be_throughput.to_bits(),
        b.total_be_throughput.to_bits()
    );
    assert_eq!(
        a.mean_fleet_power_w.to_bits(),
        b.mean_fleet_power_w.to_bits()
    );
}

#[test]
fn scoring_disabled_runs_are_bit_identical_and_reproducible() {
    // `scoring: None` must be the exact legacy trajectory — same seed,
    // same run, twice over — and it must never consult the subsystem.
    let first = run_fleet(None);
    let second = run_fleet(None);
    assert_nodes_bit_identical(&first, &second);
    assert_eq!(first.cold_start_cells, 0);
    assert_eq!(first.set_scores, 0);
}

#[test]
fn scoring_enabled_runs_are_reproducible_too() {
    // Determinism holds with the full subsystem on: the mask, the
    // factorization and the scorer all derive from the pinned seed.
    let scoring = Some(ScoringParams::default());
    let first = run_fleet(scoring.clone());
    let second = run_fleet(scoring);
    assert_nodes_bit_identical(&first, &second);
    assert!(first.cold_start_cells > 0);
}
