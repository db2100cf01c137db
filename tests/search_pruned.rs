//! Equivalence tests for the latticed frontier-pruned search engine.
//!
//! The engine answers from QPS-slab envelopes, so its oracle is layered:
//! at *arbitrary* loads it must return the same bits as the unpruned
//! envelope sweep (`exhaustive_latticed`); at *slab-center* loads the
//! envelope degenerates to the live models and the engine must match
//! the live exhaustive serial oracle bit for bit. The property sweep
//! additionally checks the slabs cell-by-cell against the live
//! predictor and that the between-slab envelope is never optimistic.
//! The engine keeps no state between searches, so a searcher's answer
//! and counters at a load never depend on the loads it saw before.

use proptest::prelude::*;
use std::sync::OnceLock;
use sturgeon::prelude::*;
use sturgeon::profiler::{Profiler, ProfilerConfig};
use sturgeon_workloads::catalog::{be_app, ls_service};
use sturgeon_workloads::env::CoLocationEnv;
use sturgeon_workloads::interference::InterferenceParams;

/// Shared production-recipe predictor (training once keeps the suite fast).
fn shared_predictor() -> &'static (PerfPowerPredictor, ExperimentSetup) {
    static CELL: OnceLock<(PerfPowerPredictor, ExperimentSetup)> = OnceLock::new();
    CELL.get_or_init(|| {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
            2024,
        );
        let predictor = setup.train_default_predictor();
        (predictor, setup)
    })
}

#[test]
fn pruned_matches_envelope_oracle_on_pinned_production_setup() {
    let (predictor, setup) = shared_predictor();
    let search = ConfigSearch::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        pruned_params(),
    );
    for frac in [0.1, 0.2, 0.35, 0.5, 0.65, 0.8] {
        let qps = frac * setup.peak_qps();
        let full = search.exhaustive_latticed(qps);
        let pruned = search.run(qps, None);
        assert_eq!(pruned.best, full.best, "config mismatch at frac {frac}");
        assert_eq!(
            pruned.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits()
        );
        assert!(
            pruned.stats.candidates <= full.stats.candidates,
            "frac {frac}: envelope sweep evaluated {} candidates, pruned {}",
            full.stats.candidates,
            pruned.stats.candidates
        );
        assert_eq!(
            pruned.stats.model_calls, 0,
            "the latticed inner loop must not touch the live models"
        );
    }
}

#[test]
fn pruned_matches_live_oracle_at_slab_centers() {
    let (predictor, setup) = shared_predictor();
    let params = pruned_params();
    let search = ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params);
    let slabs = predictor.ls_slabs(setup.spec(), params.power_load_headroom);
    for bucket in [6u64, 13, 26, 40, 51] {
        let qps = slabs.center(bucket);
        let live = search.exhaustive_serial(qps);
        let pruned = search.run(qps, None);
        assert_eq!(pruned.best, live.best, "config mismatch at bucket {bucket}");
        assert_eq!(
            pruned.predicted_throughput.to_bits(),
            live.predicted_throughput.to_bits(),
            "throughput bits differ at bucket {bucket}"
        );
    }
}

#[test]
fn pruned_walk_is_history_independent() {
    let (predictor, setup) = shared_predictor();
    let params = pruned_params();
    let searcher = || ConfigSearch::new(predictor, setup.spec().clone(), setup.budget_w(), params);
    let walker = searcher();
    let q = predictor
        .ls_slabs(setup.spec(), params.power_load_headroom)
        .quantum();
    let counts = |s: &SearchStats| (s.candidates, s.pruned_candidates, s.pruned_subspaces);
    // One searcher walks a QPS path, in slab quanta: one-bucket steps, a
    // repeat inside the same bracket (22.3 → 22.4), and a multi-bucket
    // jump back to the start. Every step must equal the envelope oracle
    // bit for bit and report exactly the counts a fresh searcher reports
    // at the same load.
    for quanta in [20.4, 21.3, 22.3, 22.4, 21.4, 22.35, 23.35, 20.4] {
        let qps = quanta * q;
        let walked = walker.run(qps, None);
        let oracle = walker.exhaustive_latticed(qps);
        assert_eq!(walked.best, oracle.best, "config mismatch at qps {qps}");
        assert_eq!(
            walked.predicted_throughput.to_bits(),
            oracle.predicted_throughput.to_bits(),
            "throughput bits differ at qps {qps}"
        );
        let fresh = searcher().run(qps, None).stats;
        assert_eq!(
            counts(&walked.stats),
            counts(&fresh),
            "counts depend on history at qps {qps}"
        );
    }
}

/// Search parameters that select the latticed frontier-pruned engine.
fn pruned_params() -> SearchParams {
    SearchParams {
        strategy: SearchStrategy::FrontierPruned,
        ..SearchParams::default()
    }
}

/// Trains a small (but real) predictor on an arbitrary node geometry.
fn train_on(
    spec: NodeSpec,
    ls_idx: usize,
    be_idx: usize,
    seed: u64,
) -> (CoLocationEnv, PerfPowerPredictor) {
    let ls_ids = LsServiceId::all();
    let be_ids = BeAppId::all();
    let env = CoLocationEnv::new(
        spec,
        PowerModel::default(),
        ls_service(ls_ids[ls_idx % ls_ids.len()]),
        be_app(be_ids[be_idx % be_ids.len()]),
        InterferenceParams::none(),
        seed,
    );
    let d = Profiler::new(
        &env,
        ProfilerConfig {
            ls_samples_per_load: 40,
            ls_load_fractions: vec![0.2, 0.4, 0.6, 0.8],
            be_samples: 200,
            seed,
        },
    )
    .collect()
    .expect("profiling succeeds");
    let p = PerfPowerPredictor::train(
        &d,
        PredictorConfig::default(),
        env.static_power_w(),
        env.be().params.input_level as f64,
        env.ls().params.qos_target_ms,
    )
    .expect("training succeeds");
    (env, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole equivalence property, over random node geometries
    /// (core counts, DVFS tables, LLC sizes), workload pairs and loads:
    ///
    /// 1. slab cells agree with the live predictor bit for bit at slab
    ///    centers (feasibility and LS power);
    /// 2. the between-slab envelope is never optimistic — an
    ///    envelope-feasible cell is feasible at *both* bracketing
    ///    centers, and envelope power is never below either center's;
    /// 3. the pruned engine equals the envelope oracle at the probed
    ///    load and the live serial oracle at a slab center.
    #[test]
    fn latticed_engine_equals_oracles_on_random_nodes_and_workloads(
        cores in 8u32..15,
        n_freqs in 6usize..9,
        ways in 8u32..13,
        base_centi in 100u32..140,
        step_centi in 5u32..20,
        ls_idx in 0usize..8,
        be_idx in 0usize..8,
        seed in 0u64..1_000,
        frac_pct in 15u32..80,
    ) {
        let spec = NodeSpec {
            total_cores: cores,
            freq_levels_ghz: (0..n_freqs)
                .map(|i| (base_centi as f64 + (i as f64) * step_centi as f64) / 100.0)
                .collect(),
            total_llc_ways: ways,
            llc_mb: 1.25 * ways as f64,
        };
        prop_assert!(spec.validate().is_ok());
        let (env, p) = train_on(spec.clone(), ls_idx, be_idx, seed);
        let params = pruned_params();
        let search = ConfigSearch::new(&p, spec.clone(), env.budget_w(), params);
        let qps = (frac_pct as f64 / 100.0) * env.ls().params.peak_qps;

        // (1) + (2): slab cells vs the live predictor at the probed
        // load's bracketing centers.
        let slabs = p.ls_slabs(&spec, params.power_load_headroom);
        let (k_lo, k_hi) = slabs.bracket(qps);
        let lo = p.ls_slab(&spec, &slabs, k_lo);
        let hi = p.ls_slab(&spec, &slabs, k_hi);
        for (slab, k) in [(&lo, k_lo), (&hi, k_hi)] {
            let center = slabs.center(k);
            let center_power = center * (1.0 + slabs.headroom());
            for c in 1..=spec.total_cores {
                for f in 0..spec.freq_level_count() {
                    let ghz = spec.freq_ghz(f);
                    for w in 1..=spec.total_llc_ways {
                        prop_assert_eq!(
                            slab.feasible(c, f, w),
                            p.ls_feasible(c, ghz, w, center),
                            "feasibility differs at bucket {} cell ({}, {}, {})", k, c, f, w
                        );
                        prop_assert_eq!(
                            slab.ls_power_w(c, f, w).to_bits(),
                            p.ls_power_w(c, ghz, w, center_power).to_bits(),
                            "LS power bits differ at bucket {} cell ({}, {}, {})", k, c, f, w
                        );
                    }
                }
            }
        }
        // (2) follows structurally (the envelope is AND / max of the two
        // slabs just verified); spot-check the composition anyway.
        for c in 1..=spec.total_cores {
            for w in 1..=spec.total_llc_ways {
                let f = spec.max_freq_level();
                let env_feasible = lo.feasible(c, f, w) && hi.feasible(c, f, w);
                if env_feasible {
                    prop_assert!(lo.feasible(c, f, w) && hi.feasible(c, f, w));
                }
                let env_power = lo.ls_power_w(c, f, w).max(hi.ls_power_w(c, f, w));
                prop_assert!(env_power >= lo.ls_power_w(c, f, w));
                prop_assert!(env_power >= hi.ls_power_w(c, f, w));
            }
        }

        // (3): engine vs envelope oracle at the probed load, and vs the
        // live oracle at a slab center.
        let full = search.exhaustive_latticed(qps);
        let pruned = search.run(qps, None);
        prop_assert_eq!(pruned.best, full.best);
        prop_assert_eq!(
            pruned.predicted_throughput.to_bits(),
            full.predicted_throughput.to_bits()
        );
        prop_assert!(pruned.stats.candidates <= full.stats.candidates);
        let center_qps = slabs.center(k_lo);
        let live = search.exhaustive_serial(center_qps);
        let at_center = search.run(center_qps, None);
        prop_assert_eq!(at_center.best, live.best);
        prop_assert_eq!(
            at_center.predicted_throughput.to_bits(),
            live.predicted_throughput.to_bits()
        );
    }
}
