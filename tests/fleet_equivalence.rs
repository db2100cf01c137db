//! Pinned-seed equivalence between the multi-node runtime ([`Fleet`])
//! and the node runtime (`ExperimentSetup::runner().go()`, the path the
//! paper's figures and golden traces run).
//!
//! * **Even dispatch.** A fleet of `n` nodes in `n` shards hands every
//!   node `qps_at(t, n·peak) / n`, which for a power-of-two `n` is
//!   exactly `qps_at(t, peak)`. Each node's environment is seeded
//!   `seed + i` and its shard controller sees that one node's
//!   observation, so every node must follow the trajectory of an
//!   independent node run at seed `seed + i` **bit for bit** — not
//!   approximately.
//! * **Latency-aware dispatch.** The nodes are coupled through the
//!   dispatcher's EWMA state, so no independent node run is a reference.
//!   Instead a fresh [`Dispatcher`] replays the logged previous-interval
//!   p95s, and each node's logged load must equal the aggregate load
//!   times the replayed weight, bit for bit.
//!
//! This is the contract that lets the sharded, shared-artifact fleet be
//! trusted: it is a refactoring of the node loop whose semantics are
//! pinned here.

use std::sync::Arc;
use sturgeon::controller::{ControllerParams, SturgeonController};
use sturgeon::dispatch::{DispatchPolicy, Dispatcher};
use sturgeon::experiment::{ColocationPair, ExperimentSetup, RunResult};
use sturgeon::fleet::{Fleet, FleetBudget, FleetParams, FleetResult};
use sturgeon_simnode::TelemetryLog;
use sturgeon_workloads::catalog::{BeAppId, LsServiceId};
use sturgeon_workloads::loadgen::LoadProfile;

fn pair() -> ColocationPair {
    ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions)
}

/// A one-node-per-shard fleet that keeps every node's full log.
fn fleet(n: usize, policy: DispatchPolicy, seed: u64) -> Fleet {
    let params = FleetParams {
        shards: n,
        policy,
        sampled_nodes: n,
        ..FleetParams::default()
    };
    Fleet::new(pair(), n, params, seed)
}

/// Independent node runs at seeds `seed + i`, each with its own default
/// Sturgeon controller. The offline profiler is seeded independently of
/// the node, so one trained predictor serves every run, as in the fleet.
fn node_runs(n: usize, seed: u64, profile: &LoadProfile, intervals: u32) -> Vec<RunResult> {
    let predictor = Arc::new(ExperimentSetup::new(pair(), seed).train_default_predictor());
    (0..n)
        .map(|i| {
            let setup = ExperimentSetup::new(pair(), seed + i as u64);
            let controller = SturgeonController::with_shared_predictor(
                Arc::clone(&predictor),
                setup.spec().clone(),
                setup.budget_w(),
                setup.qos_target_ms(),
                ControllerParams::default(),
            );
            setup
                .runner()
                .controller(controller)
                .load(profile.clone())
                .intervals(intervals)
                .go()
                .expect("node run")
        })
        .collect()
}

/// Per-interval samples that differ between two logs, on every channel
/// but `in_target_fraction` (the node log clamps it to 0.95 whenever
/// p95 misses the target; the fleet log keeps the raw fraction).
fn mismatched_samples(fleet: &TelemetryLog, node: &TelemetryLog) -> usize {
    assert_eq!(fleet.len(), node.len());
    fleet
        .samples()
        .iter()
        .zip(node.samples())
        .filter(|(f, s)| {
            f.qps.to_bits() != s.qps.to_bits()
                || f.p95_ms.to_bits() != s.p95_ms.to_bits()
                || f.power_w.to_bits() != s.power_w.to_bits()
                || f.be_throughput_norm.to_bits() != s.be_throughput_norm.to_bits()
                || f.config != s.config
        })
        .count()
}

/// Runs an even one-node-per-shard fleet and the matching node runs and
/// asserts that every node matches bit for bit.
fn assert_even_fleet_matches_node_runs(n: usize, seed: u64, profile: LoadProfile, intervals: u32) {
    let runs = node_runs(n, seed, &profile, intervals);
    let mut fleet = fleet(n, DispatchPolicy::Even, seed);
    let result = fleet.run(profile, intervals);
    let logs = fleet.sampled_logs();
    assert_eq!(logs.len(), n);
    for ((i, log), run) in logs.into_iter().zip(&runs) {
        let bad = mismatched_samples(log, &run.log);
        assert_eq!(
            bad, 0,
            "n={n} seed={seed}: node {i} differs in {bad} intervals"
        );
        let row = &result.nodes[i];
        assert_eq!(
            row.mean_be_throughput.to_bits(),
            run.mean_be_throughput.to_bits(),
            "node {i} throughput: {} vs {}",
            row.mean_be_throughput,
            run.mean_be_throughput
        );
        assert_eq!(
            row.overload_fraction.to_bits(),
            run.overload_fraction.to_bits(),
            "node {i} overload"
        );
        assert_eq!(row.safe_mode_entries, run.faults.safe_mode_entries);
    }
}

#[test]
fn even_fleet_matches_independent_node_runs() {
    assert_even_fleet_matches_node_runs(1, 42, LoadProfile::paper_fluctuating(60.0), 50);
    assert_even_fleet_matches_node_runs(2, 42, LoadProfile::paper_fluctuating(60.0), 50);
    assert_even_fleet_matches_node_runs(4, 7, LoadProfile::Constant { fraction: 0.5 }, 40);
    assert_even_fleet_matches_node_runs(4, 23, LoadProfile::paper_fluctuating(80.0), 60);
    // A longer ride through the paper's load swing crosses more of the
    // controller's slack-band edges: it catches a 1% error in the
    // shard-mean p95 that the short runs above never act on.
    assert_even_fleet_matches_node_runs(2, 5, LoadProfile::paper_fluctuating(200.0), 200);
}

#[test]
fn latency_aware_fleet_matches_dispatcher_replay() {
    // Nodes whose interference process has not spiked yet see identical
    // p95s and receive identical weights, so a node-index mix-up in the
    // fleet's dispatch plumbing would go unseen there. At this seed all
    // three weights differ in 89 of the 100 intervals.
    const SEED: u64 = 15;
    const NODES: usize = 3;
    const INTERVALS: u32 = 100;
    let profile = LoadProfile::paper_fluctuating(INTERVALS as f64);
    let mut fleet = fleet(NODES, DispatchPolicy::LatencyAware, SEED);
    fleet.run(profile.clone(), INTERVALS);
    let logs = fleet.sampled_logs();
    assert_eq!(logs.len(), NODES);

    let setup = ExperimentSetup::new(pair(), SEED);
    let peak = setup.peak_qps() * NODES as f64;
    let mut dispatcher =
        Dispatcher::try_new(DispatchPolicy::LatencyAware, NODES, setup.qos_target_ms())
            .expect("valid dispatcher");
    let mut last_p95 = vec![0.0; NODES];
    let mut distinct = 0;
    for t in 0..INTERVALS as usize {
        let total = profile.qps_at(t as f64, peak);
        let weights = dispatcher.fill_weights(&last_p95);
        let bits: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
        if (1..NODES).all(|i| !bits[..i].contains(&bits[i])) {
            distinct += 1;
        }
        for ((i, log), (w, p95)) in logs.iter().zip(weights.iter().zip(&mut last_p95)) {
            let sample = &log.samples()[t];
            assert_eq!(
                sample.qps.to_bits(),
                (total * w).to_bits(),
                "node {i} at t={t}: logged {} vs replayed {}",
                sample.qps,
                total * w
            );
            *p95 = sample.p95_ms;
        }
    }
    assert!(
        distinct >= 3 * INTERVALS as usize / 4,
        "the replay must exercise distinct weights: {distinct} of {INTERVALS} intervals"
    );
}

#[test]
fn event_free_budget_tree_is_inert() {
    // A budget tree with no cap events never binds: every reclamation
    // input stays at nominal, so the per-node budgets the controllers
    // see are untouched and the trajectory is bit-identical to a fleet
    // built without a tree. This is the contract that lets `[budget]`
    // default into manifests without perturbing committed baselines.
    const SEED: u64 = 23;
    const NODES: usize = 2;
    let profile = LoadProfile::paper_fluctuating(60.0);
    let run = |budget: Option<FleetBudget>| -> (FleetResult, Vec<TelemetryLog>) {
        let params = FleetParams {
            shards: NODES,
            sampled_nodes: NODES,
            budget,
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), NODES, params, SEED);
        let result = fleet.run(profile.clone(), 50);
        let logs = fleet
            .sampled_logs()
            .into_iter()
            .map(|(_, log)| log.clone())
            .collect();
        (result, logs)
    };
    let (flat, flat_logs) = run(None);
    let (tree, tree_logs) = run(Some(FleetBudget::default()));
    assert_eq!(tree.budget_reclaims, 0, "no events, no reclamation");
    for (a, b) in flat_logs.iter().zip(&tree_logs) {
        assert_eq!(mismatched_samples(a, b), 0);
    }
    assert_eq!(flat.qos_rate.to_bits(), tree.qos_rate.to_bits());
    assert_eq!(
        flat.total_be_throughput.to_bits(),
        tree.total_be_throughput.to_bits()
    );
    assert_eq!(
        flat.mean_fleet_power_w.to_bits(),
        tree.mean_fleet_power_w.to_bits()
    );
    assert_eq!(flat.fleet_budget_w.to_bits(), tree.fleet_budget_w.to_bits());
}

#[test]
fn per_node_safe_mode_entries_are_surfaced() {
    // Fleet node rows must carry their shard controller's safe-mode
    // count, matching both the independent node runs and the aggregate
    // counter.
    const SEED: u64 = 42;
    const NODES: usize = 2;
    let profile = LoadProfile::paper_fluctuating(60.0);
    let runs = node_runs(NODES, SEED, &profile, 50);
    let mut fleet = fleet(NODES, DispatchPolicy::Even, SEED);
    let fr = fleet.run(profile, 50);
    for (run, f) in runs.iter().zip(&fr.nodes) {
        assert_eq!(
            run.faults.safe_mode_entries, f.safe_mode_entries,
            "node {}",
            f.node
        );
    }
    assert_eq!(
        fr.nodes.iter().map(|n| n.safe_mode_entries).sum::<u64>(),
        fr.fault_counters.safe_mode_entries,
        "one node per shard: per-node counts sum to the aggregate"
    );
}
