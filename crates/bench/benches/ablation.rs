//! Criterion bench: runtime ablations of the search design choices called
//! out in DESIGN.md — the cost of the monotone-consistency probes, of the
//! power-drift headroom, and of the balancer's three-way candidate
//! evaluation (paper: 3 × 4 × 0.04 ms ≈ 0.48 ms per invocation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sturgeon::balancer::{BalancerParams, ResourceBalancer};
use sturgeon::prelude::*;
use sturgeon_workloads::env::Observation;

fn bench_ablation(c: &mut Criterion) {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 42);
    let predictor = setup.train_default_predictor();
    let spec = setup.spec().clone();
    let budget = setup.budget_w();
    let peak = setup.peak_qps();

    // Search-parameter ablation: how much latency do the safety features
    // (drift headroom) add to the per-interval search?
    let mut group = c.benchmark_group("search_params");
    for (label, params) in [
        ("default", SearchParams::default()),
        (
            "no_drift_headroom",
            SearchParams {
                power_load_headroom: 0.0,
                ..SearchParams::default()
            },
        ),
        (
            "wide_be_reserve",
            SearchParams {
                min_be_cores: 4,
                min_be_ways: 4,
                ..SearchParams::default()
            },
        ),
    ] {
        group.bench_function(label, |b| {
            let search = ConfigSearch::new(&predictor, spec.clone(), budget, params);
            b.iter(|| black_box(search.run(black_box(0.35 * peak), None)))
        });
    }
    group.finish();

    // Balancer invocation cost (paper: ≈0.48 ms for the 3-candidate
    // evaluation).
    let mut group = c.benchmark_group("balancer");
    group.bench_function("adjust_violation", |b| {
        let current = PairConfig::new(Allocation::new(6, 5, 8), Allocation::new(14, 8, 12));
        let obs = Observation {
            t_s: 1.0,
            qps: 0.25 * peak,
            p95_ms: 11.5,
            in_target_fraction: 0.9,
            ls_utilization: 0.9,
            power_w: budget - 5.0,
            be_throughput_norm: 0.5,
            be_ipc: 0.5,
            interference: 1.1,
        };
        b.iter(|| {
            let mut balancer = ResourceBalancer::new(BalancerParams::default());
            black_box(balancer.adjust(&predictor, &spec, budget, &obs, 10.0, current))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
