//! Cluster scale-out: the paper's Fig. 4 deployment model — a
//! cluster-level scheduler dispatching the query stream across several
//! Sturgeon nodes, each managing its own co-location autonomously.
//!
//! Compares dispatch policies (even vs latency-aware) on a 4-node
//! cluster riding the paper's fluctuating load. The cluster is a
//! [`Fleet`] with one node per shard, so every node runs its own
//! controller, exactly as in the paper.
//!
//! ```sh
//! cargo run --release --example cluster_scale_out [duration_s]
//! ```

use sturgeon::prelude::*;

fn main() {
    let duration: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let nodes = 4;
    println!(
        "cluster: {nodes} nodes of {} under a fluctuating aggregate load ({duration}s)\n",
        pair.label()
    );

    for (name, policy) in [
        ("even dispatch", DispatchPolicy::Even),
        ("latency-aware dispatch", DispatchPolicy::LatencyAware),
    ] {
        println!("== {name} ==");
        let params = FleetParams {
            shards: nodes,
            policy,
            ..FleetParams::default()
        };
        let mut cluster =
            Fleet::try_new(pair, nodes, params, 42).expect("valid cluster configuration");
        let registry = MetricsRegistry::new();
        let result = cluster.run_with_metrics(
            LoadProfile::paper_fluctuating(duration as f64),
            duration,
            &registry,
        );
        for n in &result.nodes {
            println!(
                "  node {}: QoS {:.2}%  BE tput {:.3}  mean power {:.1} W  overload {:.1}%",
                n.node,
                n.qos_rate * 100.0,
                n.mean_be_throughput,
                n.mean_power_w,
                n.overload_fraction * 100.0
            );
        }
        println!(
            "  cluster: QoS {:.2}% | batch work recovered {:.2} machine-equivalents | power {:.0}/{:.0} W",
            result.qos_rate * 100.0,
            result.total_be_throughput,
            result.mean_fleet_power_w,
            result.fleet_budget_w
        );
        let p95 = registry
            .histogram("interval.p95_ms")
            .expect("run_with_metrics fills interval.p95_ms");
        println!(
            "  fleet latency histogram: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms over {} intervals\n",
            p95.p50, p95.p95, p95.p99, p95.count
        );
    }

    println!("each node runs Sturgeon independently — no cross-node coordination is needed,");
    println!("exactly the per-node autonomy the paper's deployment model (Fig. 4) relies on.");
}
