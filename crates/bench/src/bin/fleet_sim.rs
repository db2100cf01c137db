//! `fleet_sim` — the fleet-scale control-plane benchmark driver.
//!
//! ```text
//! fleet_sim [--manifest scenario.toml]
//!           [--nodes 10000] [--intervals 1000] [--shards 0] [--regions 1]
//!           [--ls memcached] [--be raytrace]
//!           [--profile diurnal|triangle|constant|flash|failover]
//!           [--fraction 0.3] [--policy even|latency] [--search heuristic|pruned]
//!           [--sampled 0] [--seed 42]
//!           [--trace PATH.jsonl] [--json PATH.json]
//! ```
//!
//! Both entry points lower onto the same [`sturgeon::scenario`] code:
//! `--manifest` loads a TOML fleet scenario, while the ad-hoc flags
//! build the equivalent [`Scenario`] in memory — so the two paths
//! cannot drift. Runs one fleet sweep and prints the paper's
//! QoS/throughput metrics together with the control-plane accounting
//! this benchmark exists to demonstrate: wall-clock, peak RSS (from
//! `/proc/self/status`, so the streaming-aggregation memory claim is
//! checkable), and how many predictor trainings / `ModelTables` builds
//! the whole fleet paid. `--json` writes the measurements as one
//! machine-readable row — `BENCH_fleet.json` is an array of such rows;
//! CI replays the 1k-node smoke row and gates it with `stats`.
//! `--trace` streams shard 0's decision trace as JSON Lines (validated
//! by `trace_validate`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use sturgeon::fleet::Fleet;
use sturgeon::prelude::*;
use sturgeon::scenario;

#[derive(Debug)]
struct Args {
    manifest: Option<PathBuf>,
    nodes: usize,
    intervals: u32,
    shards: usize,
    regions: usize,
    ls: LsServiceId,
    be: BeAppId,
    profile: String,
    fraction: f64,
    policy: String,
    search: String,
    sampled: usize,
    seed: u64,
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
    /// Ad-hoc configuration flags the user passed explicitly (they
    /// conflict with `--manifest`, which owns the configuration).
    explicit: Vec<&'static str>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            manifest: None,
            nodes: 10_000,
            intervals: 1000,
            shards: 0,
            regions: 1,
            ls: LsServiceId::Memcached,
            be: BeAppId::Raytrace,
            profile: "diurnal".into(),
            fraction: 0.3,
            policy: "even".into(),
            search: "heuristic".into(),
            sampled: 0,
            seed: 42,
            trace: None,
            json: None,
            explicit: Vec::new(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let mut explicit = |name: &'static str| args.explicit.push(name);
        match flag {
            "--manifest" => args.manifest = Some(PathBuf::from(value)),
            "--nodes" => {
                args.nodes = value.parse().map_err(|_| format!("bad nodes {value}"))?;
                explicit("--nodes");
            }
            "--intervals" => {
                args.intervals = value
                    .parse()
                    .map_err(|_| format!("bad intervals {value}"))?;
                explicit("--intervals");
            }
            "--shards" => {
                args.shards = value.parse().map_err(|_| format!("bad shards {value}"))?;
                explicit("--shards");
            }
            "--regions" => {
                args.regions = value.parse().map_err(|_| format!("bad regions {value}"))?;
                explicit("--regions");
            }
            "--ls" => {
                args.ls = scenario::parse_ls(value).ok_or(format!("unknown LS service {value}"))?;
                explicit("--ls");
            }
            "--be" => {
                args.be = scenario::parse_be(value).ok_or(format!("unknown BE app {value}"))?;
                explicit("--be");
            }
            "--profile" => {
                args.profile = value.clone();
                explicit("--profile");
            }
            "--fraction" => {
                args.fraction = value.parse().map_err(|_| format!("bad fraction {value}"))?;
                explicit("--fraction");
            }
            "--policy" => {
                args.policy = value.clone();
                explicit("--policy");
            }
            "--search" => {
                args.search = value.clone();
                explicit("--search");
            }
            "--sampled" => {
                args.sampled = value.parse().map_err(|_| format!("bad sampled {value}"))?;
                explicit("--sampled");
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?;
                explicit("--seed");
            }
            "--trace" => args.trace = Some(PathBuf::from(value)),
            "--json" => args.json = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.manifest.is_some() && !args.explicit.is_empty() {
        return Err(format!(
            "--manifest owns the run configuration; drop {}",
            args.explicit.join(", ")
        ));
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fleet_sim [--manifest scenario.toml] \\
                 [--nodes N] [--intervals N] [--shards N|0=auto] [--regions N] \\
                 [--ls memcached|xapian|img-dnn] [--be raytrace|...] \\
                 [--profile diurnal|triangle|constant|flash|failover] [--fraction F] \\
                 [--policy even|latency] [--search heuristic|pruned] \\
                 [--sampled N] [--seed N] \\
                 [--trace PATH.jsonl] [--json PATH.json]"
    );
}

/// Peak resident set size (MiB) from `/proc/self/status` (`VmHWM`);
/// `None` off Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the fleet scenario the legacy ad-hoc flags describe — the
/// same profile algebra and controller composition the CLI has always
/// used, now expressed through the shared lowering code.
fn scenario_from_flags(args: &Args) -> Result<Scenario, String> {
    let strategy = scenario::parse_search_strategy(&args.search)
        .ok_or_else(|| format!("unknown search strategy {}", args.search))?;
    let dispatch = DispatchPolicy::parse(&args.policy)
        .ok_or_else(|| format!("unknown policy {}", args.policy))?;
    let region_loads =
        scenario::regional_profiles(&args.profile, args.fraction, args.intervals, args.regions)
            .ok_or_else(|| {
                format!(
                    "unknown profile {} (failover needs --regions >= 2)",
                    args.profile
                )
            })?;
    let load = region_loads[0].clone();
    let s = Scenario {
        name: "cli".into(),
        kind: ScenarioKind::Fleet,
        seed: args.seed,
        intervals: args.intervals,
        pair: ColocationPair::new(args.ls, args.be),
        controller: ControllerSpec {
            kind: scenario::ControllerKind::Sturgeon,
            strategy,
            hardened: false,
        },
        load,
        region_loads,
        faults: FaultPlan::none(args.seed),
        policy: ActuationPolicy::hardened(),
        fleet: Some(FleetSpec {
            nodes: args.nodes,
            shards: args.shards,
            regions: args.regions,
            dispatch,
            sampled_nodes: args.sampled,
        }),
        budget: None,
        placement: None,
        scoring: None,
        probe: None,
    };
    s.validate().map_err(|e| e.to_string())?;
    Ok(s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let scenario = match &args.manifest {
        Some(path) => match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match scenario_from_flags(&args) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("error: {msg}");
                usage();
                return ExitCode::FAILURE;
            }
        },
    };
    if scenario.kind != ScenarioKind::Fleet {
        eprintln!("error: node scenarios run under `sturgeon_sim --manifest`");
        return ExitCode::FAILURE;
    }
    let spec = scenario.fleet.expect("validated fleet scenario");
    let profiles = scenario.fleet_profiles();
    let profile_label = profiles[0].name().to_string();
    let mut params = match scenario.fleet_params() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    params.traced_shard = args.trace.as_ref().map(|_| 0);

    let build_start = Instant::now();
    let mut fleet = match Fleet::try_new(scenario.pair, spec.nodes, params, scenario.seed) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let build_s = build_start.elapsed().as_secs_f64();
    eprintln!(
        "fleet: {} nodes, {} shards, {} regions ({}) built in {:.2}s",
        fleet.len(),
        fleet.shard_count(),
        fleet.region_count(),
        scenario.pair.label(),
        build_s
    );

    let run_start = Instant::now();
    let result = if let Some(path) = &args.trace {
        let mut sink = match JsonlSink::create(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot create trace file: {e}");
                return ExitCode::FAILURE;
            }
        };
        let r = match fleet.run_regional_traced(&profiles, scenario.intervals, &mut sink) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = sink.flush() {
            eprintln!("error: cannot flush trace file: {e}");
            return ExitCode::FAILURE;
        }
        r
    } else {
        match fleet.run_regional(&profiles, scenario.intervals) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let run_s = run_start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib().unwrap_or(-1.0);
    let node_intervals = spec.nodes as f64 * scenario.intervals as f64;
    let policy_label = spec.dispatch.name();
    let search_label = scenario::search_strategy_name(scenario.controller.strategy);

    println!(
        "profile {}  policy {}  search {}  seed {}",
        profile_label, policy_label, search_label, scenario.seed
    );
    println!(
        "QoS guarantee rate: {:.4}   total BE throughput: {:.1} machines   mean power: {:.0} W / budget {:.0} W",
        result.qos_rate, result.total_be_throughput, result.mean_fleet_power_w, result.fleet_budget_w
    );
    println!(
        "wall: build {:.2}s + run {:.2}s   {:.2} M node-intervals/s   peak RSS {:.0} MiB",
        build_s,
        run_s,
        node_intervals / run_s / 1e6,
        peak_rss
    );
    println!(
        "artifacts: {} trainings, {} table builds, {} searches  (faults: {} stale, {} safe-mode, {} balancer retries)",
        result.trainings,
        result.table_builds,
        result.searches,
        result.fault_counters.stale_intervals,
        result.fault_counters.safe_mode_entries,
        result.fault_counters.balancer_retry_rounds
    );
    if scenario.budget.is_some() || scenario.placement.is_some() {
        println!(
            "placement: {} reclaims, {} migrations, {} evictions, {} assignments",
            result.budget_reclaims, result.migrations, result.evictions, result.assignments
        );
    }

    if let Some(path) = &args.json {
        // `"training": "shared"` stays in every row: it is part of the
        // row key committed benchmark tables are matched on.
        //
        // Budget/placement counters only appear when those subsystems
        // are configured, so rows from plain runs keep their legacy key
        // set and stay comparable against committed baselines.
        let extra = if scenario.budget.is_some() || scenario.placement.is_some() {
            format!(
                ",\n  \"budget_reclaims\": {},\n  \"migrations\": {},\n  \"evictions\": {},\n  \"assignments\": {}",
                result.budget_reclaims, result.migrations, result.evictions, result.assignments
            )
        } else {
            String::new()
        };
        let row = format!(
            "{{\n  \"nodes\": {},\n  \"intervals\": {},\n  \"shards\": {},\n  \"regions\": {},\n  \"profile\": \"{}\",\n  \"policy\": \"{}\",\n  \"search\": \"{}\",\n  \"training\": \"shared\",\n  \"seed\": {},\n  \"build_s\": {:.3},\n  \"run_s\": {:.3},\n  \"node_intervals_per_s\": {:.0},\n  \"peak_rss_mib\": {:.1},\n  \"qos_rate\": {:.6},\n  \"total_be_throughput\": {:.3},\n  \"mean_power_w\": {:.1},\n  \"budget_w\": {:.1},\n  \"trainings\": {},\n  \"table_builds\": {},\n  \"searches\": {}{extra}\n}}",
            spec.nodes,
            scenario.intervals,
            fleet.shard_count(),
            fleet.region_count(),
            profile_label,
            policy_label,
            search_label,
            scenario.seed,
            build_s,
            run_s,
            node_intervals / run_s,
            peak_rss,
            result.qos_rate,
            result.total_be_throughput,
            result.mean_fleet_power_w,
            result.fleet_budget_w,
            result.trainings,
            result.table_builds,
            result.searches
        );
        if let Err(e) = std::fs::write(path, format!("{row}\n")) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
