//! `perfbench` — one measured repetition of a benchmark workload.
//!
//! ```text
//! perfbench run       --manifest M.toml --seed N [--intervals N] [--nodes N] [--perturb]
//! perfbench traced    --manifest M.toml --seed N [--intervals N] [--nodes N]
//! perfbench reference --manifest M.toml --seed N [--intervals N] [--nodes N]
//! ```
//!
//! * `run` builds the controller (node) or fleet [`SETUPS`] times, timing each
//!   build (`setup_s`), then steps every interval once with tracing off
//!   (`run_s`) and reads the process's `VmHWM` (`peak_rss_mib`).
//! * `traced` times each layer's public entry points directly, then
//!   repeats the run with a timing controller wrapper and a
//!   timestamping trace sink attached, and reports the per-layer numbers.
//! * `reference` runs the manifest through `sturgeon::scenario`'s own
//!   lowering, the result the composed runs must reproduce bit for bit.
//!
//! Every layer is timed from outside, around calls into the library's
//! public functions; the library is not instrumented. Each mode prints
//! one JSON object on stdout; `run.py` starts one process per
//! repetition, so `VmHWM` is that one repetition's peak memory.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use serde::Value;
use sturgeon::obs::{TraceEvent, TraceSink};
use sturgeon::prelude::*;
use sturgeon::scenario::{percentile, ScenarioKind};
use sturgeon_workloads::env::Observation;

type Res<T> = Result<T, String>;

/// Controller or fleet builds per repetition; `setup_s` is their median.
const SETUPS: usize = 7;

fn main() {
    match real_main() {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Args {
    mode: String,
    manifest: String,
    seed: u64,
    intervals: Option<u32>,
    nodes: Option<usize>,
    perturb: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = argv.first().cloned().ok_or("missing mode")?;
    let mut args = Args {
        mode,
        manifest: String::new(),
        seed: 0,
        intervals: None,
        nodes: None,
        perturb: false,
    };
    let mut seed = None;
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--perturb" {
            args.perturb = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        let int = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag {
            "--manifest" => args.manifest = value.clone(),
            "--seed" => seed = Some(int()?),
            "--intervals" => args.intervals = Some(int()? as u32),
            "--nodes" => args.nodes = Some(int()? as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.manifest.is_empty() {
        return Err("--manifest is required".into());
    }
    Ok(args)
}

/// Loads the workload manifest with the benchmark's seed (manifests
/// carry no seed of their own) and the optional size overrides.
fn load_scenario(args: &Args) -> Res<Scenario> {
    let text =
        std::fs::read_to_string(&args.manifest).map_err(|e| format!("{}: {e}", args.manifest))?;
    let mut sc = Scenario::from_toml_str(&format!("seed = {}\n{text}", args.seed))
        .map_err(|e| e.to_string())?;
    if let Some(n) = args.intervals {
        sc.intervals = n;
    }
    if let (Some(n), Some(fleet)) = (args.nodes, sc.fleet.as_mut()) {
        fleet.nodes = n;
    }
    sc.validate().map_err(|e| e.to_string())?;
    if !sc.controller.kind.is_sturgeon() {
        return Err("the benchmark drives Sturgeon controllers only".into());
    }
    Ok(sc)
}

fn real_main() -> Res<Json> {
    let args = parse_args()?;
    let sc = load_scenario(&args)?;
    let mut out = match (args.mode.as_str(), sc.kind) {
        ("run", ScenarioKind::Node) => node_run(&sc, args.perturb)?,
        ("run", ScenarioKind::Fleet) => fleet_run(&sc, args.perturb)?,
        ("traced", ScenarioKind::Node) => node_traced(&sc)?,
        ("traced", ScenarioKind::Fleet) => fleet_traced(&sc)?,
        ("reference", _) => reference(&sc)?,
        (m, _) => return Err(format!("unknown mode {m}")),
    };
    out.str("mode", &args.mode);
    out.str("workload", &sc.name);
    out.num("seed", args.seed as f64);
    Ok(out)
}

// ---------------------------------------------------------------------
// Set-up: the public offline entry points, composed as the scenario
// lowering composes them.
// ---------------------------------------------------------------------

/// `ExperimentSetup::profile` then `PerfPowerPredictor::train`, with the
/// paper-default profiler and model families.
fn profile_and_train(setup: &ExperimentSetup) -> Res<PerfPowerPredictor> {
    let datasets = setup
        .profile(ProfilerConfig::default())
        .map_err(|e| e.to_string())?;
    train(setup, &datasets)
}

fn train(setup: &ExperimentSetup, datasets: &ProfileDatasets) -> Res<PerfPowerPredictor> {
    PerfPowerPredictor::train(
        datasets,
        PredictorConfig::default(),
        setup.env().static_power_w(),
        setup.env().be().params.input_level as f64,
        setup.qos_target_ms(),
    )
    .map_err(|e| e.to_string())
}

/// A node controller ready for interval 0.
struct NodeBuild {
    setup: ExperimentSetup,
    predictor: Arc<PerfPowerPredictor>,
    controller: SturgeonController,
}

fn build_node(sc: &Scenario) -> Res<NodeBuild> {
    let setup = sc.setup();
    let predictor = Arc::new(profile_and_train(&setup)?);
    let controller = SturgeonController::with_shared_predictor(
        Arc::clone(&predictor),
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        sc.controller_params(),
    );
    Ok(NodeBuild {
        setup,
        predictor,
        controller,
    })
}

fn build_fleet(sc: &Scenario, traced: bool) -> Res<Fleet> {
    let nodes = sc
        .fleet
        .as_ref()
        .ok_or("fleet workload without [fleet]")?
        .nodes;
    let mut params = sc.fleet_params().map_err(|e| e.to_string())?;
    if traced {
        params.traced_shard = Some(0);
    }
    Fleet::try_new(sc.pair, nodes, params, sc.seed).map_err(|e| e.to_string())
}

/// Runs `build` [`SETUPS`] times, timing each call, and keeps the last result.
/// The previous build is dropped before the next one starts, so peak
/// memory holds one build at a time.
fn timed_builds<T>(mut build: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one build"), times))
}

// ---------------------------------------------------------------------
// The timing controller wrapper.
// ---------------------------------------------------------------------

/// One `decide` call seen by [`Timed`] while tracing was on.
#[derive(Clone, Copy)]
struct Decide {
    ns: u64,
    /// `slab_builds()` went up during the call.
    slab_built: bool,
    /// The call ran a configuration search.
    searched: bool,
}

/// Forwards every [`ResourceController`] method to the wrapped
/// controller — none may fall back to a trait default, or the run would
/// silently differ — and, while tracing is on, times each `decide`.
struct Timed {
    inner: SturgeonController,
    tracing: bool,
    log: Rc<RefCell<Vec<Decide>>>,
}

impl Timed {
    fn new(inner: SturgeonController) -> (Self, Rc<RefCell<Vec<Decide>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let timed = Self {
            inner,
            tracing: false,
            log: Rc::clone(&log),
        };
        (timed, log)
    }
}

impl ResourceController for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fault_counters(&self) -> ControllerFaultCounters {
        self.inner.fault_counters()
    }

    fn initial_config(&self, spec: &NodeSpec) -> PairConfig {
        self.inner.initial_config(spec)
    }

    fn decide(&mut self, obs: &Observation, current: PairConfig) -> PairConfig {
        if !self.tracing {
            return self.inner.decide(obs, current);
        }
        let slabs = self.inner.predictor().slab_builds();
        let searches = self.inner.search_count();
        let t = Instant::now();
        let next = self.inner.decide(obs, current);
        let ns = t.elapsed().as_nanos() as u64;
        self.log.borrow_mut().push(Decide {
            ns,
            slab_built: self.inner.predictor().slab_builds() > slabs,
            searched: self.inner.search_count() > searches,
        });
        next
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        self.inner.set_tracing(enabled);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }
}

// ---------------------------------------------------------------------
// The timestamping trace sink.
// ---------------------------------------------------------------------

/// Tallies the events of a traced run and stamps each `TelemetrySample`
/// with its arrival time (fleets: the traced shard's samples, drained
/// once per interval after every shard stepped).
struct StampSink {
    spec: NodeSpec,
    telemetry_at: Vec<Instant>,
    search_runs: u64,
    candidates: u64,
    frontier_reuses: u64,
    slices_reused: u64,
    slices_rescanned: u64,
    /// `(entries, hits, misses)` of the last `CacheSnapshot`.
    last_cache: Option<(u64, u64, u64)>,
    configs_seen: u64,
    invalid_configs: u64,
}

impl StampSink {
    fn new(spec: NodeSpec) -> Self {
        Self {
            spec,
            telemetry_at: Vec::new(),
            search_runs: 0,
            candidates: 0,
            frontier_reuses: 0,
            slices_reused: 0,
            slices_rescanned: 0,
            last_cache: None,
            configs_seen: 0,
            invalid_configs: 0,
        }
    }

    fn check(&mut self, config: &PairConfig) {
        self.configs_seen += 1;
        if config.validate(&self.spec).is_err() {
            self.invalid_configs += 1;
        }
    }

    /// Gaps between consecutive telemetry arrivals (ms), sorted.
    fn interval_gaps_ms(&self) -> Vec<f64> {
        let mut gaps: Vec<f64> = self
            .telemetry_at
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        gaps.sort_by(f64::total_cmp);
        gaps
    }
}

impl TraceSink for StampSink {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TelemetrySample { .. } => self.telemetry_at.push(Instant::now()),
            TraceEvent::SearchRan {
                candidates, chosen, ..
            } => {
                self.search_runs += 1;
                self.candidates += *candidates as u64;
                if let Some(c) = chosen {
                    self.check(c);
                }
            }
            TraceEvent::SearchPruned {
                frontier_reuses, ..
            } => self.frontier_reuses += frontier_reuses,
            TraceEvent::SearchIncremental {
                slices_reused,
                slices_rescanned,
                ..
            } => {
                self.slices_reused += slices_reused;
                self.slices_rescanned += slices_rescanned;
            }
            TraceEvent::CacheSnapshot {
                entries,
                hits,
                misses,
                ..
            } => self.last_cache = Some((*entries as u64, *hits, *misses)),
            TraceEvent::ConfigApplied { to, .. } => self.check(to),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------

fn step_node<'a>(
    sc: &Scenario,
    setup: &'a ExperimentSetup,
    controller: Timed,
    sink: Option<&'a mut dyn TraceSink>,
) -> Res<RunResult> {
    let mut run = setup
        .runner()
        .controller(controller)
        .load(sc.load.clone())
        .intervals(sc.intervals)
        .faults(sc.faults)
        .policy(sc.policy);
    if let Some(sink) = sink {
        run = run.trace(sink);
    }
    run.go().map_err(|e| e.to_string())
}

/// The simulated outputs every run reports, plus a digest of the whole
/// simulated result for bit-for-bit comparison across runs.
struct Sim {
    qos_rate: f64,
    be_throughput: f64,
    within_cap_frac: f64,
    digest: u64,
}

fn node_sim(result: &mut RunResult, perturb: bool) -> Sim {
    if perturb {
        result.qos_rate = next_up(result.qos_rate);
    }
    Sim {
        qos_rate: result.qos_rate,
        be_throughput: result.mean_be_throughput,
        within_cap_frac: 1.0 - result.overload_fraction,
        digest: digest(result),
    }
}

fn fleet_sim(result: &mut FleetResult, perturb: bool) -> Sim {
    if perturb {
        result.qos_rate = next_up(result.qos_rate);
    }
    let n = result.nodes.len().max(1) as f64;
    let overload = result
        .nodes
        .iter()
        .map(|r| r.overload_fraction)
        .sum::<f64>()
        / n;
    Sim {
        qos_rate: result.qos_rate,
        be_throughput: result.total_be_throughput / n,
        within_cap_frac: 1.0 - overload,
        digest: digest(result),
    }
}

/// The run's checks that do not need the reference: every logged
/// configuration validates, and (fleets) every node stepped every
/// interval.
fn node_checks(out: &mut Json, sc: &Scenario, setup: &ExperimentSetup, result: &RunResult) {
    let invalid = result
        .log
        .samples()
        .iter()
        .filter(|s| s.config.validate(setup.spec()).is_err())
        .count();
    out.check(
        "configs_valid",
        invalid == 0 && !result.log.samples().is_empty(),
    );
    out.check(
        "intervals_logged",
        result.log.samples().len() == sc.intervals as usize,
    );
}

fn fleet_checks(out: &mut Json, sc: &Scenario, fleet: &Fleet, result: &FleetResult) {
    let expected = fleet.len() as u64 * sc.intervals as u64;
    let registry = MetricsRegistry::new();
    fleet.export_metrics(result, &registry);
    let histogram = registry.histogram("interval.p95_ms").map_or(0, |h| h.count);
    out.check(
        "node_intervals",
        registry.counter("run.intervals") == expected
            && histogram == expected
            && result.nodes.len() == fleet.len(),
    );
    let logs = fleet.sampled_logs();
    let valid = !logs.is_empty()
        && logs.iter().all(|(_, log)| {
            log.samples().len() == sc.intervals as usize
                && log
                    .samples()
                    .iter()
                    .all(|s| s.config.validate(fleet.spec()).is_ok())
        });
    out.check("configs_valid", valid);
}

fn put_sim(out: &mut Json, sim: &Sim) {
    out.num("qos_rate", sim.qos_rate);
    out.num("be_throughput", sim.be_throughput);
    out.num("within_cap_frac", sim.within_cap_frac);
    out.str("digest", &format!("{:016x}", sim.digest));
}

fn node_run(sc: &Scenario, perturb: bool) -> Res<Json> {
    let (build, setup_s) = timed_builds(|| build_node(sc))?;
    let NodeBuild {
        setup, controller, ..
    } = build;
    let reference_initial = controller.initial_config(setup.spec());
    let (timed, _) = Timed::new(controller);
    let forwarded = timed.initial_config(setup.spec()) == reference_initial;
    let t = Instant::now();
    let mut result = step_node(sc, &setup, timed, None)?;
    let run_s = t.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    let mut out = Json::default();
    out.nums("setup_s", &setup_s);
    out.num("run_s", run_s);
    out.num("peak_rss_mib", rss);
    out.check("wrapper_forwards", forwarded);
    node_checks(&mut out, sc, &setup, &result);
    put_sim(&mut out, &node_sim(&mut result, perturb));
    Ok(out)
}

fn fleet_run(sc: &Scenario, perturb: bool) -> Res<Json> {
    let (mut fleet, setup_s) = timed_builds(|| build_fleet(sc, false))?;
    let profiles = sc.fleet_profiles();
    let t = Instant::now();
    let mut result = fleet
        .run_regional(&profiles, sc.intervals)
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let rss = peak_rss_mib();
    let mut out = Json::default();
    out.nums("setup_s", &setup_s);
    out.num("run_s", run_s);
    out.num("peak_rss_mib", rss);
    fleet_checks(&mut out, sc, &fleet, &result);
    put_sim(&mut out, &fleet_sim(&mut result, perturb));
    Ok(out)
}

fn reference(sc: &Scenario) -> Res<Json> {
    let sim = match sc.kind {
        ScenarioKind::Node => {
            let mut result = sc
                .run_node_observed(None, None)
                .map_err(|e| e.to_string())?;
            node_sim(&mut result, false)
        }
        ScenarioKind::Fleet => {
            let outcome = sc.run().map_err(|e| e.to_string())?;
            let mut result = outcome
                .fleet
                .ok_or("fleet scenario without a fleet result")?;
            fleet_sim(&mut result, false)
        }
    };
    let mut out = Json::default();
    put_sim(&mut out, &sim);
    Ok(out)
}

// ---------------------------------------------------------------------
// Per-layer timings and the traced run.
// ---------------------------------------------------------------------

/// Times the offline layers directly: profiling, training and the
/// model-table build, each on a fresh setup and predictor so no cache
/// carries over. The traced run uses its own predictor, so the run's
/// lazy table build is untouched.
fn offline_layers(out: &mut Json, sc: &Scenario) -> Res<()> {
    let (mut collect, mut training, mut tables) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let setup = sc.setup();
        let t = Instant::now();
        let datasets = setup
            .profile(ProfilerConfig::default())
            .map_err(|e| e.to_string())?;
        collect.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let predictor = train(&setup, &datasets)?;
        training.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(predictor.model_tables(setup.spec()));
        tables.push(t.elapsed().as_secs_f64());
    }
    out.num("profiler.collect_s", median(&mut collect));
    out.num("predictor.train_s", median(&mut training));
    out.num("tables.model_tables_s", median(&mut tables));

    // Cold-start CF training and the learned set scorer (fleets that
    // enable them; both run inside `Fleet::try_new`).
    let (mut cf, mut scorer) = (Vec::new(), Vec::new());
    if let Some(params) = &sc.scoring {
        let setup = sc.setup();
        for _ in 0..SETUPS {
            if params.cold_start {
                let mut p = params.clone();
                p.masked_app
                    .get_or_insert_with(|| sc.pair.be.name().to_string());
                let t = Instant::now();
                std::hint::black_box(
                    train_cold_start_predictor(&setup, &p).map_err(|e| e.to_string())?,
                );
                cf.push(t.elapsed().as_secs_f64());
            }
            if params.set_scorer {
                let t = Instant::now();
                std::hint::black_box(
                    SetScorer::train(setup.spec(), setup.env().power_model(), params.seed)
                        .map_err(|e| e.to_string())?,
                );
                scorer.push(t.elapsed().as_secs_f64());
            }
        }
    }
    if !cf.is_empty() {
        out.num("scoring.cf_train_s", median(&mut cf));
    }
    if !scorer.is_empty() {
        out.num("scoring.set_scorer_train_s", median(&mut scorer));
    }
    Ok(())
}

/// Interval pacing and config validity, read from a traced run's sink.
fn sink_layers(out: &mut Json, sink: &StampSink) {
    let gaps = sink.interval_gaps_ms();
    out.num("fleet.interval_p50_ms", percentile(&gaps, 0.50));
    out.num("fleet.interval_p99_ms", percentile(&gaps, 0.99));
    out.num("fleet.interval_samples", gaps.len() as f64);
    out.check(
        "traced_configs_valid",
        sink.configs_seen > 0 && sink.invalid_configs == 0,
    );
}

/// Search-engine tallies from the sink. Node runs only: a fleet traces
/// one shard, so its tallies would cover a fraction of the searches.
fn search_layers(out: &mut Json, sink: &StampSink) {
    out.num("search.runs", sink.search_runs as f64);
    out.num("search.candidates", sink.candidates as f64);
    out.num("search.frontier_reuses", sink.frontier_reuses as f64);
    let slices = sink.slices_reused + sink.slices_rescanned;
    out.num(
        "search.incremental_reuse_ratio",
        ratio(sink.slices_reused, slices),
    );
}

/// Prediction-cache counters. `model_calls` counts model runs, the
/// queries the cache did not serve.
fn cache_layers(out: &mut Json, model_calls: u64, entries: u64, hits: u64, misses: u64) {
    out.num("predictor.model_calls", model_calls as f64);
    out.num("predictor.cache_hits", hits as f64);
    out.num("predictor.cache_misses", misses as f64);
    out.num("predictor.cache_hit_ratio", ratio(hits, hits + misses));
    out.num("predictor.cache_entries", entries as f64);
}

fn node_traced(sc: &Scenario) -> Res<Json> {
    let mut out = Json::default();
    offline_layers(&mut out, sc)?;

    let NodeBuild {
        setup,
        predictor,
        controller,
    } = build_node(sc)?;
    let (timed, log) = Timed::new(controller);
    let mut sink = StampSink::new(setup.spec().clone());
    let t = Instant::now();
    let mut result = step_node(sc, &setup, timed, Some(&mut sink))?;
    let run_s = t.elapsed().as_secs_f64();

    let decides = log.borrow();
    let total = |keep: &dyn Fn(&Decide) -> bool| {
        decides
            .iter()
            .filter(|d| keep(d))
            .map(|d| d.ns)
            .sum::<u64>() as f64
            * 1e-9
    };
    let decide_s = total(&|_| true);
    let mut us: Vec<f64> = decides.iter().map(|d| d.ns as f64 * 1e-3).collect();
    us.sort_by(f64::total_cmp);
    out.num("run_s", run_s);
    out.num("controller.decide_calls", decides.len() as f64);
    out.num("controller.decide_s", decide_s);
    out.num("controller.decide_p50_us", percentile(&us, 0.50));
    out.num("controller.decide_p99_us", percentile(&us, 0.99));
    out.num("predictor.slab_builds", predictor.slab_builds() as f64);
    out.num("predictor.slab_build_s", total(&|d| d.slab_built));
    out.num("search.decide_s", total(&|d| d.searched && !d.slab_built));
    out.num("env.step_s", run_s - decide_s);
    cache_layers(
        &mut out,
        predictor
            .prediction_count()
            .saturating_sub(predictor.cache_hits()),
        predictor.cache().len() as u64,
        predictor.cache_hits(),
        predictor.cache_misses(),
    );
    sink_layers(&mut out, &sink);
    search_layers(&mut out, &sink);
    out.num("fleet.node_intervals_per_s", sc.intervals as f64 / run_s);
    out.check(
        "decides_timed",
        decides.len() == sc.intervals as usize
            && decides.iter().filter(|d| d.searched).count() as u64 == sink.search_runs,
    );
    node_checks(&mut out, sc, &setup, &result);
    put_sim(&mut out, &node_sim(&mut result, false));
    Ok(out)
}

fn fleet_traced(sc: &Scenario) -> Res<Json> {
    let mut out = Json::default();
    offline_layers(&mut out, sc)?;
    let (mut fleet, mut build_s) = timed_builds(|| build_fleet(sc, true))?;
    out.num("fleet.build_s", median(&mut build_s));

    let mut sink = StampSink::new(fleet.spec().clone());
    let profiles = sc.fleet_profiles();
    let t = Instant::now();
    let mut result = fleet
        .run_regional_traced(&profiles, sc.intervals, &mut sink)
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();

    // The shard controllers live inside the fleet, so decide calls and
    // slab builds cannot be timed from outside; only counts the fleet
    // returns and the traced shard's events are reported.
    out.num("run_s", run_s);
    out.num("search.runs", result.searches as f64);
    let (entries, hits, misses) = sink.last_cache.unwrap_or_default();
    cache_layers(&mut out, misses, entries, hits, misses);
    sink_layers(&mut out, &sink);
    out.num(
        "fleet.node_intervals_per_s",
        fleet.len() as f64 * sc.intervals as f64 / run_s,
    );
    out.num("budget.reclaims", result.budget_reclaims as f64);
    out.num("placement.migrations", result.migrations as f64);
    out.num("placement.evictions", result.evictions as f64);
    out.num("placement.assignments", result.assignments as f64);
    out.num("scoring.set_scores", result.set_scores as f64);
    fleet_checks(&mut out, sc, &fleet, &result);
    put_sim(&mut out, &fleet_sim(&mut result, false));
    Ok(out)
}

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The next representable value above `x` (the deliberate perturbation
/// the benchmark's self-test must catch).
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// FNV-1a over the `Debug` rendering of a simulated result. `Debug`
/// prints every `f64` in shortest round-trip form, so equal digests
/// mean bit-identical results.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One mode's output: named fields, then the named checks, printed as
/// one JSON object in insertion order.
#[derive(Default)]
struct Json {
    fields: Vec<(String, Value)>,
    checks: Vec<(String, Value)>,
}

impl Json {
    fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.into(), Value::Number(value)));
    }

    fn nums(&mut self, key: &str, values: &[f64]) {
        let items = values.iter().map(|&v| Value::Number(v)).collect();
        self.fields.push((key.into(), Value::Array(items)));
    }

    fn str(&mut self, key: &str, value: &str) {
        self.fields.push((key.into(), Value::String(value.into())));
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.into(), Value::Bool(ok)));
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut fields = self.fields.clone();
        fields.push(("checks".into(), Value::Object(self.checks.clone())));
        write!(f, "{}", Value::Object(fields))
    }
}
