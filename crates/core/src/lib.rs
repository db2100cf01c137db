//! # sturgeon
//!
//! A reproduction of **"Sturgeon: Preference-aware Co-location for
//! Improving Utilization of Power Constrained Computers"** (Pang et al.,
//! IPDPS 2020): a per-node runtime that co-locates a latency-sensitive
//! (LS) service with a best-effort (BE) application under a hard power
//! budget, maximizing BE throughput while guaranteeing the LS service's
//! p95 latency target.
//!
//! ## Architecture (paper Fig. 4)
//!
//! * [`profiler`] — collects offline training samples of performance and
//!   power across resource configurations (§V-A: "in a dedicated cluster,
//!   it is feasible to collect the training samples").
//! * [`predictor`] — per-application performance/power models trained on
//!   those samples (DT / KNN / SV / MLP / LR, §V-C), answering "is this
//!   configuration feasible?" and "what BE throughput does it yield?".
//! * [`search`] — the §V-B binary-search algorithm that finds, among all
//!   feasible `<C1,F1,L1; C2,F2,L2>` configurations, the one maximizing
//!   BE throughput — in O(N log N) model calls instead of the O(N⁴)
//!   exhaustive sweep. [`search::ConfigSearch::run`] is the one entry
//!   point (heuristic or frontier-pruned engine, per
//!   [`search::SearchParams::strategy`]); `exhaustive_serial` and
//!   `exhaustive_latticed` are the two serial test oracles.
//! * [`balancer`] — the preference-aware resource balancer (Algorithm 2):
//!   binary-harvest compensation for QoS violations the predictor cannot
//!   foresee (unmanaged-resource contention, OS jitter).
//! * [`controller`] — the top-level slack-band controller (Algorithm 1)
//!   tying predictor, search and balancer together.
//! * [`baselines`] — the enhanced-PARTIES comparison controller from
//!   §VII-A, Sturgeon-NoB (balancer disabled), and a static-reservation
//!   controller, for the Figs. 9–11 experiments.
//! * [`experiment`] — the co-location run harness producing the paper's
//!   metrics (QoS guarantee rate, normalized BE throughput, overload),
//!   driven through the builder API ([`experiment::ExperimentSetup::runner`]).
//! * [`dispatch`] and [`fleet`] — the cluster-level half of Fig. 4: a
//!   dispatcher splitting the query stream across autonomous Sturgeon
//!   nodes, stepped in shards by the one multi-node runtime,
//!   [`fleet::Fleet`].
//! * [`obs`] — the structured observability layer: typed per-interval
//!   decision traces through pluggable [`obs::TraceSink`]s and a
//!   dependency-free [`obs::MetricsRegistry`], both zero-cost when not
//!   attached to a run.

pub mod balancer;
pub mod baselines;
pub mod budget;
pub mod cache;
pub mod controller;
pub mod dispatch;
pub mod error;
pub mod experiment;
pub mod fleet;
pub mod heracles;
pub mod multi;
pub mod obs;
pub mod online;
pub mod placement;
pub mod predictor;
pub mod profiler;
pub mod report;
pub mod scenario;
pub mod scoring;
pub mod search;
pub mod tables;

/// Convenient re-exports covering the typical experiment workflow.
pub mod prelude {
    pub use crate::balancer::{BalancerAction, BalancerParams, HarvestTarget, ResourceBalancer};
    pub use crate::baselines::{PartiesController, StaticReservationController};
    pub use crate::budget::{BudgetCap, BudgetEvent, BudgetLevel, BudgetTree};
    pub use crate::cache::PredictionCache;
    pub use crate::controller::{
        ControllerFaultCounters, ControllerParams, ResourceController, RobustnessParams,
        SturgeonController,
    };
    pub use crate::dispatch::{DispatchPolicy, Dispatcher};
    pub use crate::error::SturgeonError;
    pub use crate::experiment::{
        ActuationPolicy, ColocationPair, ConfiguredRun, ExperimentSetup, FaultReport, RunBuilder,
        RunResult,
    };
    pub use crate::fleet::{Fleet, FleetBudget, FleetParams, FleetResult};
    pub use crate::heracles::{HeraclesController, HeraclesParams};
    pub use crate::multi::{
        MultiProfiler, MultiProfilerConfig, MultiSearch, MultiSturgeonController,
    };
    pub use crate::obs::{
        JsonlSink, MetricsRegistry, NullSink, RingSink, SearchReason, TraceEvent, TraceSink,
    };
    pub use crate::online::{OnlineAdaptor, OnlineAdaptorConfig, OnlineSample};
    pub use crate::placement::{
        co_runner_score, BePlacer, FleetView, PlacementAction, PlacementDecision, PlacementEngine,
        PlacementParams, PlacementPlan, PlacementScoring, ScoredPlacementEngine, UnitView,
    };
    pub use crate::predictor::{ModelKind, PerfPowerPredictor, PredictorConfig};
    pub use crate::profiler::{ProfileDatasets, Profiler, ProfilerConfig};
    pub use crate::scenario::{
        ControllerKind, ControllerSpec, FleetSpec, Scenario, ScenarioKind, ScenarioMetrics,
        ScenarioOutcome, SearchProbe, Tolerance,
    };
    pub use crate::scoring::{
        train_cold_start_predictor, train_fallback_predictor, ColdStartOutcome, ColdStartPredictor,
        ColdStartReport, ProfileMatrix, ScoreMetric, ScoringParams, SetScorer,
    };
    pub use crate::search::{
        ConfigSearch, SearchOutcome, SearchParams, SearchStats, SearchStrategy,
    };
    pub use crate::tables::{BeLattice, ModelTables};
    pub use sturgeon_simnode::{
        ActuationFault, Allocation, FaultInjector, FaultPlan, FaultStats, FaultyActuators,
        IntervalFault, NodeSpec, PairConfig, PowerModel, TelemetryFault,
    };
    pub use sturgeon_workloads::catalog::{BeAppId, LsServiceId};
    pub use sturgeon_workloads::loadgen::LoadProfile;
}
