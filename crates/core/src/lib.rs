//! # mvcloud — cost-aware view materialization in the cloud
//!
//! End-to-end reproduction of *"Cost Models for View Materialization in the
//! Cloud"* (Nguyen, d'Orazio, Bimonte, Darmont — EDBT/ICDT DanaC 2012):
//! given a dataset, a roll-up workload and a cloud pricing policy, decide
//! which aggregation views to materialize under a budget (MV1), a response
//! time limit (MV2), or a weighted tradeoff (MV3).
//!
//! The heavy lifting lives in the workspace crates, re-exported here:
//!
//! * [`units`] — fixed-point money, sizes, durations;
//! * [`pricing`] — tiered CSP pricing, billing simulator, presets;
//! * [`engine`] — the columnar aggregation engine (the "cluster");
//! * [`lattice`] — cuboid lattice, size estimation, candidate generation;
//! * [`cost`] — the paper's cost formulas (plus interruption-risk
//!   charging);
//! * [`select`] — MV1/MV2/MV3 scenarios and the four solvers;
//! * [`market`] — cloud price dynamics (spot markets, announced cuts,
//!   storage decay) and the Monte-Carlo market advisor.
//!
//! The [`Advisor`] wires them together — measuring once, then solving a
//! single period ([`Advisor::solve`]), a lazy candidate stream
//! ([`Advisor::solve_streaming`]), a whole multi-epoch billing
//! horizon with drifting workloads and transition-aware carry-over
//! ([`Advisor::solve_horizon`], [`horizon`]), that same horizon
//! against `K` sampled price trajectories with risk-adjusted charging
//! and quantile envelopes ([`Advisor::solve_market`], [`market`]), or
//! a hedged **mixed fleet** where each view's reserved-vs-spot
//! placement is searched jointly with the selection against correlated
//! interruption epochs ([`Advisor::solve_fleet`], [`fleet`]):
//!
//! For long-running deployments the advisor also runs *resident*: the
//! [`service`] module keeps the measured charges in a persistent
//! [`catalog`] (atomic spill, bit-identical reload), ingests live query
//! traffic behind a `(timestamp, query_id)` high-water mark, and
//! re-solves warm — retarget only, never an evaluator rebuild — when
//! the observed frequency mix drifts past a threshold
//! ([`AdvisorService`]). Concurrent what-if probes run on evaluator
//! forks with snapshot isolation. `mvcloud-cli serve` drives the loop
//! from a CSV event stream or a script.
//!
//! ```
//! use mvcloud::{sales_domain, Advisor, AdvisorConfig, Scenario, SolverKind};
//! use mvcloud::units::Money;
//!
//! let domain = sales_domain(1_000, 3, 1.0, 42);
//! let advisor = Advisor::build(domain, AdvisorConfig::default()).unwrap();
//! let outcome = advisor.solve(
//!     Scenario::budget(Money::from_dollars(100)),
//!     SolverKind::PaperKnapsack,
//! );
//! assert!(outcome.feasible());
//! // Materializing views always shortens the workload here.
//! assert!(outcome.evaluation.time < outcome.baseline.time);
//! ```

mod advisor;
pub mod calibrate;
pub mod catalog;
mod dedup;
mod domain;
mod error;
pub mod fleet;
pub mod horizon;
pub mod json;
pub mod market;
pub mod report;
pub mod scale;
pub mod service;
pub mod whatif;

pub use advisor::{
    Advisor, AdvisorConfig, CandidateStrategy, MeasuredCandidate, MeterStats, SizingMode,
    StreamStrategy, StreamingConfig, StreamingReport,
};
pub use calibrate::{CalibrationConfig, CalibrationReport, EpochCalibration};
pub use catalog::{CandidateCatalog, HighWaterMark};
pub use domain::{sales_domain, ssb_domain, Domain};
pub use error::AdvisorError;
pub use fleet::{FleetComparison, FleetConfig, FleetEpochReport, FleetPathSummary, FleetReport};
pub use horizon::{EpochReport, HorizonConfig, HorizonReport};
pub use market::{
    MarketConfig, MarketEpochReport, MarketPathSummary, MarketReport, Quantiles,
    SpotCommitmentReport,
};
pub use scale::scale_problem;
pub use service::{AdvisorService, IngestOutcome, QueryEvent, ServiceConfig};

// Re-export the sub-crates under stable names.
pub use mv_cost as cost;
pub use mv_engine as engine;
pub use mv_lattice as lattice;
pub use mv_obs as obs;
pub use mv_pricing as pricing;
pub use mv_select as select;
pub use mv_units as units;

// The most-used types, flattened for ergonomic imports.
pub use mv_cost::{CloudCostModel, CostBreakdown, CostContext, QueryCharge, ViewCharge};
pub use mv_select::{Evaluation, Outcome, Scenario, SelectionProblem, SolverKind};
