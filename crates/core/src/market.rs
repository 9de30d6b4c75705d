//! Market-aware advising: solve the horizon against sampled price
//! trajectories instead of a frozen price sheet.
//!
//! [`Advisor::solve_horizon`] already re-bills a measured workload over
//! a multi-epoch horizon — but with one pricing policy for every epoch.
//! [`Advisor::solve_market`] replaces that constant with an
//! [`mv_market::MarketScenario`]: a stack of price processes (spot
//! swings, announced cuts, storage decay) sampled into `K` reproducible
//! price paths. Each path compiles into its own epoch-aligned sequence
//! of [`CloudCostModel`]s (per-epoch re-priced policies) plus per-epoch
//! interruption probabilities, and the transition-aware chain solves it
//! with **risk-adjusted charging**: every candidate's
//! materialization/maintenance charge is inflated by its expected
//! re-run count under interruption ([`InterruptionRisk`]), spliced into
//! the live evaluator through the O(m) `retarget`/`update_charge`
//! primitives — never a per-epoch rebuild.
//!
//! Sampled paths share long common quote-prefixes, so the K paths are
//! factored into a [`ScenarioTree`] and the whole *forest* is solved
//! in one warm pass ([`EpochChain::solve_tree`]) — one evaluator build
//! per root, one warm `retarget` + charge-splice per tree *edge*, one
//! cheap evaluator fork per extra sibling at each split — instead of
//! per path × epoch (asserted via the evaluator's build/retarget/fork
//! counters in `tests/market_no_rebuild.rs`). To that solver a market
//! is a *pinned fleet*: every view stays on its pool charge's
//! placement and the risk transform ignores placement. A deterministic
//! market degenerates to a single chain, and tree-node work
//! distributes across threads through a ready-queue. Solving each path
//! alone as its own one-path tree gives bit-identical results (pinned
//! by `tests/tree_identity.rs`, which rebuilds that reference from
//! [`Advisor::market_epoch_models`]). [`Advisor::solve_fleet`]
//! samples, factors and solves through the same route
//! (`Advisor::solve_sampled`). Either way the result is a Monte-Carlo
//! envelope rather than a single bill: per-epoch cost quantiles, plan
//! stability (how often the selected set agrees across paths), and a
//! reserved-vs-spot commitment comparison priced per path.

// The price-dynamics vocabulary, re-exported so downstream users reach
// everything through `mvcloud::market::*`.
pub use mv_market::{
    AnnouncedCut, CorrelatedHazard, EpochQuote, MarketPath, MarketScenario, PriceFactors,
    PriceProcess, PriceTrace, ProcessQuote, ScenarioTree, SpotMarket, StorageDecay, TreeNode,
};

use std::collections::HashMap;

use mv_cost::{CloudCostModel, InterruptionRisk, PoolCharge, SelectionSet, ViewCharge};
use mv_lattice::WorkloadEvolution;
use mv_pricing::{CommitmentPlan, FleetPlan, Placement};
use mv_select::epoch::{EpochChain, EpochStep, EpochTree, EpochTreeNode};
use mv_select::Scenario;
use mv_units::{Hours, Money};
use serde::Serialize;

use crate::{Advisor, AdvisorError, HorizonConfig};

/// Shape of a market-aware Monte-Carlo solve.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// The price-dynamics scenario (horizon length, seed, processes).
    pub market: MarketScenario,
    /// Number of sampled price paths `K`.
    pub paths: usize,
    /// How query frequencies evolve across epochs (composes with the
    /// price dynamics; [`WorkloadEvolution::fixed`] isolates the price
    /// effect).
    pub evolution: WorkloadEvolution,
    /// Optional reserved-capacity plan to price each path's compute
    /// against (must target the advisor's instance type).
    pub commitment: Option<CommitmentPlan>,
}

impl Default for MarketConfig {
    /// 16 paths over a year of constant prices (seed 42), fixed
    /// workload, no reservation.
    fn default() -> Self {
        MarketConfig {
            market: MarketScenario::constant(12, 42),
            paths: 16,
            evolution: WorkloadEvolution::fixed(),
            commitment: None,
        }
    }
}

/// Distribution summary of one per-path metric (nearest-rank
/// quantiles over the K sampled paths).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Quantiles {
    /// Smallest sampled value.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sampled value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Quantiles {
    /// Summarizes `values` (must be non-empty). NaNs are tolerated (they
    /// order last under IEEE total order, never panic); callers with
    /// user-supplied inputs should prefer [`Quantiles::checked`], which
    /// rejects non-finite samples with a typed error instead of letting
    /// them poison the summary.
    pub fn of(values: &[f64]) -> Quantiles {
        assert!(!values.is_empty(), "quantiles need at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| -> f64 {
            // Nearest-rank: the smallest value with at least p·K samples
            // at or below it.
            let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[k - 1]
        };
        Quantiles {
            min: sorted[0],
            p10: rank(0.10),
            median: rank(0.50),
            p90: rank(0.90),
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// Like [`Quantiles::of`], but surfaces non-finite samples as
    /// [`AdvisorError::NonFiniteMetric`] (tagged with `metric`) instead
    /// of summarizing garbage — the entry point for metrics derived from
    /// user-supplied configuration.
    pub fn checked(metric: &str, values: &[f64]) -> Result<Quantiles, AdvisorError> {
        if values.iter().any(|v| !v.is_finite()) {
            return Err(AdvisorError::NonFiniteMetric {
                metric: metric.to_string(),
            });
        }
        Ok(Quantiles::of(values))
    }

    /// The p90 − p10 spread (0 for a deterministic market).
    pub fn spread(&self) -> f64 {
        self.p90 - self.p10
    }
}

/// One epoch of the Monte-Carlo envelope.
#[derive(Debug, Clone, Serialize)]
pub struct MarketEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Transition-aware charged cost across paths, in dollars.
    pub charged_cost: Quantiles,
    /// Running cumulative bill across paths, in dollars.
    pub cumulative_cost: Quantiles,
    /// Frequency-weighted processing hours across paths.
    pub time_hours: Quantiles,
    /// The sampled compute price factor across paths.
    pub compute_factor: Quantiles,
    /// The per-epoch interruption probability across paths.
    pub interruption: Quantiles,
    /// How many distinct selected sets the paths chose this epoch.
    pub distinct_plans: usize,
    /// Share of paths choosing the most common selected set (1.0 =
    /// every path agrees).
    pub modal_share: f64,
    /// Labels of that most common selected set.
    pub modal_selection: Vec<String>,
}

/// Per-path accounting of one sampled trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct MarketPathSummary {
    /// Path index (aligned with [`MarketScenario::path`]).
    pub path: usize,
    /// Total charged cost along the path.
    pub total_cost: Money,
    /// Total processing hours along the path.
    pub total_time: Hours,
    /// Total billable instance-hours (per-component rounding applied,
    /// fleet-multiplied, risk-adjusted work included).
    pub billed_instance_hours: Hours,
    /// The compute component of the path's bill, at the path's sampled
    /// (spot) prices.
    pub compute_bill: Money,
    /// Epoch boundaries at which the selected set changed.
    pub switches: usize,
    /// Sampled interruption events along the path.
    pub interruptions: usize,
    /// Per-epoch charged cost.
    pub epoch_costs: Vec<Money>,
    /// Per-epoch selected sets.
    pub selections: Vec<SelectionSet>,
}

/// Reserved-vs-spot pricing of the horizon's compute, across paths.
#[derive(Debug, Clone, Serialize)]
pub struct SpotCommitmentReport {
    /// The plan's name.
    pub plan: String,
    /// Per-path compute bill at the sampled spot prices, in dollars.
    pub spot_compute: Quantiles,
    /// Per-path cost of covering the same billed hours with the
    /// reservation (upfronts + discounted rate), in dollars.
    pub reserved: Quantiles,
    /// Per-path saving of reserving over riding the spot market
    /// (positive = the reservation wins), in dollars.
    pub saving: Quantiles,
    /// Share of paths on which the reservation was cheaper.
    pub reserved_wins_share: f64,
}

impl SpotCommitmentReport {
    /// Assembles the report from aligned per-path bills: what the
    /// compute actually cost on the sampled market vs covering the
    /// same billed hours with the reservation. This is the ONE place
    /// the comparison's arithmetic lives — `Advisor::solve_market` and
    /// the mixed-fleet `Advisor::solve_fleet` both price through it,
    /// so the single-fleet report is exactly the pure-fleet special
    /// case of the fleet comparison (equality-tested in
    /// `tests/fleet.rs`).
    pub fn from_path_bills(plan: &str, spot: &[f64], reserved: &[f64]) -> SpotCommitmentReport {
        assert_eq!(
            spot.len(),
            reserved.len(),
            "per-path bills must align across the comparison"
        );
        let saving: Vec<f64> = spot.iter().zip(reserved).map(|(s, r)| s - r).collect();
        let wins = saving.iter().filter(|&&d| d > 0.0).count();
        SpotCommitmentReport {
            plan: plan.to_string(),
            spot_compute: Quantiles::of(spot),
            reserved: Quantiles::of(reserved),
            saving: Quantiles::of(&saving),
            reserved_wins_share: wins as f64 / spot.len() as f64,
        }
    }
}

/// The Monte-Carlo envelope of a market-aware horizon solve.
#[derive(Debug, Clone, Serialize)]
pub struct MarketReport {
    /// Per-path accounting, in path order.
    pub paths: Vec<MarketPathSummary>,
    /// The per-epoch quantile timeline.
    pub epochs: Vec<MarketEpochReport>,
    /// Total charged cost across paths, in dollars.
    pub total_cost: Quantiles,
    /// Total processing hours across paths.
    pub total_time_hours: Quantiles,
    /// Mean modal share across epochs: 1.0 means the plan is immune to
    /// the sampled price dynamics, lower values mean the money-optimal
    /// selection genuinely depends on the price path.
    pub plan_stability: f64,
    /// Reserved-vs-spot comparison, when a plan was supplied.
    pub commitment: Option<SpotCommitmentReport>,
    /// Distinct full-horizon solves actually performed for the K
    /// requested paths: the distinct scenario-tree leaves (= distinct
    /// quote sequences). A deterministic market reports 1.
    pub distinct_solves: usize,
    /// Scenario-tree node count — the number of epoch-solves the solve
    /// paid (vs `distinct_solves × epochs` solving every path alone).
    /// Always `Some` for a market solve.
    pub tree_nodes: Option<usize>,
    /// Telemetry recorded during this solve — a
    /// [`mv_obs::Snapshot::since`] delta over the solve window. `None`
    /// unless telemetry was enabled when the solve started.
    pub telemetry: Option<mv_obs::Snapshot>,
}

impl MarketReport {
    /// Renders the quantile timeline as CSV (one row per epoch).
    pub fn timeline_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .epochs
            .iter()
            .map(|e| {
                vec![
                    e.epoch.to_string(),
                    format!("{:.6}", e.charged_cost.p10),
                    format!("{:.6}", e.charged_cost.median),
                    format!("{:.6}", e.charged_cost.p90),
                    format!("{:.6}", e.cumulative_cost.median),
                    format!("{:.6}", e.time_hours.median),
                    format!("{:.6}", e.compute_factor.mean),
                    format!("{:.6}", e.interruption.mean),
                    e.distinct_plans.to_string(),
                    format!("{:.4}", e.modal_share),
                ]
            })
            .collect();
        crate::report::render_csv(
            &[
                "epoch",
                "cost_p10",
                "cost_median",
                "cost_p90",
                "cumulative_median",
                "time_median",
                "compute_factor_mean",
                "interruption_mean",
                "distinct_plans",
                "modal_share",
            ],
            &rows,
        )
    }
}

impl Advisor {
    /// The per-epoch costing models one sampled price path induces: the
    /// evolution-reweighted workload of [`Advisor::epoch_models`], with
    /// each epoch's pricing re-priced by the path's quote. Unit quotes
    /// reproduce the base models bit-for-bit.
    pub fn market_epoch_models(
        &self,
        path: &MarketPath,
        evolution: &WorkloadEvolution,
    ) -> Vec<CloudCostModel> {
        self.market_base_models(path.quotes.len(), evolution)
            .iter()
            .zip(&path.quotes)
            .map(|(model, quote)| self.quote_model(model, quote))
            .collect()
    }

    /// The evolution-reweighted per-epoch models *before* any market
    /// quote is applied — the shared base every tree node and every
    /// per-path model re-prices from.
    pub(crate) fn market_base_models(
        &self,
        epochs: usize,
        evolution: &WorkloadEvolution,
    ) -> Vec<CloudCostModel> {
        self.epoch_models(&HorizonConfig {
            epochs,
            evolution: *evolution,
            commitment: None,
        })
    }

    /// One epoch's base model re-priced by a sampled quote. Unit quotes
    /// reproduce the base model bit-for-bit.
    pub(crate) fn quote_model(&self, base: &CloudCostModel, quote: &EpochQuote) -> CloudCostModel {
        let mut ctx = base.context().clone();
        ctx.pricing = quote.reprice(&self.config().pricing);
        // The context embeds the *resolved* instance (Formula 4
        // prices through `ctx.instance.hourly`), so the rented
        // configuration must be re-resolved from the re-priced
        // catalog or compute drift would never reach the bill.
        ctx.instance = ctx
            .pricing
            .compute
            .instance(&self.config().instance)
            .expect("advisor instance validated at build")
            .clone();
        CloudCostModel::new(ctx)
    }

    /// Solves the horizon across `K` sampled price paths and reports
    /// the Monte-Carlo envelope. See the module docs for semantics; the
    /// hot loop is one warm [`EpochChain::solve_tree`] over the sampled
    /// paths' scenario tree with risk-adjusted charges.
    pub fn solve_market(
        &self,
        scenario: Scenario,
        config: &MarketConfig,
    ) -> Result<MarketReport, AdvisorError> {
        if config.market.epochs == 0 {
            return Err(AdvisorError::EmptyHorizon);
        }
        if config.paths == 0 {
            return Err(AdvisorError::NoMarketPaths);
        }
        if let Some(plan) = &config.commitment {
            if plan.instance != self.config().instance {
                return Err(AdvisorError::CommitmentMismatch {
                    plan: plan.name.clone(),
                    plan_instance: plan.instance.clone(),
                    advisor_instance: self.config().instance.clone(),
                });
            }
        }
        // Sample the full path set once: the tree factoring and the
        // per-path event reporting both read from it.
        let sampled: Vec<MarketPath> = (0..config.paths).map(|j| config.market.path(j)).collect();
        // A NaN volatility (or similar user-supplied process parameter)
        // poisons every sampled price; fail up front with the offending
        // metric named instead of summarizing garbage quantiles later.
        for q in &sampled[0].quotes {
            let f = &q.factors;
            if !(f.compute.is_finite() && f.storage.is_finite() && f.transfer.is_finite()) {
                return Err(AdvisorError::NonFiniteMetric {
                    metric: "price factor".to_string(),
                });
            }
            if !q.interruption.is_finite() {
                return Err(AdvisorError::NonFiniteMetric {
                    metric: "interruption probability".to_string(),
                });
            }
        }

        let telemetry_base = mv_obs::enabled().then(mv_obs::Snapshot::capture);
        let (solved, distinct_solves, tree_nodes) =
            self.solve_sampled(scenario, &sampled, &config.evolution, None, |j, steps| {
                let path = &sampled[j];
                let risks: Vec<InterruptionRisk> = path
                    .quotes
                    .iter()
                    .map(|q| InterruptionRisk::new(q.interruption))
                    .collect();
                SolvedPath {
                    summary: self.account_path(j, &steps, &risks),
                    path: path.clone(),
                    steps,
                }
            });
        let mut report =
            self.render_market(scenario, config, solved, distinct_solves, Some(tree_nodes));
        if let Some(base) = telemetry_base {
            report.telemetry = Some(mv_obs::Snapshot::capture().since(&base));
        }
        Ok(report)
    }

    /// The one Monte-Carlo route of [`Advisor::solve_market`] and
    /// [`Advisor::solve_fleet`]: factor the sampled paths into a
    /// shared-prefix forest, compile one quote-repriced model and one
    /// [`PoolCharge`] pair per *node*, solve the forest in one warm
    /// [`EpochChain::solve_tree`] pass, and hand each path's root→leaf
    /// steps to `account(path index, steps)`.
    ///
    /// `fleet == None` prices the single-fleet market: the quoted sheet
    /// and its interruption premium for every view, whatever its
    /// placement, with placements pinned to the pool's own. A fleet
    /// prices its primary sheet plus per-pool charges and searches
    /// placements when it rebalances. Returns the accounted paths in
    /// path order, the distinct leaf count and the node count.
    pub(crate) fn solve_sampled<T>(
        &self,
        scenario: Scenario,
        sampled: &[MarketPath],
        evolution: &WorkloadEvolution,
        fleet: Option<&FleetPlan>,
        account: impl Fn(usize, Vec<EpochStep>) -> T,
    ) -> (Vec<T>, usize, usize) {
        let stree = ScenarioTree::from_paths(sampled);
        let base = self.market_base_models(stree.epochs, evolution);
        let nodes: Vec<EpochTreeNode> = stree
            .nodes()
            .iter()
            .map(|n| EpochTreeNode {
                parent: n.parent,
                epoch: n.epoch,
                model: match fleet {
                    None => self.quote_model(&base[n.epoch], &n.quote),
                    Some(f) => self.fleet_quote_model(&base[n.epoch], &n.quote, f),
                },
            })
            .collect();
        let leaves: Vec<usize> = (0..sampled.len()).map(|j| stree.leaf_of(j)).collect();
        let tree = EpochTree::new(nodes, leaves);
        let node_pools: Vec<[PoolCharge; 2]> = stree
            .nodes()
            .iter()
            .map(|n| match fleet {
                None => {
                    let risked =
                        PoolCharge::new(1.0, 1.0, InterruptionRisk::new(n.quote.interruption));
                    [risked, risked]
                }
                Some(f) => Self::quote_pool_charges(&n.quote, f),
            })
            .collect();
        let pool = self.problem().candidates();
        let initial: Vec<Placement> = match fleet.and_then(|f| f.initial) {
            Some(p) => vec![p; pool.len()],
            None => pool.iter().map(|c| c.placement).collect(),
        };
        let rebalance = fleet.is_some_and(|f| f.rebalance);
        let budget = mv_select::local_search::default_move_budget(pool.len());
        let chain = EpochChain::new(base, pool.to_vec());
        // Risk and pool transforms only move materialization,
        // maintenance and size, so every splice takes update_charge's
        // O(1) same-answer fast path.
        let reprice = |node: usize, _k: usize, p: Placement, transition: &ViewCharge| {
            node_pools[node][usize::from(p == Placement::Spot)].adjust(transition)
        };
        let per_path = chain.solve_tree(scenario, budget, &tree, &initial, rebalance, &reprice);
        let solved = per_path
            .into_iter()
            .enumerate()
            .map(|(j, steps)| account(j, steps))
            .collect();
        (solved, stree.distinct_leaves(), stree.len())
    }

    /// Per-path accounting: totals, billable hours (risk-adjusted work,
    /// per-component rounding, fleet-multiplied) and plan churn.
    fn account_path(
        &self,
        j: usize,
        steps: &[EpochStep],
        risks: &[InterruptionRisk],
    ) -> MarketPathSummary {
        let pool = self.problem().candidates();
        let mut billed = Hours::ZERO;
        let mut compute_bill = Money::ZERO;
        let mut switches = 0;
        let mut epoch_costs = Vec::with_capacity(steps.len());
        let mut selections = Vec::with_capacity(steps.len());
        for (e, step) in steps.iter().enumerate() {
            // Billable hours include the risk premium: interrupted
            // build/refresh work re-runs, and the re-runs bill too.
            billed += self.epoch_billed_instance_hours(pool, step, risks[e].expected_attempts());
            compute_bill += step.outcome.evaluation.breakdown.compute();
            if e > 0 && !(step.added.is_empty() && step.dropped.is_empty()) {
                switches += 1;
            }
            epoch_costs.push(step.outcome.evaluation.cost());
            selections.push(step.selection().clone());
        }
        MarketPathSummary {
            path: j,
            total_cost: epoch_costs.iter().copied().sum(),
            total_time: steps.iter().map(|s| s.outcome.evaluation.time).sum(),
            billed_instance_hours: billed,
            compute_bill,
            switches,
            interruptions: 0, // filled by the caller from the sampled path
            epoch_costs,
            selections,
        }
    }

    /// Aggregates solved paths into the quantile envelope.
    fn render_market(
        &self,
        _scenario: Scenario,
        config: &MarketConfig,
        mut solved: Vec<SolvedPath>,
        distinct_solves: usize,
        tree_nodes: Option<usize>,
    ) -> MarketReport {
        let epochs = config.market.epochs;
        let labels: Vec<String> = self.candidates().iter().map(|m| m.label.clone()).collect();
        for s in &mut solved {
            s.summary.interruptions = s.path.interruptions();
        }

        let mut epoch_reports = Vec::with_capacity(epochs);
        let mut cumulative: Vec<f64> = vec![0.0; solved.len()];
        let mut stability_sum = 0.0;
        for e in 0..epochs {
            let costs: Vec<f64> = solved
                .iter()
                .map(|s| s.summary.epoch_costs[e].to_dollars_f64())
                .collect();
            for (c, s) in cumulative.iter_mut().zip(&solved) {
                *c += s.summary.epoch_costs[e].to_dollars_f64();
            }
            let times: Vec<f64> = solved
                .iter()
                .map(|s| s.steps[e].outcome.evaluation.time.value())
                .collect();
            let factors: Vec<f64> = solved
                .iter()
                .map(|s| s.path.quotes[e].factors.compute)
                .collect();
            let probs: Vec<f64> = solved
                .iter()
                .map(|s| s.path.quotes[e].interruption)
                .collect();
            let mut plans: HashMap<&SelectionSet, usize> = HashMap::new();
            for s in &solved {
                *plans.entry(&s.summary.selections[e]).or_insert(0) += 1;
            }
            // Tie-break modal plans deterministically (last maximal in
            // path order), not by HashMap iteration order — the report
            // must reproduce bit-for-bit from the seed.
            let modal_set = solved
                .iter()
                .map(|s| &s.summary.selections[e])
                .max_by_key(|sel| plans[*sel])
                .expect("at least one path");
            let modal_share = plans[modal_set] as f64 / solved.len() as f64;
            stability_sum += modal_share;
            epoch_reports.push(MarketEpochReport {
                epoch: e,
                charged_cost: Quantiles::of(&costs),
                cumulative_cost: Quantiles::of(&cumulative),
                time_hours: Quantiles::of(&times),
                compute_factor: Quantiles::of(&factors),
                interruption: Quantiles::of(&probs),
                distinct_plans: plans.len(),
                modal_share,
                modal_selection: modal_set.ones().map(|k| labels[k].clone()).collect(),
            });
        }

        let totals: Vec<f64> = solved
            .iter()
            .map(|s| s.summary.total_cost.to_dollars_f64())
            .collect();
        let total_times: Vec<f64> = solved
            .iter()
            .map(|s| s.summary.total_time.value())
            .collect();
        let commitment = config.commitment.as_ref().map(|plan| {
            let bills = solved
                .iter()
                .map(|s| (s.summary.compute_bill, s.summary.billed_instance_hours));
            self.path_commitment(plan, epochs, bills)
        });
        MarketReport {
            paths: solved.into_iter().map(|s| s.summary).collect(),
            epochs: epoch_reports,
            total_cost: Quantiles::of(&totals),
            total_time_hours: Quantiles::of(&total_times),
            plan_stability: stability_sum / epochs as f64,
            commitment,
            distinct_solves,
            tree_nodes,
            telemetry: None,
        }
    }

    /// Prices a reservation against each path's compute: the bill at
    /// the sampled prices vs covering the same billed hours with `plan`
    /// over the whole horizon. `bills` yields (compute bill, billed
    /// instance-hours) per path, in path order.
    pub(crate) fn path_commitment(
        &self,
        plan: &CommitmentPlan,
        epochs: usize,
        bills: impl Iterator<Item = (Money, Hours)>,
    ) -> SpotCommitmentReport {
        let total_months = self.config().months * epochs as f64;
        let (spot, reserved): (Vec<f64>, Vec<f64>) = bills
            .map(|(compute, hours)| {
                let reserved =
                    plan.fleet_horizon_cost(total_months, hours, self.config().nb_instances);
                (compute.to_dollars_f64(), reserved.to_dollars_f64())
            })
            .unzip();
        SpotCommitmentReport::from_path_bills(&plan.name, &spot, &reserved)
    }
}

/// One solved path: the sampled quotes, the chain steps, and the
/// rendered summary.
#[derive(Debug, Clone)]
struct SolvedPath {
    summary: MarketPathSummary,
    path: MarketPath,
    steps: Vec<EpochStep>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig};
    use mv_market::{AnnouncedCut, PriceProcess, SpotMarket};

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn constant_market_collapses_quantiles_to_the_horizon_solve() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(4, 7),
            paths: 16,
            ..MarketConfig::default()
        };
        let report = a.solve_market(scenario, &config).unwrap();
        let horizon = a
            .solve_horizon(
                scenario,
                &HorizonConfig {
                    epochs: 4,
                    ..HorizonConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.paths.len(), 16);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.plan_stability, 1.0);
        for (e, er) in report.epochs.iter().enumerate() {
            let expected = horizon.epochs[e].charged_cost.to_dollars_f64();
            assert_eq!(er.charged_cost.min, expected, "epoch {e}");
            assert_eq!(er.charged_cost.max, expected, "epoch {e}");
            assert_eq!(er.charged_cost.spread(), 0.0, "epoch {e}");
            assert_eq!(er.distinct_plans, 1);
            assert_eq!(er.interruption.max, 0.0);
        }
        for p in &report.paths {
            assert_eq!(p.total_cost, horizon.total_cost);
            assert_eq!(p.billed_instance_hours, horizon.billed_instance_hours);
        }
    }

    #[test]
    fn announced_cut_lowers_the_tail_of_the_bill() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let base = MarketConfig {
            market: MarketScenario::constant(6, 1),
            paths: 4,
            ..MarketConfig::default()
        };
        let cut = MarketConfig {
            market: MarketScenario::constant(6, 1)
                .with(PriceProcess::Cut(AnnouncedCut::compute(3, 0.5))),
            paths: 4,
            ..MarketConfig::default()
        };
        let flat = a.solve_market(scenario, &base).unwrap();
        let with_cut = a.solve_market(scenario, &cut).unwrap();
        // Before the cut takes effect the bills agree; after, the cut
        // path is never dearer.
        for e in 0..3 {
            assert_eq!(
                flat.epochs[e].charged_cost.median,
                with_cut.epochs[e].charged_cost.median
            );
        }
        for e in 3..6 {
            assert!(with_cut.epochs[e].charged_cost.median <= flat.epochs[e].charged_cost.median);
        }
        assert!(with_cut.total_cost.median < flat.total_cost.median);
    }

    #[test]
    fn stochastic_spot_spreads_the_envelope_reproducibly() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(6, 99)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 16,
            ..MarketConfig::default()
        };
        let r1 = a.solve_market(scenario, &config).unwrap();
        let r2 = a.solve_market(scenario, &config).unwrap();
        // Reproducible bit-for-bit from the seed.
        assert_eq!(r1.total_cost, r2.total_cost);
        assert_eq!(r1.plan_stability, r2.plan_stability);
        // Volatility genuinely spreads the per-epoch envelope somewhere.
        assert!(r1.epochs.iter().any(|e| e.charged_cost.spread() > 0.0));
        // Quantiles are ordered.
        for e in &r1.epochs {
            assert!(e.charged_cost.min <= e.charged_cost.p10);
            assert!(e.charged_cost.p10 <= e.charged_cost.median);
            assert!(e.charged_cost.median <= e.charged_cost.p90);
            assert!(e.charged_cost.p90 <= e.charged_cost.max);
        }
        let csv = r1.timeline_csv();
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("epoch,cost_p10"));
    }

    #[test]
    fn commitment_comparison_prices_each_path() {
        let a = advisor();
        let config = MarketConfig {
            market: MarketScenario::constant(12, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.3))),
            paths: 16,
            commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let report = a
            .solve_market(Scenario::tradeoff_normalized(0.5), &config)
            .unwrap();
        let cmp = report.commitment.expect("plan supplied");
        assert!(cmp.spot_compute.min > 0.0);
        assert!(cmp.reserved.min > 0.0);
        assert!((0.0..=1.0).contains(&cmp.reserved_wins_share));
        // At a deep average spot discount the spot market usually beats
        // the (on-demand-anchored) reservation.
        assert!(cmp.saving.median < 0.0);
    }

    /// Every sampled path solved alone, each as its own one-path tree
    /// from [`Advisor::market_epoch_models`], and accounted — the
    /// per-path reference the shared scenario tree must reproduce bit
    /// for bit.
    fn per_path_reference(
        a: &Advisor,
        scenario: Scenario,
        config: &MarketConfig,
    ) -> Vec<MarketPathSummary> {
        let pool = a.problem().candidates().to_vec();
        let initial: Vec<Placement> = pool.iter().map(|c| c.placement).collect();
        let budget = mv_select::local_search::default_move_budget(pool.len());
        (0..config.paths)
            .map(|j| {
                let path = config.market.path(j);
                let models = a.market_epoch_models(&path, &config.evolution);
                let risks: Vec<InterruptionRisk> = path
                    .quotes
                    .iter()
                    .map(|q| InterruptionRisk::new(q.interruption))
                    .collect();
                let tree = EpochTree::path(models.clone());
                let chain = EpochChain::new(models, pool.clone());
                let reprice =
                    |e: usize, _k: usize, _p: Placement, c: &ViewCharge| risks[e].adjust(c);
                let steps = chain
                    .solve_tree(scenario, budget, &tree, &initial, false, &reprice)
                    .remove(0);
                a.account_path(j, &steps, &risks)
            })
            .collect()
    }

    #[test]
    fn tree_route_is_bit_identical_to_the_flat_loop() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(6, 99)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 12,
            commitment: Some(mv_pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let tree = a.solve_market(scenario, &config).unwrap();
        let reference = per_path_reference(&a, scenario, &config);
        for (t, r) in tree.paths.iter().zip(&reference) {
            assert_eq!(t.total_cost, r.total_cost, "path {}", r.path);
            assert_eq!(t.total_time, r.total_time);
            assert_eq!(t.billed_instance_hours, r.billed_instance_hours);
            assert_eq!(t.compute_bill, r.compute_bill);
            assert_eq!(t.epoch_costs, r.epoch_costs);
            assert_eq!(t.selections, r.selections);
            assert_eq!(t.switches, r.switches);
        }
        let totals: Vec<f64> = reference
            .iter()
            .map(|r| r.total_cost.to_dollars_f64())
            .collect();
        assert_eq!(tree.total_cost, Quantiles::of(&totals));
        // The tree reports what it actually paid for: one solve per
        // distinct quote sequence, sharing prefixes.
        let mut keys: Vec<Vec<[u64; 4]>> = (0..config.paths)
            .map(|j| {
                let path = config.market.path(j);
                path.quotes.iter().map(|q| q.solve_key()).collect()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(tree.distinct_solves, keys.len());
        let nodes = tree.tree_nodes.expect("the tree reports its size");
        assert!(nodes < tree.distinct_solves * 6, "no prefix shared");
    }

    #[test]
    fn deterministic_market_pays_one_solve_in_both_modes() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = MarketConfig {
            market: MarketScenario::constant(4, 7),
            paths: 16,
            ..MarketConfig::default()
        };
        let tree = a.solve_market(scenario, &config).unwrap();
        // The tree degenerates to a single 4-node chain, and solving
        // every path alone lands on that chain's bill 16 times.
        assert_eq!(tree.distinct_solves, 1);
        assert_eq!(tree.tree_nodes, Some(4));
        for r in per_path_reference(&a, scenario, &config) {
            assert_eq!(r.total_cost, tree.paths[0].total_cost);
        }
        assert_eq!(tree.total_cost.spread(), 0.0);
    }

    #[test]
    fn quantiles_tolerate_nan_without_panicking() {
        // Regression: `Quantiles::of` used to sort with
        // `partial_cmp(..).expect(..)` and abort on the first NaN.
        let q = Quantiles::of(&[1.0, f64::NAN, 0.5]);
        assert_eq!(q.min, 0.5);
        assert!(q.max.is_nan(), "NaN orders last under total order");
        // The checked entry point surfaces the problem as a typed error.
        assert!(matches!(
            Quantiles::checked("bill", &[1.0, f64::NAN]),
            Err(AdvisorError::NonFiniteMetric { metric }) if metric == "bill"
        ));
        assert!(Quantiles::checked("bill", &[1.0, 2.0]).is_ok());
    }

    #[test]
    fn non_finite_price_inputs_are_typed_errors_not_aborts() {
        let a = advisor();
        // A NaN in a user-supplied price trace used to survive until the
        // quantile sort's `partial_cmp(..).expect(..)` and abort there.
        let config = MarketConfig {
            market: MarketScenario::constant(4, 1).with(PriceProcess::Trace(
                super::PriceTrace::compute(vec![1.0, f64::NAN, 1.0]),
            )),
            paths: 4,
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(Scenario::tradeoff_normalized(0.5), &config),
            Err(AdvisorError::NonFiniteMetric { .. })
        ));
        // A NaN volatility is sanitized by the spot sampler itself
        // (IEEE max drops the NaN at the price floor): no abort, and the
        // sampled factors stay finite, so the solve succeeds.
        let nan_vol = MarketConfig {
            market: MarketScenario::constant(4, 1)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(f64::NAN))),
            paths: 2,
            ..MarketConfig::default()
        };
        assert!(a
            .solve_market(Scenario::tradeoff_normalized(0.5), &nan_vol)
            .is_ok());
    }

    #[test]
    fn degenerate_configs_are_errors() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let zero_paths = MarketConfig {
            paths: 0,
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &zero_paths),
            Err(AdvisorError::NoMarketPaths)
        ));
        let zero_epochs = MarketConfig {
            market: MarketScenario::constant(0, 1),
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &zero_epochs),
            Err(AdvisorError::EmptyHorizon)
        ));
        let mut plan = mv_pricing::CommitmentPlan::aws_small_1yr();
        plan.instance = "large".to_string();
        let mismatch = MarketConfig {
            commitment: Some(plan),
            ..MarketConfig::default()
        };
        assert!(matches!(
            a.solve_market(scenario, &mismatch),
            Err(AdvisorError::CommitmentMismatch { .. })
        ));
    }
}
