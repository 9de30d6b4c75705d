//! Hedged mixed-fleet advising: joint selection + placement against
//! sampled price paths with correlated interruption epochs.
//!
//! [`Advisor::solve_market`] prices one homogeneous fleet against one
//! sampled price sheet — reserved-vs-spot is an all-or-nothing
//! comparison of whole fleets. [`Advisor::solve_fleet`] makes the
//! hedge a **per-view decision**: an [`mv_pricing::FleetPlan`] splits
//! capacity into a reserved pool and a spot pool, each view's
//! [`Placement`] decides which pool its build/refresh work (and
//! storage) bills against, and the transition-aware solve searches
//! placements jointly with the selection itself
//! (`EpochChain::solve_tree` with `rebalance` on — placement-flip
//! local-search moves on the same warm `retarget`/`update_charge`
//! path, one evaluator per scenario-tree root, never a rebuild;
//! asserted in `tests/market_no_rebuild.rs`). Sampling, tree
//! factoring and the solve are the market's own route
//! (`Advisor::solve_sampled`); only the pricing and the per-path
//! accounting differ.
//!
//! The shared charges (workload processing, dataset storage,
//! transfer) follow the plan's *primary* pool: a spot primary rides
//! the sampled market sheet exactly like `solve_market`, a reserved
//! primary keeps the contract sheet and only spot-*placed* views feel
//! the market. Cross-pool rate differentials are folded into
//! effective billable hours by [`mv_cost::PoolCharge`], and spot
//! interruption premiums apply **only to spot-placed views** — which
//! is what makes the degenerate plans exact:
//! [`FleetPlan::pure_spot`] reproduces `solve_market` bit-for-bit per
//! path, and [`FleetPlan::pure_reserved`] reproduces the risk-free
//! `solve_horizon` (both property-tested in `tests/fleet.rs`).
//!
//! Interruption hazards can additionally be *correlated* across
//! epochs ([`mv_market::CorrelatedHazard`]): capacity crunches arrive
//! in runs, which is exactly when pre-placing a view on reserved
//! capacity ahead of the crunch beats reacting to it — the lookahead
//! gap `EpochChain::solve_dp_fleet` quantifies.
//!
//! The report is the market report's mixed-fleet generalization:
//! per-pool bills and hours, per-epoch **hedge-ratio quantiles** (the
//! spot-placed share of the selection across paths), placement churn,
//! and a hedged-vs-pure-spot-vs-pure-reserved comparison priced on
//! the same sampled paths.

use std::collections::HashMap;

use mv_cost::{CloudCostModel, InterruptionRisk, PoolCharge, SelectionSet};
use mv_lattice::WorkloadEvolution;
use mv_market::{EpochQuote, MarketPath, MarketScenario};
use mv_pricing::{FleetPlan, Placement};
use mv_select::epoch::EpochStep;
use mv_select::Scenario;
use mv_units::{Hours, Money};
use serde::Serialize;

use crate::market::{Quantiles, SpotCommitmentReport};
use crate::{Advisor, AdvisorError};

/// Shape of a mixed-fleet Monte-Carlo solve.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The price-dynamics scenario (horizon length, seed, processes).
    pub market: MarketScenario,
    /// Number of sampled price paths `K`.
    pub paths: usize,
    /// How query frequencies evolve across epochs.
    pub evolution: WorkloadEvolution,
    /// The fleet split: pool terms, primary sheet, placement freedom.
    pub fleet: FleetPlan,
    /// Also solve every path with the fleet pinned all-spot and
    /// all-reserved and report the three-way comparison (three tree
    /// solves instead of one).
    pub compare_pure: bool,
}

impl Default for FleetConfig {
    /// 16 paths over a year of constant prices, a rebalancing hedged
    /// fleet, pure comparators on.
    fn default() -> Self {
        FleetConfig {
            market: MarketScenario::constant(12, 42),
            paths: 16,
            evolution: WorkloadEvolution::fixed(),
            fleet: FleetPlan::hedged("hedged"),
            compare_pure: true,
        }
    }
}

/// Per-path accounting of one sampled trajectory under the fleet.
#[derive(Debug, Clone, Serialize)]
pub struct FleetPathSummary {
    /// Path index (aligned with [`MarketScenario::path`]).
    pub path: usize,
    /// Total charged cost along the path.
    pub total_cost: Money,
    /// Total processing hours along the path.
    pub total_time: Hours,
    /// Total billable instance-hours (per-component rounding applied,
    /// fleet-multiplied, effective pool hours included).
    pub billed_instance_hours: Hours,
    /// Raw (pre-rounding) work hours run on the reserved pool:
    /// processing when reserved is primary, plus reserved-placed
    /// views' effective build/refresh hours.
    pub reserved_hours: Hours,
    /// Raw work hours run on the spot pool, risk-premium included.
    pub spot_hours: Hours,
    /// The compute component of the path's bill.
    pub compute_bill: Money,
    /// Epoch boundaries at which the selected set changed.
    pub switches: usize,
    /// Placement moves across the horizon (each re-paid a build).
    pub moves: usize,
    /// Sampled interruption events along the path.
    pub interruptions: usize,
    /// Mean spot-placed share of the selection across epochs.
    pub spot_share: f64,
    /// Per-epoch charged cost.
    pub epoch_costs: Vec<Money>,
    /// Per-epoch selected sets.
    pub selections: Vec<SelectionSet>,
    /// Per-epoch placement assignments (selected entries meaningful).
    pub placements: Vec<Vec<Placement>>,
}

/// One epoch of the fleet's Monte-Carlo envelope.
#[derive(Debug, Clone, Serialize)]
pub struct FleetEpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Transition-aware charged cost across paths, in dollars.
    pub charged_cost: Quantiles,
    /// Running cumulative bill across paths, in dollars.
    pub cumulative_cost: Quantiles,
    /// The spot-placed share of the selected views across paths (the
    /// hedge ratio; 0 = all reserved, 1 = all spot).
    pub hedge_ratio: Quantiles,
    /// The sampled compute price factor across paths.
    pub compute_factor: Quantiles,
    /// The per-epoch interruption probability across paths.
    pub interruption: Quantiles,
    /// How many distinct selected sets the paths chose this epoch.
    pub distinct_plans: usize,
    /// Share of paths choosing the most common selected set.
    pub modal_share: f64,
    /// Labels of that most common selected set.
    pub modal_selection: Vec<String>,
}

/// The hedged fleet priced against its own pinned pure fleets, on the
/// same sampled paths.
#[derive(Debug, Clone, Serialize)]
pub struct FleetComparison {
    /// Per-path total cost of the hedged (rebalancing) fleet.
    pub hedged: Quantiles,
    /// Per-path total cost with every view pinned to spot.
    pub pure_spot: Quantiles,
    /// Per-path total cost with every view pinned to reserved.
    pub pure_reserved: Quantiles,
    /// Share of paths where the hedge is no dearer than the better
    /// pure fleet. Note the pure plans also move the *shared* charges
    /// (processing, dataset storage) onto their pool's sheet, which a
    /// fixed-primary hedge does not imitate — so a pure fleet can
    /// legitimately win when the market discounts the shared work.
    pub hedged_wins_share: f64,
}

/// The Monte-Carlo envelope of a mixed-fleet horizon solve.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// The fleet plan's name.
    pub fleet: String,
    /// Per-path accounting, in path order.
    pub paths: Vec<FleetPathSummary>,
    /// The per-epoch quantile timeline.
    pub epochs: Vec<FleetEpochReport>,
    /// Total charged cost across paths, in dollars.
    pub total_cost: Quantiles,
    /// Total processing hours across paths.
    pub total_time_hours: Quantiles,
    /// Per-path mean hedge ratio across paths.
    pub hedge_ratio: Quantiles,
    /// Mean modal share across epochs (1.0 = every path agrees).
    pub plan_stability: f64,
    /// Hedged-vs-pure pricing on the same paths, when requested.
    pub comparison: Option<FleetComparison>,
    /// Reserved-pool commitment pricing of the fleet's compute, when
    /// the reserved pool carries a plan — the same arithmetic as
    /// `solve_market`'s report ([`SpotCommitmentReport::from_path_bills`]).
    pub commitment: Option<SpotCommitmentReport>,
    /// Distinct full-horizon solves actually performed for the K
    /// requested paths of the *hedged* fleet: the distinct
    /// scenario-tree leaves (= distinct quote sequences); 1 when the
    /// fleet never sees the market at all.
    pub distinct_solves: usize,
    /// Scenario-tree node count — the number of epoch-solves the solve
    /// paid. `None` when the market-insulated shortcut solved path 0
    /// alone for every path.
    pub tree_nodes: Option<usize>,
    /// Telemetry delta covering this solve, when [`mv_obs`] was
    /// enabled at entry; `None` otherwise (and never serialized by
    /// the CLI report emitters — surfaced via `--metrics`).
    pub telemetry: Option<mv_obs::Snapshot>,
}

impl FleetReport {
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
                    format!("{:.4}", e.hedge_ratio.median),
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
                "hedge_ratio_median",
                "compute_factor_mean",
                "interruption_mean",
                "distinct_plans",
                "modal_share",
            ],
            &rows,
        )
    }
}

/// One solved fleet path (the summary already folds in everything the
/// renderer needs from the chain steps).
#[derive(Debug, Clone)]
struct SolvedFleetPath {
    summary: FleetPathSummary,
    path: MarketPath,
}

impl Advisor {
    /// The per-epoch costing models the fleet's *primary* pool induces
    /// for one sampled path: a spot primary rides the path's quotes
    /// exactly like [`Advisor::market_epoch_models`]; a reserved
    /// primary keeps the base sheet (market dynamics reach only the
    /// spot-placed views' charges). Non-parity primary terms scale the
    /// sheet on top; parity terms leave it bit-identical.
    pub fn fleet_epoch_models(
        &self,
        path: &MarketPath,
        evolution: &WorkloadEvolution,
        fleet: &FleetPlan,
    ) -> Vec<CloudCostModel> {
        self.market_base_models(path.quotes.len(), evolution)
            .iter()
            .zip(&path.quotes)
            .map(|(base, quote)| self.fleet_quote_model(base, quote, fleet))
            .collect()
    }

    /// One epoch's base model under the fleet's primary sheet for one
    /// sampled quote — the per-node unit the scenario tree compiles
    /// its models from.
    pub(crate) fn fleet_quote_model(
        &self,
        base: &CloudCostModel,
        quote: &EpochQuote,
        fleet: &FleetPlan,
    ) -> CloudCostModel {
        let model = match fleet.primary {
            Placement::Spot => self.quote_model(base, quote),
            Placement::Reserved => base.clone(),
        };
        let terms = fleet.terms(fleet.primary);
        if terms.is_parity() {
            return model;
        }
        let mut ctx = model.context().clone();
        ctx.pricing = ctx
            .pricing
            .scale_rates(terms.rate_factor, terms.storage_factor, 1.0);
        ctx.instance = ctx
            .pricing
            .compute
            .instance(&self.config().instance)
            .expect("advisor instance validated at build")
            .clone();
        CloudCostModel::new(ctx)
    }

    /// The [`PoolCharge`] pair one sampled quote induces under a
    /// fleet: how a view placed on either pool is effectively charged
    /// against the primary sheet. The primary pool is always the exact
    /// identity on rates; the spot pool carries the quote's
    /// interruption risk.
    pub(crate) fn quote_pool_charges(quote: &EpochQuote, fleet: &FleetPlan) -> [PoolCharge; 2] {
        let spot_risk = InterruptionRisk::new(quote.interruption);
        let reserved_rate = fleet.reserved.rate_factor;
        let spot_rate = fleet.spot.rate_factor * quote.factors.compute;
        let pool = |p: Placement| -> PoolCharge {
            let risk = match p {
                Placement::Reserved => InterruptionRisk::NONE,
                Placement::Spot => spot_risk,
            };
            if p == fleet.primary {
                // The primary pool *is* the sheet: exact
                // identity on rates by construction.
                return PoolCharge::new(1.0, 1.0, risk);
            }
            let (rate, storage) = match p {
                Placement::Reserved => (reserved_rate, fleet.reserved.storage_factor),
                Placement::Spot => (spot_rate, fleet.spot.storage_factor),
            };
            let (primary_rate, primary_storage) = match fleet.primary {
                Placement::Reserved => (reserved_rate, fleet.reserved.storage_factor),
                Placement::Spot => (spot_rate, fleet.spot.storage_factor),
            };
            PoolCharge::new(rate / primary_rate, storage / primary_storage, risk)
        };
        [pool(Placement::Reserved), pool(Placement::Spot)]
    }

    /// The per-epoch [`PoolCharge`]s one sampled path induces under a
    /// fleet, one pair per epoch: how a view placed on either pool is
    /// charged against the primary sheet.
    pub fn fleet_pool_charges(path: &MarketPath, fleet: &FleetPlan) -> Vec<[PoolCharge; 2]> {
        path.quotes
            .iter()
            .map(|q| Self::quote_pool_charges(q, fleet))
            .collect()
    }

    /// Solves the horizon across `K` sampled price paths with joint
    /// per-view selection + placement and reports the Monte-Carlo
    /// envelope. See the module docs for semantics; the hot loop is one
    /// warm joint `EpochChain::solve_tree` over the sampled paths'
    /// scenario tree.
    pub fn solve_fleet(
        &self,
        scenario: Scenario,
        config: &FleetConfig,
    ) -> Result<FleetReport, AdvisorError> {
        if config.market.epochs == 0 {
            return Err(AdvisorError::EmptyHorizon);
        }
        if config.paths == 0 {
            return Err(AdvisorError::NoMarketPaths);
        }
        config.fleet.validate().map_err(AdvisorError::from)?;
        for terms in [&config.fleet.reserved, &config.fleet.spot] {
            if let Some(plan) = &terms.commitment {
                if plan.instance != self.config().instance {
                    return Err(AdvisorError::CommitmentMismatch {
                        plan: plan.name.clone(),
                        plan_instance: plan.instance.clone(),
                        advisor_instance: self.config().instance.clone(),
                    });
                }
            }
        }

        let telemetry_base = mv_obs::enabled().then(mv_obs::Snapshot::capture);
        let (solved, distinct_solves, tree_nodes) =
            self.solve_fleet_variant(scenario, config, &config.fleet);
        let comparison = config.compare_pure.then(|| {
            let hedged: Vec<f64> = solved
                .iter()
                .map(|s| s.summary.total_cost.to_dollars_f64())
                .collect();
            let totals = |fleet: &FleetPlan| -> Vec<f64> {
                self.solve_fleet_variant(scenario, config, fleet)
                    .0
                    .iter()
                    .map(|s| s.summary.total_cost.to_dollars_f64())
                    .collect()
            };
            let pure_spot = totals(&config.fleet.as_pure(Placement::Spot));
            let pure_reserved = totals(&config.fleet.as_pure(Placement::Reserved));
            let wins = hedged
                .iter()
                .zip(pure_spot.iter().zip(&pure_reserved))
                .filter(|(h, (s, r))| **h <= s.min(**r) + 1e-9)
                .count();
            FleetComparison {
                hedged: Quantiles::of(&hedged),
                pure_spot: Quantiles::of(&pure_spot),
                pure_reserved: Quantiles::of(&pure_reserved),
                hedged_wins_share: wins as f64 / hedged.len() as f64,
            }
        });
        let mut report = self.render_fleet(config, solved, comparison, distinct_solves, tree_nodes);
        if let Some(base) = telemetry_base {
            report.telemetry = Some(mv_obs::Snapshot::capture().since(&base));
        }
        Ok(report)
    }

    /// Solves all `config.paths` paths under one fleet variant through
    /// the shared scenario-tree route. A pinned all-reserved fleet
    /// under a reserved primary never sees the market at all, so path
    /// 0 solved alone (a one-path tree) covers every path regardless of
    /// its quotes — a dedup the tree cannot discover, since the quotes
    /// *differ*, they just don't matter. Returns the solved paths plus
    /// the (`distinct_solves`, `tree_nodes`) accounting pair.
    fn solve_fleet_variant(
        &self,
        scenario: Scenario,
        config: &FleetConfig,
        fleet: &FleetPlan,
    ) -> (Vec<SolvedFleetPath>, usize, Option<usize>) {
        let sampled: Vec<MarketPath> = (0..config.paths).map(|j| config.market.path(j)).collect();
        let insulated = fleet.primary == Placement::Reserved
            && fleet.pinned_pool() == Some(Placement::Reserved);
        let solve = |paths: &[MarketPath]| {
            self.solve_sampled(
                scenario,
                paths,
                &config.evolution,
                Some(fleet),
                |j, steps| {
                    let path = &paths[j];
                    let pools = Self::fleet_pool_charges(path, fleet);
                    SolvedFleetPath {
                        summary: self.account_fleet_path(j, fleet, &steps, &pools),
                        path: path.clone(),
                    }
                },
            )
        };
        if !insulated {
            let (solved, distinct, nodes) = solve(&sampled);
            return (solved, distinct, Some(nodes));
        }
        let (solved, _, _) = solve(&sampled[..1]);
        let out = sampled
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let mut s = solved[0].clone();
                s.summary.path = j;
                // Interruption *events* are still Bernoulli-sampled per
                // path — keep the replica's own quotes for event
                // reporting.
                s.path = p.clone();
                s
            })
            .collect();
        (out, 1, None)
    }

    /// Per-path accounting: totals, billable hours through the same
    /// component-rounding arithmetic as the market report (so the
    /// pure-spot fleet reconciles bit-for-bit), raw per-pool work
    /// attribution, and selection/placement churn.
    fn account_fleet_path(
        &self,
        j: usize,
        fleet: &FleetPlan,
        steps: &[EpochStep],
        pools: &[[PoolCharge; 2]],
    ) -> FleetPathSummary {
        let config = self.config();
        let rounding = config.pricing.compute.rounding;
        let pool = self.problem().candidates();
        let mut billed = Hours::ZERO;
        let mut reserved_hours = Hours::ZERO;
        let mut spot_hours = Hours::ZERO;
        let mut compute_bill = Money::ZERO;
        let mut switches = 0;
        let mut moves = 0;
        let mut spot_share_sum = 0.0;
        let mut epoch_costs = Vec::with_capacity(steps.len());
        let mut selections = Vec::with_capacity(steps.len());
        let mut placements = Vec::with_capacity(steps.len());
        for (e, step) in steps.iter().enumerate() {
            // One pass over the selected views: each effective (risk-
            // and rate-adjusted) charge is derived once, maintenance
            // and rebuilt-materialization totals accumulate in
            // ascending candidate order (added/moved are sorted, so
            // binary_search gives O(log n) membership), and the same
            // work is attributed raw (pre-rounding) to its pool.
            let (mut res, mut spot) = (Hours::ZERO, Hours::ZERO);
            match fleet.primary {
                Placement::Reserved => res += step.outcome.evaluation.time,
                Placement::Spot => spot += step.outcome.evaluation.time,
            }
            let mut maintenance = Hours::ZERO;
            let mut materialization = Hours::ZERO;
            let mut selected = 0usize;
            let mut spot_selected = 0usize;
            for k in step.selection().ones() {
                selected += 1;
                let eff =
                    pools[e][usize::from(step.placements[k] == Placement::Spot)].adjust(&pool[k]);
                maintenance += eff.maintenance;
                let rebuilt =
                    step.added.binary_search(&k).is_ok() || step.moved.binary_search(&k).is_ok();
                if rebuilt {
                    materialization += eff.materialization;
                }
                let work = eff.maintenance
                    + if rebuilt {
                        eff.materialization
                    } else {
                        Hours::ZERO
                    };
                match step.placements[k] {
                    Placement::Reserved => res += work,
                    Placement::Spot => {
                        spot += work;
                        spot_selected += 1;
                    }
                }
            }
            // Billable hours: rounded per component exactly like the
            // market report (the pure-spot conformance pin).
            for t in [step.outcome.evaluation.time, maintenance, materialization] {
                if t > Hours::ZERO {
                    billed += rounding.apply(t) * config.nb_instances as f64;
                }
            }
            reserved_hours += res;
            spot_hours += spot;
            spot_share_sum += if selected == 0 {
                0.0
            } else {
                spot_selected as f64 / selected as f64
            };
            compute_bill += step.outcome.evaluation.breakdown.compute();
            if e > 0 && !(step.added.is_empty() && step.dropped.is_empty()) {
                switches += 1;
            }
            moves += step.moved.len();
            epoch_costs.push(step.outcome.evaluation.cost());
            selections.push(step.selection().clone());
            placements.push(step.placements.clone());
        }
        FleetPathSummary {
            path: j,
            total_cost: epoch_costs.iter().copied().sum(),
            total_time: steps.iter().map(|s| s.outcome.evaluation.time).sum(),
            billed_instance_hours: billed,
            reserved_hours,
            spot_hours,
            compute_bill,
            switches,
            moves,
            interruptions: 0, // filled by the caller from the sampled path
            spot_share: spot_share_sum / steps.len() as f64,
            epoch_costs,
            selections,
            placements,
        }
    }

    /// Aggregates solved fleet paths into the quantile envelope.
    fn render_fleet(
        &self,
        config: &FleetConfig,
        mut solved: Vec<SolvedFleetPath>,
        comparison: Option<FleetComparison>,
        distinct_solves: usize,
        tree_nodes: Option<usize>,
    ) -> FleetReport {
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
            let ratios: Vec<f64> = solved
                .iter()
                .map(|s| {
                    let selected: Vec<usize> = s.summary.selections[e].ones().collect();
                    if selected.is_empty() {
                        0.0
                    } else {
                        selected
                            .iter()
                            .filter(|&&k| s.summary.placements[e][k] == Placement::Spot)
                            .count() as f64
                            / selected.len() as f64
                    }
                })
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
            epoch_reports.push(FleetEpochReport {
                epoch: e,
                charged_cost: Quantiles::of(&costs),
                cumulative_cost: Quantiles::of(&cumulative),
                hedge_ratio: Quantiles::of(&ratios),
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
        let shares: Vec<f64> = solved.iter().map(|s| s.summary.spot_share).collect();
        let commitment = config.fleet.reserved.commitment.as_ref().map(|plan| {
            let bills = solved
                .iter()
                .map(|s| (s.summary.compute_bill, s.summary.billed_instance_hours));
            self.path_commitment(plan, epochs, bills)
        });
        FleetReport {
            fleet: config.fleet.name.clone(),
            paths: solved.into_iter().map(|s| s.summary).collect(),
            epochs: epoch_reports,
            total_cost: Quantiles::of(&totals),
            total_time_hours: Quantiles::of(&total_times),
            hedge_ratio: Quantiles::of(&shares),
            plan_stability: stability_sum / epochs as f64,
            comparison,
            commitment,
            distinct_solves,
            tree_nodes,
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sales_domain, AdvisorConfig};
    use mv_market::{CorrelatedHazard, PriceProcess, SpotMarket};
    use mv_select::epoch::{EpochChain, EpochTree};

    fn advisor() -> Advisor {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn constant_market_hedged_fleet_collapses_quantiles() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let report = a
            .solve_fleet(
                scenario,
                &FleetConfig {
                    market: MarketScenario::constant(4, 7),
                    paths: 8,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.paths.len(), 8);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.plan_stability, 1.0);
        for e in &report.epochs {
            assert_eq!(e.charged_cost.spread(), 0.0);
            assert_eq!(e.distinct_plans, 1);
            // No market advantage: nothing should move to spot.
            assert_eq!(e.hedge_ratio.max, 0.0);
        }
        let cmp = report.comparison.expect("pure comparison on by default");
        // On a flat riskless market at parity terms all three fleets
        // price identically.
        assert_eq!(cmp.hedged.median, cmp.pure_spot.median);
        assert_eq!(cmp.hedged.median, cmp.pure_reserved.median);
        assert_eq!(cmp.hedged_wins_share, 1.0);
    }

    #[test]
    fn discounted_spot_pulls_views_onto_the_spot_pool() {
        // A deep flat spot discount with zero risk, priced per minute
        // (Cumulus) so the pool differential survives rounding: the
        // rebalancing fleet should spot-place its views and strictly
        // beat staying all-reserved. (Pure-spot also moves the *shared
        // processing* onto the discounted sheet, which a
        // reserved-primary hedge deliberately does not imitate.)
        let pricing = mv_pricing::presets::cumulus();
        let a = Advisor::build(
            sales_domain(1_000, 4, 5.0, 42),
            AdvisorConfig {
                pricing,
                instance: "c.std".to_string(),
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.3, 0.0))),
            paths: 4,
            ..FleetConfig::default()
        };
        let report = a.solve_fleet(scenario, &config).unwrap();
        assert!(
            report.hedge_ratio.median > 0.0,
            "the discount should pull views onto spot: {:?}",
            report.hedge_ratio
        );
        let cmp = report.comparison.expect("comparison");
        assert!(
            cmp.hedged.median < cmp.pure_reserved.median,
            "hedged {} vs pure reserved {}",
            cmp.hedged.median,
            cmp.pure_reserved.median
        );
    }

    #[test]
    fn correlated_crunches_spread_the_envelope_reproducibly() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 11)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.2)))
                .with(PriceProcess::Correlated(
                    CorrelatedHazard::bursty(0.3, 0.8, 0.6).with_crunch_compute(1.4),
                )),
            paths: 12,
            ..FleetConfig::default()
        };
        let r1 = a.solve_fleet(scenario, &config).unwrap();
        let r2 = a.solve_fleet(scenario, &config).unwrap();
        assert_eq!(r1.total_cost, r2.total_cost);
        assert_eq!(r1.hedge_ratio, r2.hedge_ratio);
        // The crunch regime genuinely varies across paths somewhere.
        assert!(r1.epochs.iter().any(|e| e.interruption.spread() > 0.0));
        let csv = r1.timeline_csv();
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("epoch,cost_p10"));
    }

    #[test]
    fn tree_route_is_bit_identical_to_the_flat_loop() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let config = FleetConfig {
            market: MarketScenario::constant(6, 11)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.2)))
                .with(PriceProcess::Correlated(
                    CorrelatedHazard::bursty(0.3, 0.8, 0.6).with_crunch_compute(1.4),
                )),
            paths: 10,
            ..FleetConfig::default()
        };
        let tree = a.solve_fleet(scenario, &config).unwrap();
        // The per-path reference: each sampled path solved alone, as its
        // own one-path tree over the fleet's primary-sheet models.
        let pool = a.problem().candidates().to_vec();
        let budget = mv_select::local_search::default_move_budget(pool.len());
        let reference = |fleet: &FleetPlan| -> Vec<FleetPathSummary> {
            let initial: Vec<Placement> = match fleet.initial {
                Some(p) => vec![p; pool.len()],
                None => pool.iter().map(|c| c.placement).collect(),
            };
            (0..config.paths)
                .map(|j| {
                    let path = config.market.path(j);
                    let models = a.fleet_epoch_models(&path, &config.evolution, fleet);
                    let pools = Advisor::fleet_pool_charges(&path, fleet);
                    let reprice = |e: usize, _k: usize, p: Placement, c: &mv_cost::ViewCharge| {
                        pools[e][usize::from(p == Placement::Spot)].adjust(c)
                    };
                    let alone = EpochTree::path(models.clone());
                    let chain = EpochChain::new(models, pool.clone());
                    let rebalance = fleet.rebalance;
                    let steps =
                        chain.solve_tree(scenario, budget, &alone, &initial, rebalance, &reprice);
                    a.account_fleet_path(j, fleet, &steps[0], &pools)
                })
                .collect()
        };
        let hedged = reference(&config.fleet);
        for (t, r) in tree.paths.iter().zip(&hedged) {
            assert_eq!(t.total_cost, r.total_cost, "path {}", r.path);
            assert_eq!(t.billed_instance_hours, r.billed_instance_hours);
            assert_eq!(t.reserved_hours, r.reserved_hours);
            assert_eq!(t.spot_hours, r.spot_hours);
            assert_eq!(t.selections, r.selections);
            assert_eq!(t.placements, r.placements);
            assert_eq!(t.moves, r.moves);
        }
        // The pure comparators price through the same route.
        let totals = |paths: &[FleetPathSummary]| -> Quantiles {
            let v: Vec<f64> = paths
                .iter()
                .map(|p| p.total_cost.to_dollars_f64())
                .collect();
            Quantiles::of(&v)
        };
        let cmp = tree.comparison.expect("comparison on by default");
        assert_eq!(cmp.hedged, totals(&hedged));
        assert_eq!(
            cmp.pure_spot,
            totals(&reference(&config.fleet.as_pure(Placement::Spot)))
        );
        assert_eq!(
            cmp.pure_reserved,
            totals(&reference(&config.fleet.as_pure(Placement::Reserved)))
        );
        let nodes = tree.tree_nodes.expect("the tree reports its size");
        assert!(nodes < tree.distinct_solves * 6, "no prefix shared");
    }

    #[test]
    fn insulated_fleet_pays_one_solve_even_on_a_volatile_market() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        let mut config = FleetConfig {
            market: MarketScenario::constant(4, 5)
                .with(PriceProcess::Spot(SpotMarket::with_volatility(0.5))),
            paths: 8,
            compare_pure: false,
            ..FleetConfig::default()
        };
        config.fleet = config.fleet.as_pure(Placement::Reserved);
        let report = a.solve_fleet(scenario, &config).unwrap();
        // The quotes differ across paths but never reach the solve.
        assert_eq!(report.distinct_solves, 1);
        assert!(report.tree_nodes.is_none());
        assert_eq!(report.total_cost.spread(), 0.0);
    }

    #[test]
    fn degenerate_configs_are_errors() {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(0.5);
        assert!(matches!(
            a.solve_fleet(
                scenario,
                &FleetConfig {
                    paths: 0,
                    ..FleetConfig::default()
                }
            ),
            Err(AdvisorError::NoMarketPaths)
        ));
        assert!(matches!(
            a.solve_fleet(
                scenario,
                &FleetConfig {
                    market: MarketScenario::constant(0, 1),
                    ..FleetConfig::default()
                }
            ),
            Err(AdvisorError::EmptyHorizon)
        ));
        let mut bad = FleetConfig::default();
        bad.fleet.spot.rate_factor = -1.0;
        assert!(matches!(
            a.solve_fleet(scenario, &bad),
            Err(AdvisorError::Pricing(_))
        ));
        let mut mismatched = FleetConfig::default();
        let mut plan = mv_pricing::CommitmentPlan::aws_small_1yr();
        plan.instance = "large".to_string();
        mismatched.fleet.reserved.commitment = Some(plan);
        assert!(matches!(
            a.solve_fleet(scenario, &mismatched),
            Err(AdvisorError::CommitmentMismatch { .. })
        ));
    }

    #[test]
    fn reserved_commitment_prices_the_fleet_compute() {
        let a = advisor();
        let mut config = FleetConfig {
            market: MarketScenario::constant(12, 3)
                .with(PriceProcess::Spot(SpotMarket::discounted(0.4, 0.3))),
            paths: 8,
            compare_pure: false,
            ..FleetConfig::default()
        };
        config.fleet.reserved.commitment = Some(mv_pricing::CommitmentPlan::aws_small_1yr());
        let report = a
            .solve_fleet(Scenario::tradeoff_normalized(0.5), &config)
            .unwrap();
        let cmp = report.commitment.expect("plan supplied");
        assert!(cmp.spot_compute.min > 0.0);
        assert!(cmp.reserved.min > 0.0);
        assert!((0.0..=1.0).contains(&cmp.reserved_wins_share));
    }
}
