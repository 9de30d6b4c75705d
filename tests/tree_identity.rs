//! Scenario-tree ≡ per-path identity: the tree-routed Monte-Carlo
//! solvers must reproduce solving every sampled path alone **bit for
//! bit**.
//!
//! The tree solves each shared quote-prefix once and branches the warm
//! evaluator at split points; the reference below solves every sampled
//! path as its own one-path tree, from the public per-path models
//! ([`Advisor::market_epoch_models`], [`Advisor::fleet_epoch_models`])
//! and charge transforms. A node's search trajectory depends only on
//! its costing model, its effective charges and the selection it
//! inherits — all shared along a prefix — so the two must agree
//! exactly: same per-path bills, hours, selections and placements,
//! same quantile envelopes and plan agreement. These properties drive
//! both `Advisor::solve_market` (volatile spot markets) and
//! `Advisor::solve_fleet` (hedged fleets under correlated interruption
//! crunches) over random market shapes.

use std::sync::OnceLock;

use mvcloud::cost::{InterruptionRisk, PoolCharge, ViewCharge};
use mvcloud::fleet::FleetConfig;
use mvcloud::market::{
    CorrelatedHazard, MarketConfig, MarketPath, MarketScenario, PriceProcess, SpotMarket,
};
use mvcloud::pricing::{FleetPlan, Placement};
use mvcloud::select::epoch::{horizon_cost, horizon_time, EpochChain, EpochStep, EpochTree};
use mvcloud::select::local_search::default_move_budget;
use mvcloud::select::SelectionSet;
use mvcloud::units::{Hours, Money};
use mvcloud::{sales_domain, Advisor, AdvisorConfig, CloudCostModel, Quantiles, Scenario};
use proptest::prelude::*;

/// One measured advisor shared by every proptest case (building one is
/// the expensive part; the properties only vary the solve).
fn advisor() -> &'static Advisor {
    static ADVISOR: OnceLock<Advisor> = OnceLock::new();
    ADVISOR.get_or_init(|| {
        Advisor::build(sales_domain(1_000, 4, 5.0, 42), AdvisorConfig::default()).unwrap()
    })
}

/// A genuinely volatile market: a mean-reverting spot process with a
/// random discount and volatility, optionally stacked with a bursty
/// correlated-hazard regime (correlated interruption epochs).
fn volatile_market(
    epochs: usize,
    seed: u64,
    discount: f64,
    volatility: f64,
    hazard: Option<(f64, f64)>,
) -> MarketScenario {
    let mut market = MarketScenario::constant(epochs, seed).with(PriceProcess::Spot(
        SpotMarket::discounted(discount, volatility),
    ));
    if let Some((calm_to_crunch, crunch_hazard)) = hazard {
        market = market.with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(calm_to_crunch, 0.7, crunch_hazard).with_crunch_compute(1.3),
        ));
    }
    market
}

/// One path's models solved alone, warm, as a one-path tree whose
/// `reprice` is keyed by epoch.
fn solve_alone(
    a: &Advisor,
    scenario: Scenario,
    models: Vec<CloudCostModel>,
    initial: &[Placement],
    rebalance: bool,
    pools: &[[PoolCharge; 2]],
) -> Vec<EpochStep> {
    let pool = a.problem().candidates().to_vec();
    let budget = default_move_budget(pool.len());
    let tree = EpochTree::path(models.clone());
    let reprice = |e: usize, _k: usize, p: Placement, c: &ViewCharge| {
        pools[e][usize::from(p == Placement::Spot)].adjust(c)
    };
    EpochChain::new(models, pool)
        .solve_tree(scenario, budget, &tree, initial, rebalance, &reprice)
        .remove(0)
}

/// Distinct quote sequences among the sampled paths — what the tree
/// must report as its distinct solves.
fn distinct_sequences(paths: &[MarketPath]) -> usize {
    let mut keys: Vec<Vec<[u64; 4]>> = paths
        .iter()
        .map(|p| p.quotes.iter().map(|q| q.solve_key()).collect())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// What a report's row must show for one path solved alone: (total
/// cost, total time, per-epoch costs, per-epoch selections, switches).
type PathFacts = (Money, Hours, Vec<Money>, Vec<SelectionSet>, usize);

fn path_facts(steps: &[EpochStep]) -> PathFacts {
    let switches = steps[1..]
        .iter()
        .filter(|s| !(s.added.is_empty() && s.dropped.is_empty()))
        .count();
    (
        horizon_cost(steps),
        horizon_time(steps),
        steps.iter().map(|s| s.outcome.evaluation.cost()).collect(),
        steps.iter().map(|s| s.selection().clone()).collect(),
        switches,
    )
}

/// The envelope a report must show over the per-path references: the
/// total-cost quantiles, per epoch (charged-cost quantiles, distinct
/// plans, modal share), and the plan stability (mean modal share).
type Envelope = (Quantiles, Vec<(Quantiles, usize, f64)>, f64);

fn envelope(per_path: &[Vec<EpochStep>]) -> Envelope {
    let totals: Vec<f64> = per_path
        .iter()
        .map(|s| horizon_cost(s).to_dollars_f64())
        .collect();
    let epochs: Vec<(Quantiles, usize, f64)> = (0..per_path[0].len())
        .map(|e| {
            let costs: Vec<f64> = per_path
                .iter()
                .map(|s| s[e].outcome.evaluation.cost().to_dollars_f64())
                .collect();
            let mut plans: Vec<_> = per_path.iter().map(|s| s[e].selection().clone()).collect();
            let modal = plans
                .iter()
                .map(|p| plans.iter().filter(|q| *q == p).count())
                .max()
                .expect("at least one path");
            plans.sort_by_key(|p| p.ones().collect::<Vec<_>>());
            plans.dedup();
            (
                Quantiles::of(&costs),
                plans.len(),
                modal as f64 / per_path.len() as f64,
            )
        })
        .collect();
    let stability = epochs.iter().map(|e| e.2).sum::<f64>() / epochs.len() as f64;
    (Quantiles::of(&totals), epochs, stability)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tree_market_solve_matches_flat_bit_for_bit(
        epochs in 2usize..6,
        paths in 2usize..14,
        seed in 0u64..1_000,
        discount in 0.3f64..0.9,
        volatility in 0.1f64..0.7,
        alpha in 0.1f64..0.9,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(alpha);
        let config = MarketConfig {
            market: volatile_market(epochs, seed, discount, volatility, None),
            paths,
            commitment: Some(mvcloud::pricing::CommitmentPlan::aws_small_1yr()),
            ..MarketConfig::default()
        };
        let tree = a.solve_market(scenario, &config).unwrap();
        let sampled: Vec<MarketPath> = (0..paths).map(|j| config.market.path(j)).collect();
        let initial: Vec<Placement> =
            a.problem().candidates().iter().map(|c| c.placement).collect();
        let reference: Vec<Vec<EpochStep>> = sampled
            .iter()
            .map(|path| {
                // The market prices every view on the quoted sheet with
                // the quote's interruption premium, whatever its pool.
                let pools: Vec<[PoolCharge; 2]> = path
                    .quotes
                    .iter()
                    .map(|q| {
                        let risked =
                            PoolCharge::new(1.0, 1.0, InterruptionRisk::new(q.interruption));
                        [risked, risked]
                    })
                    .collect();
                let models = a.market_epoch_models(path, &config.evolution);
                solve_alone(a, scenario, models, &initial, false, &pools)
            })
            .collect();

        // Per-path bills and plans, quantile envelopes, plan agreement.
        prop_assert_eq!(tree.paths.len(), paths);
        for (t, steps) in tree.paths.iter().zip(&reference) {
            let row = (t.total_cost, t.total_time, t.epoch_costs.clone(), t.selections.clone(), t.switches);
            prop_assert_eq!(row, path_facts(steps));
            let compute = steps.iter().map(|s| s.outcome.evaluation.breakdown.compute()).sum();
            prop_assert_eq!(t.compute_bill, compute);
        }
        let epochs_seen = tree.epochs.iter().map(|e| (e.charged_cost, e.distinct_plans, e.modal_share));
        prop_assert_eq!((tree.total_cost, epochs_seen.collect(), tree.plan_stability), envelope(&reference));
        let times: Vec<f64> = reference.iter().map(|s| horizon_time(s).value()).collect();
        prop_assert_eq!(tree.total_time_hours, Quantiles::of(&times));
        // The commitment comparison prices the same per-path compute.
        let spot: Vec<f64> = tree.paths.iter().map(|p| p.compute_bill.to_dollars_f64()).collect();
        prop_assert_eq!(tree.commitment.unwrap().spot_compute, Quantiles::of(&spot));
        // The tree solves each distinct quote sequence once, and never
        // pays more epoch-solves than solving the distinct paths alone.
        let distinct = distinct_sequences(&sampled);
        prop_assert_eq!(tree.distinct_solves, distinct);
        let nodes = tree.tree_nodes.unwrap();
        prop_assert!(nodes <= distinct * epochs);
    }

    #[test]
    fn tree_fleet_solve_matches_flat_bit_for_bit(
        epochs in 2usize..5,
        paths in 2usize..10,
        seed in 0u64..1_000,
        discount in 0.3f64..0.8,
        volatility in 0.0f64..0.5,
        calm_to_crunch in 0.1f64..0.6,
        crunch_hazard in 0.2f64..0.8,
        rebalance in proptest::bool::ANY,
        alpha in 0.2f64..0.8,
    ) {
        let a = advisor();
        let scenario = Scenario::tradeoff_normalized(alpha);
        let mut fleet = mvcloud::pricing::FleetPlan::hedged("hedged");
        fleet.rebalance = rebalance;
        let config = FleetConfig {
            market: volatile_market(
                epochs, seed, discount, volatility,
                Some((calm_to_crunch, crunch_hazard)),
            ),
            paths,
            fleet,
            compare_pure: false,
            ..FleetConfig::default()
        };
        let tree = a.solve_fleet(scenario, &config).unwrap();
        let sampled: Vec<MarketPath> = (0..paths).map(|j| config.market.path(j)).collect();
        let plan: &FleetPlan = &config.fleet;
        let initial: Vec<Placement> = match plan.initial {
            Some(p) => vec![p; a.problem().len()],
            None => a.problem().candidates().iter().map(|c| c.placement).collect(),
        };
        let reference: Vec<Vec<EpochStep>> = sampled
            .iter()
            .map(|path| {
                let models = a.fleet_epoch_models(path, &config.evolution, plan);
                let pools = Advisor::fleet_pool_charges(path, plan);
                solve_alone(a, scenario, models, &initial, plan.rebalance, &pools)
            })
            .collect();

        for (t, steps) in tree.paths.iter().zip(&reference) {
            let row = (t.total_cost, t.total_time, t.epoch_costs.clone(), t.selections.clone(), t.switches);
            prop_assert_eq!(row, path_facts(steps));
            let placements: Vec<_> = steps.iter().map(|s| s.placements.clone()).collect();
            prop_assert_eq!(&t.placements, &placements);
            prop_assert_eq!(t.moves, steps.iter().map(|s| s.moved.len()).sum::<usize>());
        }
        let epochs_seen = tree.epochs.iter().map(|e| (e.charged_cost, e.distinct_plans, e.modal_share));
        prop_assert_eq!((tree.total_cost, epochs_seen.collect(), tree.plan_stability), envelope(&reference));
        match tree.tree_nodes {
            Some(nodes) => {
                let distinct = distinct_sequences(&sampled);
                prop_assert_eq!(tree.distinct_solves, distinct);
                prop_assert!(nodes <= distinct * epochs);
            }
            // A non-rebalancing hedged fleet pins every view to its
            // initial reserved placement and never sees the market:
            // path 0 solved alone covers every path.
            None => prop_assert_eq!(tree.distinct_solves, 1),
        }
    }
}
