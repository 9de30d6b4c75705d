//! Market sweep: retarget-based price-drift handoff vs rebuilding per
//! epoch, across K sampled price paths.
//!
//! Two shapes, mirroring the horizon bench's machinery/end-to-end
//! split:
//!
//! 1. **price-drift handoff** — one epoch boundary under price dynamics
//!    alone: `retarget` to the re-priced model plus an `update_charge`
//!    splice per candidate whose risk-adjusted charge moved (all of
//!    them: the interruption premium re-risks the whole pool) and one
//!    snapshot — vs re-pricing the charge vector, building a fresh
//!    `SelectionProblem` and a fresh evaluator repositioned by O(n)
//!    flips, and one snapshot.
//! 2. **K-path sweep** — the `solve_market` hot loop at the `mv-select`
//!    layer: K sampled spot paths, each solved over an 8-epoch horizon
//!    as its own one-path tree by `EpochChain::solve_tree` (one live
//!    evaluator per path) vs `EpochChain::solve_rebuilding` (fresh
//!    problem + evaluator every epoch). Identical outcomes (asserted
//!    before timing), only the state handoff differs.
//! 3. **scenario tree** — the same warm solve over the K = 32 paths'
//!    shared-prefix tree vs over one one-path tree per path.
//!
//! The acceptance bar for this PR: warm-start measurably faster than
//! rebuild in both groups (ratios recorded in ROADMAP.md).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mv_select::epoch::{EpochChain, EpochTree, EpochTreeNode};
use mv_select::{IncrementalEvaluator, Placement, Scenario, SelectionProblem, SelectionSet};
use mvcloud::cost::InterruptionRisk;
use mvcloud::market::{MarketPath, MarketScenario, PriceProcess, ScenarioTree, SpotMarket};
use mvcloud::{CloudCostModel, ViewCharge};

/// The streaming/churn hot-path shape (shared: `mv_bench::shapes`).
const CANDIDATES: usize = mv_bench::shapes::HOT_CANDIDATES;
const EPOCHS: usize = 8;
const PATHS: usize = 8;

/// The scenario-tree sweep width (the tentpole's acceptance shape).
const TREE_PATHS: usize = 32;

/// A volatile discounted spot market over the bench horizon.
fn spot_market(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.4)))
}

/// Compiles one sampled path into per-epoch models + risks over the
/// bench problem (the same shape `Advisor::solve_market` builds).
fn compile_path(
    problem: &SelectionProblem,
    path: &MarketPath,
) -> (Vec<CloudCostModel>, Vec<InterruptionRisk>) {
    let models = path
        .quotes
        .iter()
        .map(|q| mv_bench::shapes::quote_model(problem, q))
        .collect();
    let risks = path
        .quotes
        .iter()
        .map(|q| InterruptionRisk::new(q.interruption))
        .collect();
    (models, risks)
}

/// One sampled path solved alone: its chain, the chain's epochs as a
/// one-path tree, and its per-epoch risks.
type PathSolve = (EpochChain, EpochTree, Vec<InterruptionRisk>);

/// Compiles one sampled path for solving alone.
fn path_solve(problem: &SelectionProblem, path: &MarketPath) -> PathSolve {
    let (models, risks) = compile_path(problem, path);
    (
        EpochChain::new(models.clone(), problem.candidates().to_vec()),
        EpochTree::path(models),
        risks,
    )
}

fn bench_price_drift_handoff(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(41);
    let path = spot_market(7).path(1);
    let (models, _) = compile_path(&problem, &path);
    let (model_a, model_b) = (models[0].clone(), models[1].clone());
    // Alternating interruption regimes: every boundary re-risks the
    // whole pool (the market worst case — nothing short-circuits).
    let (risk_a, risk_b) = (InterruptionRisk::new(0.1), InterruptionRisk::new(0.4));
    let mut selection = SelectionSet::empty(CANDIDATES);
    for k in (0..CANDIDATES).step_by(2) {
        selection.set(k, true);
    }
    let pool = problem.candidates().to_vec();
    let mut group = c.benchmark_group(format!("market/price_drift_handoff_n{CANDIDATES}"));

    group.bench_function(BenchmarkId::from_parameter("rebuild_reposition"), |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let (model, risk) = if flip {
                (&model_b, &risk_b)
            } else {
                (&model_a, &risk_a)
            };
            let charged: Vec<ViewCharge> = pool
                .iter()
                .enumerate()
                .map(|(k, v)| {
                    if selection.contains(k) {
                        risk.adjust(&v.carried())
                    } else {
                        risk.adjust(v)
                    }
                })
                .collect();
            let p = SelectionProblem::new(model.clone(), charged);
            let mut ev = IncrementalEvaluator::with_selection(&p, &selection);
            black_box(ev.snapshot().time.value())
        })
    });

    group.bench_function(BenchmarkId::from_parameter("warm_start"), |b| {
        let mut ev = IncrementalEvaluator::from_problem(SelectionProblem::new(
            model_a.clone(),
            pool.clone(),
        ));
        for k in selection.ones() {
            ev.flip(k);
        }
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let (model, risk) = if flip {
                (&model_b, &risk_b)
            } else {
                (&model_a, &risk_a)
            };
            ev.retarget(model.clone());
            for (k, v) in pool.iter().enumerate() {
                let charge = if selection.contains(k) {
                    risk.adjust(&v.carried())
                } else {
                    risk.adjust(v)
                };
                ev.update_charge(k, charge);
            }
            black_box(ev.snapshot().time.value())
        })
    });
    group.finish();
}

fn bench_k_path_sweep(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(43);
    let market = spot_market(99);
    let paths: Vec<PathSolve> = (0..PATHS)
        .map(|j| path_solve(&problem, &market.path(j)))
        .collect();
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;
    let initial = pool_placements(&problem);
    // Sanity: warm and rebuild must agree before we time them.
    for (chain, tree, risks) in &paths {
        let reprice = |e: usize, _k: usize, _p: Placement, v: &ViewCharge| risks[e].adjust(v);
        let warm = chain.solve_tree(scenario, budget, tree, &initial, false, &reprice);
        let rebuilt = chain.solve_rebuilding(scenario, budget, &initial, false, &reprice);
        for (w, r) in warm[0].iter().zip(&rebuilt) {
            assert_eq!(w.outcome.evaluation, r.outcome.evaluation);
        }
    }
    let mut group = c.benchmark_group(format!(
        "market/k_path_sweep_k{PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("rebuild_per_epoch"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (chain, _, risks) in &paths {
                let reprice =
                    |e: usize, _k: usize, _p: Placement, v: &ViewCharge| risks[e].adjust(v);
                total += chain
                    .solve_rebuilding(scenario, budget, &initial, false, &reprice)
                    .len();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("warm_start"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (chain, tree, risks) in &paths {
                let reprice =
                    |e: usize, _k: usize, _p: Placement, v: &ViewCharge| risks[e].adjust(v);
                total +=
                    chain.solve_tree(scenario, budget, tree, &initial, false, &reprice)[0].len();
            }
            black_box(total)
        })
    });
    group.finish();
}

/// Every candidate's own pool-charge placement — a market solve pins
/// views there.
fn pool_placements(problem: &SelectionProblem) -> Vec<Placement> {
    problem.candidates().iter().map(|c| c.placement).collect()
}

/// Shared-prefix tree vs per-path trees at K = 32. Solving every path
/// alone, as its own one-path tree, pays 32 evaluator builds (one
/// greedy fill each) plus 32 × 7 retargets. The scenario tree factors
/// the sampled paths into a prefix forest (the spot process pins epoch
/// 0, so all 32 share one root) and solves each *node* once: 1 build,
/// one retarget per edge, a cheap fork per extra sibling. Identical
/// outcomes are asserted before timing.
fn bench_scenario_tree_vs_per_path(c: &mut Criterion) {
    let problem = mv_bench::shapes::hot_problem(61);
    let market = spot_market(17);
    let sampled: Vec<MarketPath> = (0..TREE_PATHS).map(|j| market.path(j)).collect();

    // Per-path reference: each path compiled for solving alone.
    let per_path: Vec<PathSolve> = sampled.iter().map(|p| path_solve(&problem, p)).collect();

    // Tree route: one repriced model + risk per *node*.
    let stree = ScenarioTree::from_paths(&sampled);
    assert!(
        stree.len() < TREE_PATHS * EPOCHS,
        "fixture must actually share prefixes"
    );
    let nodes: Vec<EpochTreeNode> = stree
        .nodes()
        .iter()
        .map(|n| EpochTreeNode {
            parent: n.parent,
            epoch: n.epoch,
            model: mv_bench::shapes::quote_model(&problem, &n.quote),
        })
        .collect();
    let node_risks: Vec<InterruptionRisk> = stree
        .nodes()
        .iter()
        .map(|n| InterruptionRisk::new(n.quote.interruption))
        .collect();
    let leaves: Vec<usize> = (0..TREE_PATHS).map(|j| stree.leaf_of(j)).collect();
    let tree = EpochTree::new(nodes, leaves);
    let chain = EpochChain::new(
        vec![problem.model().clone(); EPOCHS],
        problem.candidates().to_vec(),
    );
    let scenario = Scenario::tradeoff_normalized(0.5);
    let budget = 2 * CANDIDATES + 8;
    let initial = pool_placements(&problem);

    // Sanity: the shared tree and the per-path trees must price
    // identically before we time them.
    let tree_reprice =
        |node: usize, _k: usize, _p: Placement, v: &ViewCharge| node_risks[node].adjust(v);
    let tree_steps = chain.solve_tree(scenario, budget, &tree, &initial, false, &tree_reprice);
    for (j, (pchain, ptree, risks)) in per_path.iter().enumerate() {
        let reprice = |e: usize, _k: usize, _p: Placement, v: &ViewCharge| risks[e].adjust(v);
        let alone = pchain.solve_tree(scenario, budget, ptree, &initial, false, &reprice);
        for (t, w) in tree_steps[j].iter().zip(&alone[0]) {
            assert_eq!(t.outcome.evaluation, w.outcome.evaluation);
        }
    }

    let mut group = c.benchmark_group(format!(
        "market/scenario_tree_k{TREE_PATHS}_e{EPOCHS}_n{CANDIDATES}"
    ));
    group.bench_function(BenchmarkId::from_parameter("per_path_trees"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (pchain, ptree, risks) in &per_path {
                let reprice =
                    |e: usize, _k: usize, _p: Placement, v: &ViewCharge| risks[e].adjust(v);
                total +=
                    pchain.solve_tree(scenario, budget, ptree, &initial, false, &reprice)[0].len();
            }
            black_box(total)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("shared_prefix_tree"), |b| {
        b.iter(|| {
            black_box(
                chain
                    .solve_tree(scenario, budget, &tree, &initial, false, &tree_reprice)
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = mv_bench::shapes::fast_config();
    targets = bench_price_drift_handoff, bench_k_path_sweep, bench_scenario_tree_vs_per_path
}
criterion_main!(benches);
