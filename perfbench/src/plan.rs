//! `plan_montecarlo`: the three multi-epoch drivers on sampled markets.
//!
//! Set-up builds one small sales advisor (the engine runs only here),
//! timed in fresh processes of this program.
//! Each cycle draws one market from the run seed and the cycle index —
//! a discounted volatile spot process plus a bursty correlated crunch
//! regime over 24 epochs — and an MV3 knob, then runs three ops on it:
//! `solve_horizon`, `solve_market` over 256 paths and a hedged
//! `solve_fleet` over the same 256 paths with the pure-fleet
//! comparison. Market and fleet fan out over the scenario tree's own
//! worker threads.

use mvcloud::fleet::FleetConfig;
use mvcloud::lattice::WorkloadEvolution;
use mvcloud::market::{
    CorrelatedHazard, MarketConfig, MarketPath, MarketScenario, PriceProcess, ScenarioTree,
    SpotMarket,
};
use mvcloud::pricing::FleetPlan;
use mvcloud::{
    sales_domain, Advisor, AdvisorConfig, AdvisorError, FleetReport, HorizonConfig, HorizonReport,
    MarketReport, Scenario,
};

use crate::advise::EngineReplica;
use crate::measure::{
    op_seed, peak_rss_mb, probe, timed, CpuWall, Phase, Report, Rng, RunConfig, Samples,
};
use crate::trace::{obs_begin, obs_end, write_trace, SelectLayer, Tracer};

const ROWS: usize = 2_000;
const QUERIES: usize = 8;
const EPOCHS: usize = 24;
const PATHS: usize = 256;
/// Set-up probe processes per run.
const SETUP_PROBES: usize = 41;
/// In-process set-ups of a traced run, for the build's layer split.
const TRACED_SETUP_REPEATS: usize = 25;
const MIN_CYCLES: u64 = 3;

fn market(seed: u64) -> MarketScenario {
    MarketScenario::constant(EPOCHS, seed)
        .with(PriceProcess::Spot(SpotMarket::discounted(0.5, 0.3)))
        .with(PriceProcess::Correlated(
            CorrelatedHazard::bursty(0.25, 0.7, 0.5).with_crunch_compute(1.3),
        ))
}

/// Times one op and records it: traced ops run with telemetry on,
/// inside a benchmark span, and add their telemetry delta to the
/// `select` layer; untraced ops add to the end-to-end samples.
struct OpTimer<'a> {
    trace: bool,
    cpu: &'a mut CpuWall,
    tracer: &'a mut Tracer,
    select: &'a mut SelectLayer,
    traced: &'a mut Samples,
    plain: &'a mut Samples,
}

impl OpTimer<'_> {
    fn run<R>(
        &mut self,
        id: u64,
        name: &'static str,
        samples: &mut Samples,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.trace {
            let base = obs_begin();
            let tracer = &mut *self.tracer;
            let ((r, _), ms) = self.cpu.run(|| tracer.span(id, name, f));
            self.select.add(&obs_end(&base));
            self.traced.push(ms);
            r
        } else {
            let (r, ms) = timed(f);
            samples.push(ms);
            self.plain.push(ms);
            r
        }
    }
}

/// The cycle's output checks, from the reports alone (no extra
/// solves): the pure-spot fleet must reproduce the market envelope and
/// the pure-reserved fleet the horizon bill on every path, bit for bit.
fn check_cycle(
    rep: &mut Report,
    ops: [u64; 3],
    horizon: &Result<HorizonReport, AdvisorError>,
    market: &Result<MarketReport, AdvisorError>,
    fleet: &Result<FleetReport, AdvisorError>,
) {
    let mut problems = Vec::new();
    match horizon {
        Ok(h) if h.epochs.len() == EPOCHS => {}
        Ok(h) => problems.push(format!("horizon has {} epochs", h.epochs.len())),
        Err(e) => problems.push(format!("solve_horizon failed: {e}")),
    }
    rep.check(ops[0], problems);

    let mut problems = Vec::new();
    match market {
        Ok(m) if m.paths.len() == PATHS => {}
        Ok(m) => problems.push(format!("market solved {} paths", m.paths.len())),
        Err(e) => problems.push(format!("solve_market failed: {e}")),
    }
    rep.check(ops[1], problems);

    let mut problems = Vec::new();
    match (fleet, market, horizon) {
        (Err(e), _, _) => problems.push(format!("solve_fleet failed: {e}")),
        (Ok(f), Ok(m), Ok(h)) => match &f.comparison {
            None => problems.push("fleet report has no pure-fleet comparison".into()),
            Some(c) => {
                if c.pure_spot != m.total_cost {
                    problems.push("pure-spot fleet differs from solve_market".into());
                }
                let bill = h.total_cost.to_dollars_f64();
                if c.pure_reserved.min != bill || c.pure_reserved.max != bill {
                    problems.push("pure-reserved fleet differs from solve_horizon".into());
                }
            }
        },
        // The identities need all three reports; the failed op is
        // already counted.
        (Ok(_), _, _) => {}
    }
    rep.check(ops[2], problems);
}

/// Per-cycle sums of the `market` / `cost` replicas over traced cycles.
#[derive(Default)]
struct MarketLayer {
    cycles: f64,
    sample_ms: f64,
    tree_build_ms: f64,
    tree_nodes: f64,
    epoch_models_ms: f64,
}

/// The body of a set-up probe process: the workload's set-up, domain
/// generation plus `Advisor::build`, and its wall time in milliseconds.
pub fn setup_probe(seed: u64) -> Result<Vec<f64>, String> {
    let (built, ms) = timed(|| {
        Advisor::build(
            sales_domain(ROWS, QUERIES, 1.0, seed),
            AdvisorConfig::default(),
        )
    });
    built.map_err(|e| e.to_string())?;
    Ok(vec![ms])
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let config = AdvisorConfig::default();

    // Set-up: domain generation plus the advisor build, timed in fresh
    // processes spread over the timed phase. The run's own advisor is
    // built untimed; a traced run builds it several times to split the
    // build into layers.
    let mut setup = Samples::default();
    let mut datagen = Samples::default();
    let mut build = Samples::default();
    let mut replica = Samples::default();
    let mut engine = EngineReplica::default();
    let mut advisor = None;
    let repeats = if cfg.trace { TRACED_SETUP_REPEATS } else { 1 };
    for _ in 0..repeats {
        let (domain, gen_ms) = timed(|| sales_domain(ROWS, QUERIES, 1.0, cfg.seed));
        let (built, build_ms) = timed(|| Advisor::build(domain, config.clone()));
        datagen.push(gen_ms);
        build.push(build_ms);
        let built = match built {
            Ok(a) => a,
            Err(e) => {
                rep.check(0, vec![format!("set-up Advisor::build failed: {e}")]);
                return rep;
            }
        };
        if cfg.trace {
            let e = EngineReplica::run(built.domain(), &config);
            replica.push(e.total_ms());
            engine.workload_scan_ms += e.workload_scan_ms / repeats as f64;
            engine.materialize_ms += e.materialize_ms / repeats as f64;
            engine.refresh_ms += e.refresh_ms / repeats as f64;
            engine.answer_ms += e.answer_ms / repeats as f64;
            engine.base_scans = e.base_scans;
            engine.bytes_scanned = e.bytes_scanned;
        }
        advisor = Some(built);
    }
    let advisor = advisor.expect("set-up ran at least once");

    let mut horizon_ms = Samples::default();
    let mut market_ms = Samples::default();
    let mut fleet_ms = Samples::default();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut cpu = CpuWall::default();
    let mut select = SelectLayer::default();
    let mut mlayer = MarketLayer::default();
    let mut tracer = Tracer::new();
    let evolution = WorkloadEvolution::fixed();

    let mut phase = Phase::start(cfg.seconds);
    let mut cycle = 0u64;
    loop {
        while phase.due(setup.len(), SETUP_PROBES) {
            match phase.pause(|| probe("plan_montecarlo", &cfg.seed.to_string())) {
                Ok(t) if t.len() == 1 => setup.push(t[0]),
                Ok(t) => {
                    rep.check(0, vec![format!("set-up probe printed {t:?}")]);
                    return rep;
                }
                Err(e) => {
                    rep.check(0, vec![format!("set-up failed: {e}")]);
                    return rep;
                }
            }
        }
        if cycle >= MIN_CYCLES && !phase.running() {
            break;
        }
        let seed = op_seed(cfg.seed, cycle);
        let scenario = Scenario::tradeoff_normalized(0.35 + 0.3 * Rng::new(seed).unit());
        let market = market(seed);
        let horizon_cfg = HorizonConfig {
            epochs: EPOCHS,
            ..HorizonConfig::default()
        };
        let market_cfg = MarketConfig {
            market: market.clone(),
            paths: PATHS,
            ..MarketConfig::default()
        };
        let fleet_cfg = FleetConfig {
            market: market.clone(),
            paths: PATHS,
            fleet: FleetPlan::hedged("hedged"),
            compare_pure: true,
            ..FleetConfig::default()
        };
        let ops = [3 * cycle, 3 * cycle + 1, 3 * cycle + 2];
        let trace = cfg.traced(cycle);
        let mut timer = OpTimer {
            trace,
            cpu: &mut cpu,
            tracer: &mut tracer,
            select: &mut select,
            traced: &mut traced,
            plain: &mut plain,
        };
        let h = timer.run(ops[0], "core.solve_horizon", &mut horizon_ms, || {
            advisor.solve_horizon(scenario, &horizon_cfg)
        });
        let m = timer.run(ops[1], "core.solve_market", &mut market_ms, || {
            advisor.solve_market(scenario, &market_cfg)
        });
        let f = timer.run(ops[2], "core.solve_fleet", &mut fleet_ms, || {
            advisor.solve_fleet(scenario, &fleet_cfg)
        });
        check_cycle(&mut rep, ops, &h, &m, &f);

        if trace {
            let id = tracer.begin(ops[2], "market.replica");
            let (paths, sample_ms): (Vec<MarketPath>, f64) =
                timed(|| (0..PATHS).map(|j| market.path(j)).collect());
            let (_, tree_ms) = timed(|| ScenarioTree::from_paths(&paths));
            let (_, models_ms) = timed(|| {
                for p in &paths {
                    advisor.market_epoch_models(p, &evolution);
                    advisor.fleet_epoch_models(p, &evolution, &fleet_cfg.fleet);
                }
            });
            tracer.end(id);
            mlayer.cycles += 1.0;
            mlayer.sample_ms += sample_ms;
            mlayer.tree_build_ms += tree_ms;
            // The solve's own count of the nodes it solved.
            let nodes = m.as_ref().ok().and_then(|m| m.tree_nodes).unwrap_or(0);
            mlayer.tree_nodes += nodes as f64;
            mlayer.epoch_models_ms += models_ms;
        }
        cycle += 1;
    }
    // Throughput counts the client's whole timed phase: the ops, their
    // markets' construction and their checks.
    let wall_s = phase.elapsed().as_secs_f64();

    rep.e2e("setup_s", setup.median() / 1e3, "s");
    rep.e2e("ops_per_s", (3 * cycle) as f64 / wall_s, "1/s");
    rep.e2e("op_p50_ms", plain.median(), "ms");
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("horizon_p50_ms", horizon_ms.median(), "ms");
    rep.e2e("market_p50_ms", market_ms.median(), "ms");
    rep.e2e("fleet_p50_ms", fleet_ms.median(), "ms");
    rep.notes.push(format!(
        "plan_montecarlo: {cycle} cycles ({} untraced ops), epochs {EPOCHS}, paths {PATHS}, threads {}",
        plain.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    if cfg.trace {
        let b = build.mean();
        let r = replica.mean();
        rep.layer("engine.datagen_ms", datagen.mean(), "ms");
        rep.layer("engine.workload_scan_ms", engine.workload_scan_ms, "ms");
        rep.layer("engine.materialize_ms", engine.materialize_ms, "ms");
        rep.layer("engine.refresh_ms", engine.refresh_ms, "ms");
        rep.layer("engine.answer_ms", engine.answer_ms, "ms");
        rep.layer("engine.base_scans", engine.base_scans as f64, "count");
        rep.layer("engine.bytes_scanned", engine.bytes_scanned as f64, "B");
        rep.layer("advisor.build_ms", b, "ms");
        rep.layer("advisor.build_unexplained_ms", b - r, "ms");
        rep.layer("advisor.build_engine_share", r / b, "ratio");
        select.report(&mut rep);
        let n = mlayer.cycles.max(1.0);
        rep.layer("market.sample_ms", mlayer.sample_ms / n, "ms");
        rep.layer("market.tree_build_ms", mlayer.tree_build_ms / n, "ms");
        rep.layer("market.tree_nodes", mlayer.tree_nodes / n, "count");
        rep.layer(
            "market.tree_share",
            mlayer.tree_nodes / n / (PATHS * EPOCHS) as f64,
            "ratio",
        );
        rep.layer("cost.epoch_models_ms", mlayer.epoch_models_ms / n, "ms");
        rep.layer("proc.cpu_per_wall", cpu.ratio(), "ratio");
        rep.layer(
            "obs.overhead_pct",
            (traced.median() / plain.median() - 1.0) * 100.0,
            "%",
        );
        write_trace(cfg, "plan_montecarlo", &tracer, &mut rep);
    }
    rep
}
