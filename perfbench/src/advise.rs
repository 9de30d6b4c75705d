//! `advise_sales`: time to a recommendation on the paper's sales domain.
//!
//! One op is the CLI `advise --rows 400000 --queries 8 --alpha 0.5`
//! path: `Advisor::build` (full lattice, 15 candidates, one engine
//! thread), an MV3 solve with the paper's knapsack, and the report
//! summary. Each op gets its own generated domain (seed per op), made
//! outside the op's timing. Nearly all of an op is engine metering.

use std::time::Instant;

use mvcloud::engine::{
    datagen, AggQuery, AggSpec, MaterializedView, SalesConfig, Table, ViewDefinition,
};
use mvcloud::lattice::candidates;
use mvcloud::obs::Snapshot;
use mvcloud::report::summarize;
use mvcloud::{sales_domain, Advisor, AdvisorConfig, Domain, Scenario, SolverKind};

use crate::measure::{ms_since, op_seed, peak_rss_mb, timed, CpuWall, Report, RunConfig, Samples};
use crate::trace::{obs_begin, obs_end, write_trace, SelectLayer, Tracer};

const ROWS: usize = 400_000;
const QUERIES: usize = 8;
const ALPHA: f64 = 0.5;
/// Ops run even when the timed phase is shorter than this many ops.
const MIN_OPS: u64 = 4;

/// Engine work of one `Advisor::build`, replayed call by call through
/// the engine's public API (the calls `CandidateMeter` makes), outside
/// any op's timing.
#[derive(Default)]
pub struct EngineReplica {
    pub workload_scan_ms: f64,
    pub materialize_ms: f64,
    pub refresh_ms: f64,
    pub answer_ms: f64,
    /// Full passes over the base table (workload queries + views).
    pub base_scans: u64,
    /// Bytes every replayed engine call reports scanning.
    pub bytes_scanned: u64,
}

impl EngineReplica {
    pub fn total_ms(&self) -> f64 {
        self.workload_scan_ms + self.materialize_ms + self.refresh_ms + self.answer_ms
    }

    /// Replays the engine calls of building an advisor over `domain`
    /// under `config` (full-lattice candidates).
    pub fn run(domain: &Domain, config: &AdvisorConfig) -> EngineReplica {
        let mut r = EngineReplica::default();
        let threads = config.threads;
        let measure = || vec![AggSpec::sum(domain.measure.clone())];
        let queries: Vec<AggQuery> = domain
            .workload
            .lower(&domain.lattice)
            .into_iter()
            .map(|lq| {
                let cols: Vec<&str> = lq.group_by.iter().map(String::as_str).collect();
                AggQuery::new(lq.name, &cols, measure())
            })
            .collect();
        for q in &queries {
            let (res, ms) = timed(|| q.execute_with_threads(&domain.base, threads));
            let (_, stats) = res.expect("workload query runs on its own domain");
            r.workload_scan_ms += ms;
            r.base_scans += 1;
            r.bytes_scanned += stats.bytes_scanned;
        }
        let delta = monthly_delta(domain, config.maintenance_delta_fraction);
        for cuboid in candidates::full_lattice(&domain.lattice) {
            let label = domain.lattice.label(&cuboid);
            let cols = domain.lattice.key_columns(&cuboid);
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let def = ViewDefinition::canonical(label, &col_refs, &measure());
            let (view, ms) =
                timed(|| MaterializedView::materialize_with_threads(def, &domain.base, threads));
            let view = view.expect("lattice view materializes on its own domain");
            r.materialize_ms += ms;
            r.base_scans += 1;
            r.bytes_scanned += view.build_stats().bytes_scanned;
            if let Some(d) = &delta {
                let mut copy = view.clone();
                let (stats, ms) = timed(|| copy.refresh_incremental(d));
                r.refresh_ms += ms;
                r.bytes_scanned += stats.expect("delta shares the base schema").bytes_scanned;
            }
            for q in &queries {
                if view.can_answer(q).is_ok() {
                    let (res, ms) = timed(|| view.answer(q));
                    r.answer_ms += ms;
                    r.bytes_scanned += res.expect("answerable query answers").1.bytes_scanned;
                }
            }
        }
        r
    }
}

/// The monthly insert batch the advisor meters maintenance with on the
/// sales domain (the same generator call and size).
fn monthly_delta(domain: &Domain, fraction: f64) -> Option<Table> {
    if fraction <= 0.0 {
        return None;
    }
    let rows = ((domain.base.num_rows() as f64 * fraction) as usize).max(1);
    Some(datagen::generate_delta(
        &SalesConfig::default(),
        rows,
        2011,
        1,
    ))
}

/// Sums of per-op layer numbers over the traced ops.
#[derive(Default)]
struct Layers {
    ops: f64,
    datagen_ms: f64,
    build_ms: f64,
    solve_ms: f64,
    summarize_ms: f64,
    builds_in_solve: f64,
    engine: EngineReplica,
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let config = AdvisorConfig::default();
    let scenario = Scenario::tradeoff_normalized(ALPHA);
    let mut datagen = Samples::default();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut cpu = CpuWall::default();
    let mut layers = Layers::default();
    let mut select = SelectLayer::default();
    let mut tracer = Tracer::new();

    let start = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS || start.elapsed() < cfg.seconds {
        let trace = cfg.traced(op);
        let t = Instant::now();
        let domain = sales_domain(ROWS, QUERIES, 1.0, op_seed(cfg.seed, op));
        let datagen_ms = ms_since(t);
        datagen.push(datagen_ms);

        let mut problems = Vec::new();
        if trace {
            // The replica runs on the op's domain, before the op on every
            // other traced op and after it on the rest, so both see the
            // same memory state and machine drift cancels in the mean.
            let replica_first = op.is_multiple_of(4);
            let early = replica_first.then(|| {
                tracer
                    .span(op, "engine.replica", || {
                        EngineReplica::run(&domain, &config)
                    })
                    .0
            });
            let span = tracer.begin(op, "op");
            let base = obs_begin();
            let ((advisor, build_ms), wall_build) = cpu.run(|| {
                tracer.span(op, "advisor.build", || {
                    Advisor::build(domain, config.clone())
                })
            });
            let advisor = match advisor {
                Ok(a) => a,
                Err(e) => {
                    obs_end(&base);
                    tracer.end(span);
                    rep.check(op, vec![format!("Advisor::build failed: {e}")]);
                    op += 1;
                    continue;
                }
            };
            let before_solve = Snapshot::capture();
            let ((outcome, solve_ms), wall_solve) = cpu.run(|| {
                tracer.span(op, "advisor.solve", || {
                    advisor.solve(scenario, SolverKind::PaperKnapsack)
                })
            });
            let builds = Snapshot::capture()
                .since(&before_solve)
                .counter("evaluator/build");
            let ((summary, summarize_ms), wall_sum) = cpu.run(|| {
                tracer.span(op, "report.summarize", || {
                    summarize(&outcome, &labels(&advisor))
                })
            });
            select.add(&obs_end(&base));
            tracer.end(span);
            traced.push(wall_build + wall_solve + wall_sum);
            check(&advisor, &outcome, &summary, &mut problems);

            let engine = early.unwrap_or_else(|| {
                tracer
                    .span(op, "engine.replica", || {
                        EngineReplica::run(advisor.domain(), &config)
                    })
                    .0
            });
            layers.ops += 1.0;
            layers.datagen_ms += datagen_ms;
            layers.build_ms += build_ms;
            layers.solve_ms += solve_ms;
            layers.summarize_ms += summarize_ms;
            layers.builds_in_solve += builds as f64;
            layers.engine.workload_scan_ms += engine.workload_scan_ms;
            layers.engine.materialize_ms += engine.materialize_ms;
            layers.engine.refresh_ms += engine.refresh_ms;
            layers.engine.answer_ms += engine.answer_ms;
            layers.engine.base_scans += engine.base_scans;
            layers.engine.bytes_scanned += engine.bytes_scanned;
        } else {
            let t = Instant::now();
            let advisor = match Advisor::build(domain, config.clone()) {
                Ok(a) => a,
                Err(e) => {
                    rep.check(op, vec![format!("Advisor::build failed: {e}")]);
                    op += 1;
                    continue;
                }
            };
            let outcome = advisor.solve(scenario, SolverKind::PaperKnapsack);
            let summary = summarize(&outcome, &labels(&advisor));
            plain.push(ms_since(t));
            check(&advisor, &outcome, &summary, &mut problems);
        }
        rep.check(op, problems);
        op += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Throughput counts the client's whole timed phase: the ops, their
    // domains' generation and their checks.
    let completed = plain.len() + traced.len();
    rep.e2e("setup_s", datagen.median() / 1e3, "s");
    rep.e2e("ops_per_s", completed as f64 / wall_s, "1/s");
    rep.e2e("op_p50_ms", plain.median(), "ms");
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.notes.push(format!(
        "advise_sales: {} ops, {} untraced, rows {ROWS}, queries {QUERIES}, alpha {ALPHA}",
        op,
        plain.len()
    ));

    if cfg.trace {
        let n = layers.ops.max(1.0);
        let e = &layers.engine;
        let replica = e.total_ms() / n;
        let build = layers.build_ms / n;
        rep.layer("engine.datagen_ms", layers.datagen_ms / n, "ms");
        rep.layer("engine.workload_scan_ms", e.workload_scan_ms / n, "ms");
        rep.layer("engine.materialize_ms", e.materialize_ms / n, "ms");
        rep.layer("engine.refresh_ms", e.refresh_ms / n, "ms");
        rep.layer("engine.answer_ms", e.answer_ms / n, "ms");
        rep.layer("engine.base_scans", e.base_scans as f64 / n, "count");
        rep.layer("engine.bytes_scanned", e.bytes_scanned as f64 / n, "B");
        rep.layer("advisor.build_ms", build, "ms");
        rep.layer("advisor.build_unexplained_ms", build - replica, "ms");
        rep.layer("advisor.build_engine_share", replica / build, "ratio");
        rep.layer("advisor.solve_ms", layers.solve_ms / n, "ms");
        rep.layer(
            "advisor.evaluator_builds_per_solve",
            layers.builds_in_solve / n,
            "count",
        );
        rep.layer("report.summarize_ms", layers.summarize_ms / n, "ms");
        select.report(&mut rep);
        rep.layer("proc.cpu_per_wall", cpu.ratio(), "ratio");
        rep.layer(
            "obs.overhead_pct",
            (traced.median() / plain.median() - 1.0) * 100.0,
            "%",
        );
        rep.notes.push(format!(
            "advise_sales build split (mean of {} traced ops): build {build:.3} ms = engine replica {replica:.3} ms ({:.1}%) + unexplained {:.3} ms ({:.1}%)",
            layers.ops,
            100.0 * replica / build,
            build - replica,
            100.0 * (build - replica) / build,
        ));
        write_trace(cfg, "advise_sales", &tracer, &mut rep);
    }
    rep
}

fn labels(advisor: &Advisor) -> Vec<String> {
    advisor
        .candidates()
        .iter()
        .map(|c| c.label.clone())
        .collect()
}

/// The op's output checks, none of which solves again: the solver's
/// evaluation is recomputed from its selection and must match bit for
/// bit, and the plan must be feasible.
fn check(advisor: &Advisor, outcome: &mvcloud::Outcome, summary: &str, problems: &mut Vec<String>) {
    if advisor.candidates().len() != 15 {
        problems.push(format!(
            "expected 15 full-lattice candidates, got {}",
            advisor.candidates().len()
        ));
    }
    if advisor.problem().evaluate(&outcome.evaluation.selection) != outcome.evaluation {
        problems.push("re-evaluated selection differs from the solver's evaluation".into());
    }
    if !outcome.feasible() {
        problems.push("MV3 outcome is not feasible".into());
    }
    if summary.is_empty() {
        problems.push("empty summary".into());
    }
}
