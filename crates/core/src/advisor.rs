//! The end-to-end advisor.
//!
//! [`Advisor::build`] runs the whole measurement pipeline the paper
//! describes (select on the client, materialize in the cloud):
//!
//! 1. generate candidate cuboids from the lattice;
//! 2. materialize every candidate in the engine, finest first, each one
//!    rolled up from its smallest already-built ancestor (the "smallest
//!    parent" order of Agarwal et al., VLDB 1996) — only a candidate
//!    with no built ancestor scans the base table — and meter build
//!    cost, stored size, incremental-maintenance cost, and the improved
//!    time of every workload query it can answer;
//! 3. meter the workload, each query answered from the smallest built
//!    view that can (the base table when none can). Where the data comes
//!    from never changes a charge: build and query stats are the base
//!    scan's, computed from the base table's shape, exactly as the paper
//!    charges a full scan;
//! 4. convert metered work to simulated cluster-hours and cloud gigabytes;
//! 5. assemble the [`SelectionProblem`] over the paper's cost models.
//!
//! [`Advisor::meter_stats`] counts the engine passes this took.
//! [`Advisor::solve`] then runs any scenario × solver combination, and
//! [`Advisor::materialize_selection`] registers the chosen views in a
//! catalog, ready to serve queries.

use std::cell::Cell;
use std::cmp::Reverse;

use mv_cost::{CloudCostModel, CostContext, QueryCharge, ViewCharge};
use mv_engine::{
    smallest_answering, AggQuery, AggSpec, MaterializedView, SimScale, Table, ThroughputModel,
    ViewCatalog, ViewDefinition,
};
use mv_lattice::{candidates, CandidateStream, Cuboid, SizeEstimator};
use mv_obs::Counter;
use mv_pricing::{PricingPolicy, UsageLedger};
use mv_select::{
    local_search, IncrementalEvaluator, Outcome, Scenario, SelectionProblem, SolverKind,
};
use mv_units::{Gb, Hours, Months};
use serde::{Deserialize, Serialize};

use crate::{AdvisorError, Domain};

#[cfg(test)]
mod reference;

/// How candidate views are generated from the lattice (the paper's
/// "existing materialized view selection method").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateStrategy {
    /// Every non-base cuboid.
    FullLattice,
    /// Workload cuboids plus pairwise least-common-ancestors.
    WorkloadClosure,
    /// HRU greedy benefit-per-space, bounded to `k` views.
    HruGreedy(usize),
}

/// How engine measurements are projected to the simulated cloud scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizingMode {
    /// Multiply all engine byte counts by the dataset scale factor. Only
    /// correct when the engine table *is* the full dataset (scale ≈ 1):
    /// aggregate results and views do not grow linearly with the fact
    /// table.
    MeasuredScaled,
    /// Scale scan work by the cloud/engine *row* ratio and project result
    /// and view row counts with Cardenas' formula over the lattice's key
    /// domains — group counts saturate, exactly as they would at full
    /// scale. This is the default and matches how the paper's 10 GB
    /// evaluation behaves.
    Extrapolated,
}

/// Advisor configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvisorConfig {
    /// Provider pricing policy.
    pub pricing: PricingPolicy,
    /// Rented instance configuration name (must be in the catalog).
    pub instance: String,
    /// Number of identical instances (`nbIC`).
    pub nb_instances: u32,
    /// Billing horizon for storage.
    pub months: Months,
    /// Simulated ("cloud") dataset size the engine table represents; the
    /// paper's evaluation uses 10 GB.
    pub simulated_dataset: Gb,
    /// Work → hours conversion.
    pub throughput: ThroughputModel,
    /// Candidate generation strategy.
    pub candidates: CandidateStrategy,
    /// Engine threads for materialization.
    pub threads: usize,
    /// Size of the monthly insert batch used to meter view maintenance, as
    /// a fraction of the base rows. `0.0` models the paper's §6 evaluation
    /// where the dataset is static during the period (no refresh charge).
    pub maintenance_delta_fraction: f64,
    /// Engine-to-cloud projection mode.
    pub sizing: SizingMode,
}

impl Default for AdvisorConfig {
    /// The paper's experimental setup: AWS-2012 pricing, two small
    /// instances, a 10 GB dataset, one-month horizon, full-lattice
    /// candidates.
    fn default() -> Self {
        AdvisorConfig {
            pricing: mv_pricing::presets::aws_2012(),
            instance: "small".to_string(),
            nb_instances: 2,
            months: Months::new(1.0),
            simulated_dataset: Gb::new(10.0),
            throughput: ThroughputModel::default(),
            candidates: CandidateStrategy::FullLattice,
            threads: 1,
            maintenance_delta_fraction: 0.02,
            sizing: SizingMode::Extrapolated,
        }
    }
}

/// How [`Advisor::solve_streaming`] pulls candidate cuboids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamStrategy {
    /// HRU greedy benefit order over the lazily-walked lattice, optionally
    /// capped at a pull budget.
    HruGreedy(Option<usize>),
    /// Workload-closure members in static benefit-per-space order.
    WorkloadClosure,
}

/// Tuning knobs for the streaming solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Candidate source and order.
    pub strategy: StreamStrategy,
    /// Local-search improvement moves budgeted after each admission (0
    /// disables mid-stream repair; the newcomer probe always runs).
    pub moves_per_pull: usize,
    /// Improvement budget for each polish pass at stream drain.
    pub final_moves: usize,
    /// Retire dominated, deselected candidates as they accrue, bounding
    /// the live pool.
    pub retire_dominated: bool,
    /// Dominance slack for retirement, following Aouiche, Jouve &
    /// Darmont's observation that near-duplicate candidate views (views
    /// whose sizes and speedups differ only marginally) can be pruned
    /// as a cluster without hurting the reachable optimum: candidate
    /// `b` is retired when some live `a` is within a `(1 + ε)` factor
    /// of `b` on every charge axis and strictly better somewhere. `0.0`
    /// (the default) is exact strict Pareto dominance — retirement then
    /// provably cannot push the reachable optimum up. Positive ε trades
    /// a bounded optimum regression for a smaller live pool on lattices
    /// full of near-duplicates.
    pub retire_epsilon: f64,
    /// Pull-adaptive stopping: when set, the stream stops early once
    /// the marginal benefit per measurement — the improvement of the
    /// scenario's objective (or, while infeasible, its violation)
    /// produced by a pull's admission + repair — stays below this
    /// threshold for [`StreamingConfig::stop_patience`] consecutive
    /// pulls. `None` (the default) drains the stream fully. Because
    /// streams yield in estimated-benefit order, a dry spell is
    /// evidence the tail is dry too — huge lattices never need a full
    /// drain.
    pub stop_marginal: Option<f64>,
    /// Consecutive below-threshold pulls tolerated before stopping
    /// (only meaningful with `stop_marginal`; a benefit-ordered stream
    /// can still interleave a few duds before a useful candidate).
    pub stop_patience: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            strategy: StreamStrategy::HruGreedy(None),
            moves_per_pull: 2,
            final_moves: 64,
            retire_dominated: true,
            retire_epsilon: 0.0,
            stop_marginal: None,
            stop_patience: 3,
        }
    }
}

/// Accounting for one streaming solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StreamingReport {
    /// Cuboids pulled from the stream (each was materialized + metered).
    pub pulled: usize,
    /// Candidates surviving in the advisor's problem at drain.
    pub admitted: usize,
    /// Dominated candidates retired mid-stream.
    pub retired: usize,
    /// Whether the pull-adaptive stopping rule cut the stream before it
    /// drained (always `false` when `stop_marginal` is `None`).
    pub stopped_early: bool,
}

/// One measured candidate: the lattice cuboid, its engine view, and the
/// derived [`ViewCharge`].
#[derive(Debug, Clone)]
pub struct MeasuredCandidate {
    /// The cuboid this candidate materializes.
    pub cuboid: Cuboid,
    /// Human-readable label (`"month×country"`).
    pub label: String,
    /// The materialized engine view (kept for later registration).
    pub view: MaterializedView,
    /// The cost-model attributes fed to the optimizer.
    pub charge: ViewCharge,
}

/// The engine passes one advisor's measurement made, owned by that
/// advisor. Every group-by the metering needs — one per candidate view
/// and one per workload query — is either a base scan or a roll-up, so
/// `base_scans + rollups` is the candidates metered plus the queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterStats {
    /// Group-bys over the base table: candidates with no built ancestor
    /// and workload queries no built view answers.
    pub base_scans: u64,
    /// Group-bys over a built view instead: candidates rolled up from
    /// their smallest built ancestor and workload queries answered from
    /// the smallest built view that can.
    pub rollups: u64,
    /// Answer probes, one per (candidate, query it answers), metered
    /// from the view's shape without running them.
    pub probes: u64,
}

/// The built advisor: measured workload + candidates + selection problem.
#[derive(Debug)]
pub struct Advisor {
    domain: Domain,
    config: AdvisorConfig,
    scale: SimScale,
    queries: Vec<AggQuery>,
    measured: Vec<MeasuredCandidate>,
    problem: SelectionProblem,
    meter_stats: MeterStats,
}

/// The shared measurement context: validated instance capacity, the
/// engine→cloud scale mapping, the executable workload, and the
/// extrapolation parameters. Both the batch pipeline
/// ([`Advisor::build`]) and the streaming pipeline
/// ([`Advisor::solve_streaming`]) meter candidates through one of
/// these, so a streamed candidate's [`ViewCharge`] is bit-identical to
/// the batch measurement of the same cuboid.
pub(crate) struct CandidateMeter<'a> {
    domain: &'a Domain,
    config: &'a AdvisorConfig,
    instance: mv_pricing::InstanceType,
    scale: SimScale,
    pub(crate) units: f64,
    engine_rows: f64,
    cloud_rows: f64,
    queries: Vec<AggQuery>,
    delta: Option<Table>,
    stats: Cell<MeterStats>,
}

impl<'a> CandidateMeter<'a> {
    /// Validates the domain/config pair and precomputes the projection
    /// parameters.
    pub(crate) fn new(domain: &'a Domain, config: &'a AdvisorConfig) -> Result<Self, AdvisorError> {
        domain.validate()?;
        if domain.base.num_rows() == 0 {
            return Err(AdvisorError::EmptyDataset);
        }
        let instance = config
            .pricing
            .compute
            .instance(&config.instance)
            .map_err(|_| AdvisorError::UnknownInstance {
                name: config.instance.clone(),
            })?
            .clone();
        let units = instance.compute_units * config.nb_instances as f64;
        if units.is_nan() || units <= 0.0 {
            return Err(AdvisorError::InvalidComputeUnits {
                instance: config.instance.clone(),
            });
        }
        let scale = SimScale::mapping(domain.base.size(), config.simulated_dataset);
        // Extrapolation parameters: the cloud-side fact table has the same
        // per-row width as the engine table but `cloud_rows` rows; group
        // counts at cloud scale come from Cardenas over the key domain.
        let engine_rows = domain.base.num_rows().max(1) as f64;
        let row_bytes = domain.base.heap_bytes() as f64 / engine_rows;
        let cloud_rows = config.simulated_dataset.as_bytes() as f64 / row_bytes.max(1.0);
        // Lower the lattice workload to executable group-bys in ONE place
        // (`LatticeWorkload::lower`), so calibration replays exactly the
        // queries the advisor metered.
        let queries: Vec<AggQuery> = domain
            .workload
            .lower(&domain.lattice)
            .into_iter()
            .map(|lq| {
                let col_refs: Vec<&str> = lq.group_by.iter().map(String::as_str).collect();
                AggQuery::new(
                    lq.name,
                    &col_refs,
                    vec![AggSpec::sum(domain.measure.clone())],
                )
            })
            .collect();
        let delta = monthly_delta(domain, config.maintenance_delta_fraction);
        Ok(CandidateMeter {
            domain,
            config,
            instance,
            scale,
            units,
            engine_rows,
            cloud_rows,
            queries,
            delta,
            stats: Cell::default(),
        })
    }

    /// Cloud-scale group count of `cuboid` (Cardenas over its key domain).
    fn cloud_groups(&self, cuboid: &Cuboid) -> f64 {
        mv_lattice::cardenas(
            self.cloud_rows as u64,
            self.domain.lattice.domain_size(cuboid),
        )
    }

    /// Scan work projected to cloud scale (engine bytes × how many more
    /// input rows the cloud table has) and converted to simulated
    /// cluster-hours under the configured throughput model.
    fn scan_hours(
        &self,
        bytes_scanned: u64,
        input_rows_engine: f64,
        input_rows_cloud: f64,
    ) -> Result<Hours, AdvisorError> {
        let bytes = bytes_scanned as f64 * (input_rows_cloud / input_rows_engine.max(1.0));
        self.config
            .throughput
            .hours_for_scan(Gb::from_bytes(bytes as u64), self.units)
            .map_err(AdvisorError::from)
    }

    /// The view a group-by for `query` reads: the smallest in `built`
    /// able to answer it ([`smallest_answering`], the catalog's routing
    /// rule), or `None` for the base table. Tallies the pass either way.
    fn source<'b>(
        &self,
        query: &AggQuery,
        built: &'b [MeasuredCandidate],
    ) -> Option<&'b MaterializedView> {
        let source =
            smallest_answering(built.iter().map(|m| &m.view), query).map(|i| &built[i].view);
        if source.is_some() {
            self.tally(|s| s.rollups += 1);
            mv_obs::inc(Counter::MeterRollups);
        } else {
            self.tally(|s| s.base_scans += 1);
            mv_obs::inc(Counter::MeterBaseScans);
        }
        source
    }

    fn tally(&self, count: impl FnOnce(&mut MeterStats)) {
        let mut stats = self.stats.get();
        count(&mut stats);
        self.stats.set(stats);
    }

    /// Meters the workload and derives its charges (step 3): each query
    /// is answered from the smallest view in `built` that can, or scanned
    /// from the base table, and charged the base scan.
    pub(crate) fn workload_charges(
        &self,
        built: &[MeasuredCandidate],
    ) -> Result<Vec<QueryCharge>, AdvisorError> {
        mv_obs::span!("meter/workload");
        let base = &self.domain.base;
        let mut charges = Vec::with_capacity(self.queries.len());
        for (q, lq) in self.queries.iter().zip(&self.domain.workload.queries) {
            let (out, stats) = match self.source(q, built) {
                Some(view) => q.execute_via(view, base),
                None => q.execute_with_threads(base, self.config.threads),
            }
            .map_err(AdvisorError::from)?;
            let (result_size, base_time) = match self.config.sizing {
                SizingMode::MeasuredScaled => (
                    self.scale.bytes_to_cloud(stats.bytes_out),
                    self.config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                ),
                SizingMode::Extrapolated => {
                    let rows_cloud = self.cloud_groups(&lq.cuboid);
                    let width = out.schema().row_byte_width() as f64;
                    (
                        Gb::from_bytes((rows_cloud * width) as u64),
                        self.scan_hours(stats.bytes_scanned, self.engine_rows, self.cloud_rows)?,
                    )
                }
            };
            charges.push(QueryCharge {
                name: q.name.clone(),
                result_size,
                base_time,
                frequency: lq.frequency,
            });
        }
        Ok(charges)
    }

    /// Measures `cuboids` finest first, so each one rolls up from its
    /// smallest built ancestor, and returns them in the given order.
    pub(crate) fn measure_all(
        &self,
        cuboids: Vec<Cuboid>,
    ) -> Result<Vec<MeasuredCandidate>, AdvisorError> {
        // Rank (total level count) strictly grows along the derivability
        // order, so every ancestor in the pool is built before its
        // descendants.
        let mut order: Vec<usize> = (0..cuboids.len()).collect();
        order.sort_by_key(|&i| Reverse(cuboids[i].rank()));
        let mut built = Vec::with_capacity(order.len());
        for &i in &order {
            let mc = self.measure(cuboids[i].clone(), &built)?;
            built.push(mc);
        }
        let mut indexed: Vec<(usize, MeasuredCandidate)> = order.into_iter().zip(built).collect();
        indexed.sort_by_key(|(i, _)| *i);
        Ok(indexed.into_iter().map(|(_, mc)| mc).collect())
    }

    /// Materializes and meters one candidate cuboid (steps 2 and 4 for a
    /// single view), rolled up from the smallest view in `built` that
    /// answers it, or scanned from the base table.
    pub(crate) fn measure(
        &self,
        cuboid: Cuboid,
        built: &[MeasuredCandidate],
    ) -> Result<MeasuredCandidate, AdvisorError> {
        let label = self.domain.lattice.label(&cuboid);
        let cols = self.domain.lattice.key_columns(&cuboid);
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let def = ViewDefinition::canonical(
            label.clone(),
            &col_refs,
            &[AggSpec::sum(self.domain.measure.clone())],
        );
        let view = {
            mv_obs::span!("meter/materialize");
            let base = &self.domain.base;
            match self.source(&def.as_query(), built) {
                Some(parent) => MaterializedView::rollup(def, parent, base),
                None => MaterializedView::materialize_with_threads(def, base, self.config.threads),
            }
            .map_err(AdvisorError::from)?
        };
        let build = *view.build_stats();
        let view_rows_engine = view.data().num_rows().max(1) as f64;
        let view_rows_cloud = self.cloud_groups(&cuboid);

        // Maintenance: incremental refresh of one monthly delta batch.
        let maintenance = match &self.delta {
            Some(d) if d.num_rows() > 0 => {
                mv_obs::span!("meter/refresh");
                let mut clone = view.clone();
                let stats = clone.refresh_incremental(d).map_err(AdvisorError::from)?;
                match self.config.sizing {
                    SizingMode::MeasuredScaled => self
                        .config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                    SizingMode::Extrapolated => self.scan_hours(
                        stats.bytes_scanned,
                        d.num_rows().max(1) as f64,
                        self.cloud_rows * self.config.maintenance_delta_fraction,
                    )?,
                }
            }
            _ => Hours::ZERO,
        };

        let (view_size, materialization) = match self.config.sizing {
            SizingMode::MeasuredScaled => (
                self.scale.bytes_to_cloud(view.data().heap_bytes()),
                self.config
                    .throughput
                    .hours_for(&build, self.units, self.scale)?,
            ),
            SizingMode::Extrapolated => {
                let width = view.data().heap_bytes() as f64 / view_rows_engine;
                (
                    Gb::from_bytes((view_rows_cloud * width) as u64),
                    // Building a view is charged the whole base scan.
                    self.scan_hours(build.bytes_scanned, self.engine_rows, self.cloud_rows)?,
                )
            }
        };
        let mut charge = ViewCharge::new(
            label.clone(),
            view_size,
            materialization,
            maintenance,
            self.queries.len(),
        );
        // Answer probes: only the scanned bytes feed the charge, so each
        // is metered from the view's shape rather than run.
        mv_obs::span!("meter/answer");
        for (i, q) in self.queries.iter().enumerate() {
            if view.can_answer(q).is_ok() {
                let stats = view.meter_answer(q).map_err(AdvisorError::from)?;
                self.tally(|s| s.probes += 1);
                let t = match self.config.sizing {
                    SizingMode::MeasuredScaled => self
                        .config
                        .throughput
                        .hours_for(&stats, self.units, self.scale)?,
                    SizingMode::Extrapolated => {
                        self.scan_hours(stats.bytes_scanned, view_rows_engine, view_rows_cloud)?
                    }
                };
                charge = charge.answers(i, t);
            }
        }
        Ok(MeasuredCandidate {
            cuboid,
            label,
            view,
            charge,
        })
    }

    /// Assembles the paper's cost model over the metered workload.
    pub(crate) fn cost_model(&self, charges: Vec<QueryCharge>) -> CloudCostModel {
        CloudCostModel::new(CostContext {
            pricing: self.config.pricing.clone(),
            instance: self.instance.clone(),
            nb_instances: self.config.nb_instances,
            months: self.config.months,
            dataset_size: self.config.simulated_dataset,
            inserts: vec![],
            workload: charges,
        })
    }
}

impl Advisor {
    /// Runs the measurement pipeline over `domain`.
    pub fn build(domain: Domain, config: AdvisorConfig) -> Result<Advisor, AdvisorError> {
        let meter = CandidateMeter::new(&domain, &config)?;

        // 1–2. Generate, materialize and meter every candidate.
        let measured = meter.measure_all(candidate_cuboids(&domain, &config))?;

        // 3–4. Meter the workload from the built views.
        let charges = meter.workload_charges(&measured)?;

        // 5. Assemble the selection problem.
        let model = meter.cost_model(charges);
        let CandidateMeter {
            scale,
            queries,
            stats,
            ..
        } = meter;
        let problem =
            SelectionProblem::new(model, measured.iter().map(|m| m.charge.clone()).collect());

        Ok(Advisor {
            domain,
            config,
            scale,
            queries,
            measured,
            problem,
            meter_stats: stats.into_inner(),
        })
    }

    /// Streaming counterpart of [`Advisor::build`] + [`Advisor::solve`]:
    /// pulls candidate cuboids lazily from a benefit-ordered
    /// [`CandidateStream`], materializes and meters each one *on
    /// admission*, splices it into a dynamic [`IncrementalEvaluator`]
    /// (O(m), no rebuild), keeps the running selection locally repaired
    /// with bounded flip/swap local search, and retires (ε-)dominated
    /// candidates so the live pool stays small
    /// ([`StreamingConfig::retire_epsilon`]; 0 = strict dominance).
    /// With [`StreamingConfig::stop_marginal`] set, the stream also
    /// stops early once the marginal benefit per measurement stays
    /// below the threshold for [`StreamingConfig::stop_patience`]
    /// consecutive pulls — huge lattices never need a full drain.
    ///
    /// The search is *anytime* — after every pull the evaluator holds a
    /// feasibility-ranked answer — and at drain a greedy-restart
    /// multi-start pass guarantees the reported outcome is never worse
    /// than batch greedy over the same candidate pool (property-tested in
    /// `tests/streaming.rs`). Returns the advisor over the surviving
    /// pool (usable for sweeps, materialization, ledgers), the chosen
    /// outcome, and pull/retire accounting.
    pub fn solve_streaming(
        domain: Domain,
        config: AdvisorConfig,
        scenario: Scenario,
        streaming: StreamingConfig,
    ) -> Result<(Advisor, Outcome, StreamingReport), AdvisorError> {
        let meter = CandidateMeter::new(&domain, &config)?;
        // No view is built yet, so the workload scans the base table.
        let charges = meter.workload_charges(&[])?;
        let model = meter.cost_model(charges);
        let mut ev = IncrementalEvaluator::from_problem(SelectionProblem::new(model, Vec::new()));
        let baseline = ev.problem().baseline();
        let estimator = SizeEstimator::new(domain.base.num_rows() as u64);
        let mut stream = match streaming.strategy {
            StreamStrategy::HruGreedy(limit) => {
                let s = CandidateStream::hru(&domain.lattice, &estimator, &domain.workload);
                match limit {
                    Some(k) => s.with_limit(k),
                    None => s,
                }
            }
            StreamStrategy::WorkloadClosure => {
                CandidateStream::closure(&domain.lattice, &estimator, &domain.workload)
            }
        };

        let mut measured: Vec<MeasuredCandidate> = Vec::new();
        let mut current = baseline.clone();
        let mut pulled = 0usize;
        let mut retired = 0usize;
        let mut stalled = 0usize;
        let mut stopped_early = false;
        for cuboid in stream.by_ref() {
            pulled += 1;
            let before = current.clone();
            let mc = meter.measure(cuboid, &measured)?;
            let k = ev.add_candidate(mc.charge.clone());
            measured.push(mc);
            // Admission probe: select the newcomer iff it improves the
            // scenario ordering right now.
            ev.flip(k);
            let e = ev.snapshot();
            if scenario.better(&e, &current, &baseline) {
                current = e;
            } else {
                ev.unflip(k);
            }
            // Bounded repair keeps the running (anytime) answer locally
            // optimal as the pool evolves.
            if streaming.moves_per_pull > 0 {
                current =
                    local_search::improve(&mut ev, scenario, &baseline, streaming.moves_per_pull);
            }
            if streaming.retire_dominated {
                retired += retire_dominated(&mut ev, &mut measured, streaming.retire_epsilon);
            }
            // Pull-adaptive stopping: a measurement is "worth it" while
            // it keeps buying progress in the scenario's own ordering.
            if let Some(threshold) = streaming.stop_marginal {
                let gain = marginal_gain(scenario, &before, &current, &baseline);
                if gain < threshold {
                    stalled += 1;
                    if stalled >= streaming.stop_patience.max(1) {
                        stopped_early = true;
                        break;
                    }
                } else {
                    stalled = 0;
                }
            }
        }
        drop(stream);

        // Drain: polish the streamed answer, then multi-start against a
        // greedy fill from empty over the surviving pool; keep the better.
        let streamed = local_search::improve(&mut ev, scenario, &baseline, streaming.final_moves);
        for k in 0..ev.problem().len() {
            if ev.is_selected(k) {
                ev.unflip(k);
            }
        }
        local_search::greedy_fill(&mut ev, scenario, &baseline);
        let restart = local_search::improve(&mut ev, scenario, &baseline, streaming.final_moves);
        let best = if scenario.better(&restart, &streamed, &baseline) {
            restart
        } else {
            streamed
        };

        let problem = ev.into_problem();
        // Re-derive the baseline over the *final* problem so the outcome's
        // baseline selection has the same length as its evaluation's (as
        // the batch path guarantees); the cost/time values are identical
        // to the zero-candidate baseline used during the stream.
        let outcome = Outcome::new(best, problem.baseline(), scenario, SolverKind::LocalSearch);
        let CandidateMeter {
            scale,
            queries,
            stats,
            ..
        } = meter;
        let advisor = Advisor {
            domain,
            config,
            scale,
            queries,
            measured,
            problem,
            meter_stats: stats.into_inner(),
        };
        let report = StreamingReport {
            pulled,
            admitted: advisor.problem.len(),
            retired,
            stopped_early,
        };
        Ok((advisor, outcome, report))
    }

    /// The underlying selection problem.
    pub fn problem(&self) -> &SelectionProblem {
        &self.problem
    }

    /// The measured candidates, aligned with the problem's candidate order.
    pub fn candidates(&self) -> &[MeasuredCandidate] {
        &self.measured
    }

    /// The domain being advised.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// The engine passes this advisor's measurement made.
    pub fn meter_stats(&self) -> MeterStats {
        self.meter_stats
    }

    /// The engine-to-cloud scale factor in use.
    pub fn scale(&self) -> SimScale {
        self.scale
    }

    /// The executable workload queries (aligned with the cost workload).
    pub fn queries(&self) -> &[AggQuery] {
        &self.queries
    }

    /// Solves a scenario with the requested solver.
    pub fn solve(&self, scenario: Scenario, solver: SolverKind) -> Outcome {
        mv_obs::span!("advisor/solve");
        mv_select::solve(&self.problem, scenario, solver)
    }

    /// An [`mv_select::IncrementalEvaluator`] positioned at the empty
    /// selection over this advisor's problem — the O(m)-per-flip probe
    /// interface for interactive what-if exploration and custom search
    /// loops over the measured candidates.
    pub fn evaluator(&self) -> mv_select::IncrementalEvaluator<'_> {
        mv_select::IncrementalEvaluator::new(&self.problem)
    }

    /// The full (time, cost) solution space over the measured candidates,
    /// swept in parallel when the candidate count warrants it.
    pub fn solution_space(&self) -> Vec<mv_select::pareto::SpacePoint> {
        mv_select::pareto::solution_space(&self.problem)
    }

    /// Registers the outcome's selected views in a fresh catalog — the
    /// "materialize them in the cloud" step. Queries routed through the
    /// catalog then actually use the chosen views.
    pub fn materialize_selection(&self, outcome: &Outcome) -> Result<ViewCatalog, AdvisorError> {
        let catalog = ViewCatalog::new();
        for k in outcome.evaluation.selection.ones() {
            catalog
                .register(self.measured[k].view.clone())
                .map_err(AdvisorError::from)?;
        }
        Ok(catalog)
    }

    /// Builds the provider-side usage ledger for an outcome: what the bill
    /// would record if the selection ran for one period. Integration tests
    /// reconcile its invoice against the predicted cost breakdown.
    pub fn usage_ledger(&self, outcome: &Outcome) -> UsageLedger {
        let model = self.problem.model();
        let candidates = self.problem.candidates();
        let selection = &outcome.evaluation.selection;
        let mut ledger = UsageLedger::new();
        ledger.record_compute(
            "workload processing",
            &self.config.instance,
            self.config.nb_instances,
            model.processing_time_with_views(candidates, selection),
        );
        let maintenance = model.maintenance_time(candidates, selection);
        if maintenance > Hours::ZERO {
            ledger.record_compute(
                "view maintenance",
                &self.config.instance,
                self.config.nb_instances,
                maintenance,
            );
        }
        let materialization = model.materialization_time(candidates, selection);
        if materialization > Hours::ZERO {
            ledger.record_compute(
                "view materialization",
                &self.config.instance,
                self.config.nb_instances,
                materialization,
            );
        }
        ledger.record_storage(
            "dataset + views",
            model.storage_timeline(model.views_size(candidates, selection)),
        );
        ledger.record_transfer_out("query results", model.context().total_result_size());
        ledger
    }
}

/// The scenario-ordered improvement a pull bought: while either end is
/// infeasible, progress is measured as constraint-violation reduction;
/// once feasible, as objective reduction. Negative when the pull (plus
/// repair) made things worse under that measure — the stopping rule
/// treats that as a stalled pull too.
fn marginal_gain(
    scenario: Scenario,
    before: &mv_select::Evaluation,
    after: &mv_select::Evaluation,
    baseline: &mv_select::Evaluation,
) -> f64 {
    let (vb, va) = (scenario.violation(before), scenario.violation(after));
    if vb > 0.0 || va > 0.0 {
        vb - va
    } else {
        scenario.objective(before, baseline) - scenario.objective(after, baseline)
    }
}

/// Retires every deselected candidate (ε-)dominated by a live one,
/// keeping `measured` aligned with the evaluator's candidate order
/// (mirrored `swap_remove`s). With `epsilon == 0` this is strict Pareto
/// dominance: any selection using a dominated view maps to one using
/// its dominator that is never slower, never costlier and never
/// infeasible-when-the-original-was-feasible, so retirement cannot push
/// the reachable optimum up. Positive `epsilon` additionally collapses
/// near-duplicates (Aouiche et al.-style pruning) at the cost of a
/// bounded optimum regression. Returns how many were retired.
fn retire_dominated(
    ev: &mut IncrementalEvaluator<'static>,
    measured: &mut Vec<MeasuredCandidate>,
    epsilon: f64,
) -> usize {
    let mut removed = 0;
    // One descending pass suffices: removing index j swap-moves only the
    // (already-checked) last index down, and strict dominance is
    // transitive, so anything dominated by a victim is also dominated by
    // the victim's own surviving dominator — no rescan needed. O(n²·m)
    // total instead of O(n³·m) restart-per-removal. (ε-dominance is not
    // transitive; a single pass may then retire fewer than a fixpoint
    // would, which only errs on the safe side.)
    let mut j = ev.problem().len();
    while j > 0 {
        j -= 1;
        if ev.is_selected(j) {
            continue;
        }
        let candidates = ev.problem().candidates();
        if (0..candidates.len())
            .any(|i| i != j && dominates_within(&candidates[i], &candidates[j], epsilon))
        {
            ev.remove_candidate(j);
            measured.swap_remove(j);
            removed += 1;
        }
    }
    removed
}

/// (ε-)Pareto dominance of view charges: `a` ε-dominates `b` when, with
/// slack factor `r = 1 + epsilon`, `a` answers every query `b` answers
/// in at most `r×` the time, costs at most `r×` as much to
/// store/maintain/build, and is *strictly* better somewhere in the
/// unrelaxed comparison. At `epsilon == 0` this is exactly strict
/// Pareto dominance: exact duplicates dominate in neither direction, so
/// ties are never retired. (With `epsilon > 0`, two near-duplicates can
/// ε-dominate each other; retirement order then decides which of the
/// cluster survives — the clustering-based pruning rationale of Aouiche
/// et al.)
fn dominates_within(a: &ViewCharge, b: &ViewCharge, epsilon: f64) -> bool {
    debug_assert!(epsilon >= 0.0, "dominance slack must be non-negative");
    let r = 1.0 + epsilon;
    if a.size.value() > b.size.value() * r
        || a.maintenance.value() > b.maintenance.value() * r
        || a.materialization.value() > b.materialization.value() * r
    {
        return false;
    }
    let mut strict =
        a.size < b.size || a.maintenance < b.maintenance || a.materialization < b.materialization;
    // Merge-join the two sparse profiles (both ascending by query id):
    // a query answered only by `a` is a strict win, only by `b` kills
    // the dominance, answered by both compares under the slack factor.
    let (aq, at) = (a.profile.query_ids(), a.profile.times());
    let (bq, bt) = (b.profile.query_ids(), b.profile.times());
    let (mut i, mut j) = (0, 0);
    while i < aq.len() || j < bq.len() {
        match (aq.get(i), bq.get(j)) {
            (Some(qa), Some(qb)) if qa == qb => {
                if at[i].value() > bt[j].value() * r {
                    return false;
                }
                if at[i] < bt[j] {
                    strict = true;
                }
                i += 1;
                j += 1;
            }
            (Some(qa), Some(qb)) if qa < qb => {
                strict = true;
                i += 1;
            }
            (Some(_), None) => {
                strict = true;
                i += 1;
            }
            _ => return false,
        }
    }
    strict
}

/// The candidate cuboids `config.candidates` generates over `domain`.
fn candidate_cuboids(domain: &Domain, config: &AdvisorConfig) -> Vec<Cuboid> {
    match config.candidates {
        CandidateStrategy::FullLattice => candidates::full_lattice(&domain.lattice),
        CandidateStrategy::WorkloadClosure => {
            candidates::workload_closure(&domain.lattice, &domain.workload)
        }
        CandidateStrategy::HruGreedy(k) => {
            let estimator = SizeEstimator::new(domain.base.num_rows() as u64);
            candidates::hru_greedy(&domain.lattice, &estimator, &domain.workload, k)
        }
    }
}

/// A monthly insert batch for maintenance metering: `fraction` of the base
/// rows, landing in the month after the dataset's range (sales domain) or
/// a replayed sample (other domains). `fraction == 0` disables maintenance.
pub(crate) fn monthly_delta(domain: &Domain, fraction: f64) -> Option<Table> {
    if fraction <= 0.0 {
        return None;
    }
    let rows = ((domain.base.num_rows() as f64 * fraction) as usize).max(1);
    if domain.name == "sales" {
        let cfg = mv_engine::SalesConfig::default();
        Some(mv_engine::datagen::generate_delta(&cfg, rows, 2011, 1))
    } else {
        // Generic fallback: replay a sample of existing rows as the delta
        // (aggregation-wise equivalent to new inserts in the same domains).
        let mut delta = Table::empty(domain.base.schema().clone());
        for r in 0..rows {
            let idx = (r * 37) % domain.base.num_rows();
            delta
                .push_row(&domain.base.row(idx))
                .expect("row from the same schema");
        }
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sales_domain;
    use mv_units::Money;

    fn small_advisor() -> Advisor {
        let domain = sales_domain(2_000, 3, 1.0, 42);
        Advisor::build(domain, AdvisorConfig::default()).unwrap()
    }

    #[test]
    fn builds_and_measures() {
        let a = small_advisor();
        // Full lattice minus base = 15 candidates.
        assert_eq!(a.candidates().len(), 15);
        assert_eq!(a.problem().len(), 15);
        // Base times are positive and queries metered.
        let ctx = a.problem().model().context();
        assert_eq!(ctx.workload.len(), 3);
        for q in &ctx.workload {
            assert!(q.base_time > Hours::ZERO);
            assert!(q.result_size > Gb::ZERO);
        }
        // Every candidate that covers a query answers it faster than base
        // (coarser views scan fewer bytes).
        for m in a.candidates() {
            for t in m.charge.profile.times() {
                assert!(*t > Hours::ZERO);
            }
        }
    }

    #[test]
    fn views_make_things_faster() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::budget(Money::from_dollars(1_000)),
            SolverKind::Greedy,
        );
        assert!(o.feasible());
        assert!(o.evaluation.time < o.baseline.time);
        assert!(o.time_improvement() > 0.5, "{}", o.time_improvement());
    }

    #[test]
    fn materialized_selection_serves_queries() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::budget(Money::from_dollars(1_000)),
            SolverKind::Greedy,
        );
        let catalog = a.materialize_selection(&o).unwrap();
        assert_eq!(catalog.len(), o.evaluation.num_selected());
        // Each workload query answered through the catalog matches base.
        for q in a.queries() {
            let (via_catalog, _, _) = catalog.execute(q, &a.domain().base).unwrap();
            let (direct, _) = q.execute(&a.domain().base).unwrap();
            assert_eq!(via_catalog.to_sorted_rows(), direct.to_sorted_rows());
        }
    }

    #[test]
    fn invoice_reconciles_with_prediction() {
        let a = small_advisor();
        let o = a.solve(
            Scenario::tradeoff_normalized(0.5),
            SolverKind::PaperKnapsack,
        );
        let invoice = a.usage_ledger(&o).invoice(&a.config().pricing).unwrap();
        assert_eq!(invoice.total(), o.evaluation.cost());
        assert_eq!(invoice.compute, o.evaluation.breakdown.compute());
        assert_eq!(invoice.storage, o.evaluation.breakdown.storage);
        assert_eq!(invoice.transfer, o.evaluation.breakdown.transfer);
    }

    #[test]
    fn candidate_strategies_shrink_the_problem() {
        let domain = sales_domain(1_000, 3, 1.0, 42);
        let closure = Advisor::build(
            domain.clone(),
            AdvisorConfig {
                candidates: CandidateStrategy::WorkloadClosure,
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        assert!(closure.problem().len() < 15);
        let hru = Advisor::build(
            domain,
            AdvisorConfig {
                candidates: CandidateStrategy::HruGreedy(4),
                ..AdvisorConfig::default()
            },
        )
        .unwrap();
        assert!(hru.problem().len() <= 4);
    }

    #[test]
    fn streaming_solve_reports_and_reproduces() {
        let domain = sales_domain(1_200, 4, 2.0, 42);
        let scenario = Scenario::tradeoff_normalized(0.5);
        let (advisor, outcome, report) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig::default(),
        )
        .unwrap();
        assert!(report.pulled > 0);
        assert_eq!(report.admitted + report.retired, report.pulled);
        assert_eq!(report.admitted, advisor.problem().len());
        assert_eq!(advisor.candidates().len(), advisor.problem().len());
        // measured stays aligned with the problem's candidate order
        // through retirement swap-removes.
        for (m, c) in advisor
            .candidates()
            .iter()
            .zip(advisor.problem().candidates())
        {
            assert_eq!(m.charge, *c);
        }
        // The outcome reproduces by full evaluation on the surviving pool,
        // and its baseline is the final problem's baseline (same selection
        // length as the evaluation, like the batch path).
        assert_eq!(
            outcome.evaluation,
            advisor.problem().evaluate(&outcome.evaluation.selection)
        );
        assert_eq!(outcome.baseline, advisor.problem().baseline());
        assert_eq!(outcome.solver, SolverKind::LocalSearch);
        assert!(outcome.evaluation.time < outcome.baseline.time);
        // The streamed advisor is a full advisor: its selection
        // materializes and serves queries.
        let catalog = advisor.materialize_selection(&outcome).unwrap();
        assert_eq!(catalog.len(), outcome.evaluation.num_selected());
    }

    #[test]
    fn streaming_with_pull_budget_is_anytime() {
        let domain = sales_domain(800, 3, 1.0, 7);
        let scenario = Scenario::budget(Money::from_dollars(1_000));
        let (advisor, outcome, report) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig {
                strategy: StreamStrategy::HruGreedy(Some(2)),
                ..StreamingConfig::default()
            },
        )
        .unwrap();
        // The pull budget caps measurement work, yet a usable (feasible,
        // improving) answer still comes back.
        assert!(report.pulled <= 2);
        assert!(advisor.problem().len() <= 2);
        assert!(outcome.feasible());
        assert!(outcome.evaluation.time < outcome.baseline.time);
    }

    #[test]
    fn dominance_is_strict_and_directional() {
        let a = ViewCharge::new("a", Gb::new(1.0), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.01));
        // Bigger, slower, answers nothing extra: dominated.
        let b = ViewCharge::new("b", Gb::new(2.0), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.02));
        assert!(dominates_within(&a, &b, 0.0));
        assert!(!dominates_within(&b, &a, 0.0));
        // Answering an extra query protects from domination.
        let c = ViewCharge::new("c", Gb::new(5.0), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.02))
            .answers(1, Hours::new(0.5));
        assert!(!dominates_within(&a, &c, 0.0));
        // Exact duplicates dominate in neither direction (never retired).
        assert!(!dominates_within(&a, &a.clone(), 0.0));
    }

    #[test]
    fn epsilon_dominance_collapses_near_duplicates() {
        // `a` is marginally larger than `d` (within 5%) but strictly
        // faster: strict dominance keeps both, ε-dominance retires `d`.
        let a = ViewCharge::new("a", Gb::new(1.02), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.01));
        let d = ViewCharge::new("d", Gb::new(1.0), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.02));
        assert!(!dominates_within(&a, &d, 0.0));
        assert!(dominates_within(&a, &d, 0.05));
        // The slack is bounded: a 30% size premium still protects `d`.
        let fat = ViewCharge::new("fat", Gb::new(1.3), Hours::new(0.1), Hours::new(0.1), 2)
            .answers(0, Hours::new(0.01));
        assert!(!dominates_within(&fat, &d, 0.05));
        // Exact duplicates still dominate in neither direction: the
        // strict-somewhere requirement is unrelaxed.
        assert!(!dominates_within(&d, &d.clone(), 0.5));
        // The slack never excuses being slower: `d` answers Q0 in 2×
        // `a`'s time, far outside 5%.
        assert!(!dominates_within(&d, &a, 0.05));
    }

    #[test]
    fn epsilon_zero_streaming_matches_strict_default() {
        // The ε knob's default must preserve the pre-ε behavior bit for
        // bit: an explicit 0.0 is the same solve as the default config.
        let domain = sales_domain(900, 4, 2.0, 13);
        let scenario = Scenario::tradeoff_normalized(0.5);
        let (a1, o1, r1) = Advisor::solve_streaming(
            domain.clone(),
            AdvisorConfig::default(),
            scenario,
            StreamingConfig::default(),
        )
        .unwrap();
        let (a2, o2, r2) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig {
                retire_epsilon: 0.0,
                ..StreamingConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(o1.evaluation, o2.evaluation);
        assert_eq!(a1.problem().len(), a2.problem().len());
    }

    #[test]
    fn generous_epsilon_retires_at_least_as_many() {
        let domain = sales_domain(900, 4, 2.0, 13);
        let scenario = Scenario::tradeoff_normalized(0.5);
        let strict = Advisor::solve_streaming(
            domain.clone(),
            AdvisorConfig::default(),
            scenario,
            StreamingConfig::default(),
        )
        .unwrap()
        .2;
        let eps = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig {
                retire_epsilon: 0.25,
                ..StreamingConfig::default()
            },
        )
        .unwrap()
        .2;
        assert!(eps.retired >= strict.retired);
        assert_eq!(eps.admitted + eps.retired, eps.pulled);
    }

    #[test]
    fn pull_adaptive_stopping_cuts_the_stream() {
        let domain = sales_domain(1_000, 4, 2.0, 42);
        let scenario = Scenario::tradeoff_normalized(0.5);
        // Reference: full drain.
        let (_, _, full) = Advisor::solve_streaming(
            domain.clone(),
            AdvisorConfig::default(),
            scenario,
            StreamingConfig::default(),
        )
        .unwrap();
        assert!(!full.stopped_early);
        // An impossible per-pull bar stops as soon as patience runs out.
        let (advisor, outcome, cut) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig {
                stop_marginal: Some(f64::INFINITY),
                stop_patience: 2,
                ..StreamingConfig::default()
            },
        )
        .unwrap();
        assert!(cut.stopped_early);
        assert_eq!(cut.pulled, 2, "patience bounds the pulls");
        assert!(cut.pulled < full.pulled);
        assert_eq!(cut.admitted + cut.retired, cut.pulled);
        // The truncated solve still returns a coherent, usable advisor.
        assert_eq!(advisor.problem().len(), cut.admitted);
        assert_eq!(
            outcome.evaluation,
            advisor.problem().evaluate(&outcome.evaluation.selection)
        );
    }

    #[test]
    fn lenient_threshold_drains_like_default() {
        // Every useful pull clears a tiny threshold, so the stream
        // drains and the outcome matches the unstopped solve.
        let domain = sales_domain(900, 3, 5.0, 7);
        let scenario = Scenario::budget(Money::from_dollars(1_000));
        let (_, o_full, r_full) = Advisor::solve_streaming(
            domain.clone(),
            AdvisorConfig::default(),
            scenario,
            StreamingConfig::default(),
        )
        .unwrap();
        let (_, o_stop, r_stop) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            scenario,
            StreamingConfig {
                stop_marginal: Some(1e-12),
                stop_patience: r_full.pulled,
                ..StreamingConfig::default()
            },
        )
        .unwrap();
        assert!(!r_stop.stopped_early);
        assert_eq!(r_stop.pulled, r_full.pulled);
        assert_eq!(o_stop.evaluation, o_full.evaluation);
    }

    #[test]
    fn roll_ups_leave_two_base_scans() {
        // The two finest non-base cuboids have no built ancestor; every
        // other candidate and all eight queries roll up from views.
        let a =
            Advisor::build(sales_domain(400_000, 8, 1.0, 42), AdvisorConfig::default()).unwrap();
        let probes = a
            .candidates()
            .iter()
            .map(|m| m.charge.profile.query_ids().len() as u64)
            .sum();
        assert_eq!(
            a.meter_stats(),
            MeterStats {
                base_scans: 2,
                rollups: 13 + 8,
                probes,
            }
        );
        // Q9 groups by the base cuboid, which no candidate answers.
        let a = Advisor::build(sales_domain(2_000, 10, 1.0, 42), AdvisorConfig::default()).unwrap();
        assert_eq!(a.meter_stats().base_scans, 3);
        assert_eq!(a.meter_stats().rollups, 13 + 9);
    }

    #[test]
    fn streaming_meters_the_workload_on_the_base() {
        // The workload is metered before any view exists; each pulled
        // candidate then rolls up from the live pool when it can.
        let domain = sales_domain(1_200, 4, 2.0, 42);
        let (advisor, _, report) = Advisor::solve_streaming(
            domain,
            AdvisorConfig::default(),
            Scenario::tradeoff_normalized(0.5),
            StreamingConfig::default(),
        )
        .unwrap();
        let stats = advisor.meter_stats();
        // Four workload scans, then at least the first pull, which has
        // no pool to roll up from.
        assert!(stats.base_scans > 4);
        assert_eq!(stats.base_scans + stats.rollups, 4 + report.pulled as u64);
    }

    #[test]
    fn zero_instances_is_a_typed_error() {
        // Reachable from `mvcloud-cli advise --instances 0`: must surface
        // as an error, not divide metered work by zero.
        let domain = sales_domain(100, 3, 1.0, 1);
        let err = Advisor::build(
            domain,
            AdvisorConfig {
                nb_instances: 0,
                ..AdvisorConfig::default()
            },
        );
        assert!(matches!(err, Err(AdvisorError::InvalidComputeUnits { .. })));
    }

    #[test]
    fn empty_dataset_is_a_typed_error() {
        // Reachable from `--rows 0`: must not trip the SimScale assert.
        let domain = sales_domain(0, 3, 1.0, 1);
        let err = Advisor::build(domain, AdvisorConfig::default());
        assert!(matches!(err, Err(AdvisorError::EmptyDataset)));
    }

    #[test]
    fn unknown_instance_rejected() {
        let domain = sales_domain(100, 3, 1.0, 1);
        let err = Advisor::build(
            domain,
            AdvisorConfig {
                instance: "mainframe".to_string(),
                ..AdvisorConfig::default()
            },
        );
        assert!(matches!(err, Err(AdvisorError::UnknownInstance { .. })));
    }
}
