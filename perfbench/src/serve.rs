//! `serve_mixed`: the resident advisor service under one closed-loop
//! client.
//!
//! Set-up prices synthetic catalogs (200 candidates, 2 000 queries,
//! mean coverage 12), one per repeat, and spills each outside any
//! timing; the timed set-up is `AdvisorService::open` on the spill in a
//! fresh process, a restarted service's cold start. The first repeat
//! runs before the timed phase and the rest are spread over it. The
//! service on the first catalog takes one client's seeded mix of what-if toggles,
//! 32-event ingest batches, explicit re-solves and spills. No engine
//! work happens here.
//!
//! The event stream moves its traffic between hot sets of queries in
//! episodes that grow geometrically, so drift against the cumulative
//! counts keeps crossing the re-solve threshold through the whole run.
//! A known share of batches re-delivers events already sent and a
//! known share of events arrives late, behind the high-water mark.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use mvcloud::catalog::CandidateCatalog;
use mvcloud::json::{self, Json};
use mvcloud::lattice::ScaleShape;
use mvcloud::{scale_problem, AdvisorConfig, AdvisorService, QueryEvent, Scenario, ServiceConfig};

use crate::measure::{
    ms_since, op_seed, peak_rss_mb, probe, process_cpu_s, timed, CpuWall, Phase, Report, Rng,
    RunConfig, Samples,
};
use crate::trace::{obs_begin, obs_end, span_ms, write_trace, SelectLayer, Tracer};

const CANDIDATES: usize = 200;
const QUERIES: usize = 2_000;
const MEAN_COVERAGE: usize = 12;
/// Set-up repeats per run, each on its own catalog and process.
const SETUP_REPEATS: usize = 21;
const ALPHA: f64 = 0.5;

/// Op mix: an explicit re-solve (followed by a spill) when a traffic
/// episode begins, as an operator re-plans for a new phase, and a spill
/// every `SPILL_EVERY` ops; of the other ops a seeded `P_INGEST` share
/// are ingest batches and the rest what-ifs. Drift then re-solves once
/// the new episode has moved enough mass, so every episode carries one
/// re-solve of each kind. Tuned so that no op type takes half of the
/// run's busy time: a what-if costs about as much as a quiet ingest.
const SPILL_EVERY: u64 = 64;
const P_INGEST: f64 = 0.4;

const BATCH: usize = 32;
/// Share of batches whose first half re-delivers the previous batch's
/// second half.
const P_REDELIVER: f64 = 0.05;
/// Share of new events sent late, behind the high-water mark.
const P_LATE: f64 = 1.0 / 64.0;
/// Hot-set size and the share of an episode's traffic it receives.
const HOT: usize = 40;
const P_HOT: f64 = 0.9;
/// First episode length in events, and its growth per episode.
const EPISODE0: f64 = 1_024.0;
const EPISODE_GROWTH: f64 = 1.5;
/// Events the service has seen before the timed phase, ingested as one
/// untimed batch, so timed re-solves come from episodes rather than
/// from a near-empty history.
const HISTORY: usize = 65_536;
/// Reopen-from-spill checks per run (each costs one service open).
const REOPEN_CHECKS: u64 = 3;

/// The seeded event stream and what it has sent.
struct Stream {
    rng: Rng,
    names: Vec<String>,
    timestamp: u64,
    query_id: u64,
    hot: Vec<usize>,
    episode_len: f64,
    episode_left: f64,
    prev: Vec<QueryEvent>,
    /// Episodes begun so far.
    episodes: u64,
    sent: u64,
    sent_duplicate: u64,
    sent_late: u64,
}

impl Stream {
    fn new(seed: u64, names: Vec<String>) -> Stream {
        Stream {
            rng: Rng::new(seed),
            names,
            timestamp: 0,
            query_id: 0,
            hot: Vec::new(),
            episode_len: EPISODE0 / EPISODE_GROWTH,
            episode_left: 0.0,
            prev: Vec::new(),
            episodes: 0,
            sent: 0,
            sent_duplicate: 0,
            sent_late: 0,
        }
    }

    fn event(&mut self) -> QueryEvent {
        if self.episode_left <= 0.0 {
            self.episodes += 1;
            self.episode_len *= EPISODE_GROWTH;
            self.episode_left = self.episode_len;
            self.hot = (0..HOT).map(|_| self.rng.below(self.names.len())).collect();
        }
        self.episode_left -= 1.0;
        let q = if self.rng.unit() < P_HOT {
            self.hot[self.rng.below(HOT)]
        } else {
            self.rng.below(self.names.len())
        };
        self.query_id += 1;
        let timestamp = if self.timestamp > 8 && self.rng.unit() < P_LATE {
            self.sent_late += 1;
            self.timestamp - 1 - self.rng.below(8) as u64
        } else {
            self.timestamp += 1;
            self.timestamp
        };
        QueryEvent {
            timestamp,
            query_id: self.query_id,
            query: self.names[q].clone(),
        }
    }

    /// `n` new events, with no re-delivery.
    fn history(&mut self, n: usize) -> Vec<QueryEvent> {
        let events: Vec<QueryEvent> = (0..n).map(|_| self.event()).collect();
        self.sent += n as u64;
        events
    }

    fn batch(&mut self) -> Vec<QueryEvent> {
        let mut batch = Vec::with_capacity(BATCH);
        if !self.prev.is_empty() && self.rng.unit() < P_REDELIVER {
            batch.extend_from_slice(&self.prev[BATCH / 2..]);
            self.sent_duplicate += (BATCH / 2) as u64;
        }
        while batch.len() < BATCH {
            let e = self.event();
            batch.push(e);
        }
        self.sent += batch.len() as u64;
        self.prev = batch.clone();
        batch
    }

    /// Events that must be accepted: every new, in-order one.
    fn expected_accepted(&self) -> u64 {
        self.sent - self.sent_duplicate - self.sent_late
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    WhatIf,
    Ingest,
    Resolve,
    Spill,
}

/// Sums of the `catalog` / `json` / `service` replicas over traced ops.
#[derive(Default)]
struct ServiceLayer {
    forks: Samples,
    drifts: Samples,
    renders: Samples,
    writes: Samples,
    resolve_span_ms: f64,
    resolve_spans: f64,
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut rep = Report::default();
    let advisor_config = AdvisorConfig::default();
    let service_config = service_config();
    let spill_path = cfg
        .work_dir
        .join(format!("serve-seed{}.catalog.json", cfg.seed));
    let replica_path = cfg
        .work_dir
        .join(format!("serve-seed{}.replica.json", cfg.seed));
    let probe_path = cfg
        .work_dir
        .join(format!("serve-seed{}.probe.json", cfg.seed));

    // Set-up, several times, each on another seeded catalog and in
    // another fresh process: the first before the timed phase (its
    // catalog serves the run), the rest spread over the phase.
    let mut setup = SetupTimes::default();
    let names: Vec<String> = match setup_repeat(cfg.seed, 0, &spill_path) {
        Ok((catalog, t)) => {
            setup.push(&t);
            catalog.workload.iter().map(|q| q.name.clone()).collect()
        }
        Err(e) => {
            rep.check(0, vec![e]);
            return rep;
        }
    };
    let mut svc = match AdvisorService::open(&spill_path, advisor_config.clone(), service_config) {
        Ok(svc) => svc,
        Err(e) => {
            rep.check(0, vec![format!("AdvisorService::open failed: {e}")]);
            return rep;
        }
    };
    let catalog_bytes = std::fs::metadata(&spill_path).map_or(0, |m| m.len());

    let mut rng = Rng::new(cfg.seed ^ 0x5e77_e000);
    let mut stream = Stream::new(cfg.seed ^ 0x0e7e_2700, names);
    let history = stream.history(HISTORY);
    match svc.ingest(&history) {
        Ok(o) if o.accepted + o.replayed == HISTORY as u64 => {}
        Ok(o) => rep.check(
            0,
            vec![format!("history counted {} + {}", o.accepted, o.replayed)],
        ),
        Err(e) => rep.check(0, vec![format!("history ingest failed: {e}")]),
    }
    drop(history);
    let mut probed = Toggles {
        plan: 0,
        seen: HashSet::new(),
    };
    let mut whatif = Samples::default();
    let mut ingest = Samples::default();
    let mut resolve = Samples::default();
    let mut spill = Samples::default();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut busy = [0.0f64; 4];
    let mut cpu = CpuWall::default();
    let mut select = SelectLayer::default();
    let mut layer = ServiceLayer::default();
    let mut tracer = Tracer::new();
    let mut ingested_since_spill = false;
    let mut ingested_since_resolve = false;
    let mut spill_after_resolve = false;
    let mut reopen_checks = 0u64;
    let mut reopen_due = false;
    let mut planned_episode = stream.episodes;
    let mut per_kind = [0u64; 4];
    // Drift re-solves in the first and the second half of the run.
    let mut drift_resolves = [0u64; 2];

    let mut phase = Phase::start(cfg.seconds);
    let mut op = 0u64;
    loop {
        while phase.due(setup.open.len(), SETUP_REPEATS) {
            let i = setup.open.len() as u64;
            match phase.pause(|| setup_repeat(cfg.seed, i, &probe_path)) {
                Ok((_, t)) => setup.push(&t[..]),
                Err(e) => {
                    rep.check(op, vec![e]);
                    return rep;
                }
            }
        }
        if !phase.running() {
            break;
        }
        let mut kind = if spill_after_resolve {
            Kind::Spill
        } else if stream.episodes != planned_episode {
            Kind::Resolve
        } else if op % SPILL_EVERY == SPILL_EVERY / 2 {
            Kind::Spill
        } else if rng.unit() < P_INGEST {
            Kind::Ingest
        } else {
            Kind::WhatIf
        };
        // No op repeats an earlier op's input: a spill or re-solve
        // needs new traffic since the last one.
        if (kind == Kind::Resolve && !ingested_since_resolve)
            || (kind == Kind::Spill && !ingested_since_spill && !spill_after_resolve)
        {
            kind = Kind::Ingest;
        }
        // Traced ops alternate within each kind, so the traced and the
        // untraced half carry the same mix.
        let trace = cfg.traced(per_kind[kind as usize]);
        per_kind[kind as usize] += 1;
        let mut problems = Vec::new();
        let base = trace.then(obs_begin);
        let span = trace.then(|| tracer.begin(op, kind_name(kind)));
        let cpu_before = trace.then(process_cpu_s);
        // `class` is what the op turned out to be: an ingest that
        // re-planned counts as a re-solve.
        let (ms, class) = match kind {
            Kind::WhatIf => {
                let toggles = probed.draw(&mut rng, svc.resolves());
                let before = svc.plan().clone();
                let t = Instant::now();
                let eval = svc.what_if_toggle(&toggles);
                let ms = ms_since(t);
                if svc.plan() != &before {
                    problems.push("what-if changed the resident plan".into());
                }
                for &k in &toggles {
                    if eval.selection.contains(k) == before.selection.contains(k) {
                        problems.push(format!("what-if did not toggle candidate {k}"));
                    }
                }
                (ms, Kind::WhatIf)
            }
            Kind::Ingest => {
                let batch = stream.batch();
                let t = Instant::now();
                let outcome = svc.ingest(&batch);
                let ms = ms_since(t);
                ingested_since_spill = true;
                ingested_since_resolve = true;
                match outcome {
                    Ok(o) => {
                        if o.accepted + o.replayed != batch.len() as u64 {
                            problems.push(format!(
                                "batch of {} counted {} accepted + {} replayed",
                                batch.len(),
                                o.accepted,
                                o.replayed
                            ));
                        }
                        if o.resolved {
                            ingested_since_resolve = false;
                            drift_resolves[usize::from(phase.elapsed() * 2 >= cfg.seconds)] += 1;
                            (ms, Kind::Resolve)
                        } else {
                            (ms, Kind::Ingest)
                        }
                    }
                    Err(e) => {
                        problems.push(format!("ingest failed: {e}"));
                        (ms, Kind::Ingest)
                    }
                }
            }
            Kind::Resolve => {
                let t = Instant::now();
                let res = svc.resolve().map(|_| ());
                let ms = ms_since(t);
                if let Err(e) = res {
                    problems.push(format!("resolve failed: {e}"));
                }
                ingested_since_resolve = false;
                planned_episode = stream.episodes;
                spill_after_resolve = true;
                (ms, Kind::Resolve)
            }
            Kind::Spill => {
                let t = Instant::now();
                let res = svc.spill(&spill_path);
                let ms = ms_since(t);
                if let Err(e) = res {
                    problems.push(format!("spill failed: {e}"));
                }
                ingested_since_spill = false;
                reopen_due = spill_after_resolve && reopen_checks < REOPEN_CHECKS;
                spill_after_resolve = false;
                (ms, Kind::Spill)
            }
        };
        busy[class as usize] += ms;
        if let (Some(base), Some(span), Some(cpu0)) = (base, span, cpu_before) {
            tracer.end(span);
            let d = obs_end(&base);
            select.add(&d);
            layer.resolve_span_ms += span_ms(&d, "service/resolve");
            layer.resolve_spans += d.span_count("service/resolve") as f64;
            cpu.add(process_cpu_s() - cpu0, ms / 1e3);
            traced.push(ms);
            let id = tracer.begin(op, "service.replica");
            match class {
                Kind::WhatIf => layer.forks.push(timed(|| svc.what_if(|_| ())).1),
                Kind::Ingest => layer.drifts.push(timed(|| svc.drift()).1),
                Kind::Spill => {
                    let (doc, ms) =
                        timed(|| format!("{}\n", svc.catalog().to_json().render_pretty()));
                    layer.renders.push(ms);
                    let (res, ms) = timed(|| json::write_atomic(&replica_path, &doc));
                    res.expect("scratch directory is writable");
                    layer.writes.push(ms);
                }
                Kind::Resolve => {}
            }
            tracer.end(id);
        } else {
            match class {
                Kind::WhatIf => whatif.push(ms),
                Kind::Ingest => ingest.push(ms),
                Kind::Resolve => resolve.push(ms),
                Kind::Spill => spill.push(ms),
            }
            plain.push(ms);
        }
        // After the op's telemetry closed: the reopen costs a solve.
        if std::mem::take(&mut reopen_due) {
            reopen_checks += 1;
            problems.extend(check_reopen(
                &svc,
                &spill_path,
                &advisor_config,
                service_config,
            ));
        }
        rep.check(op, problems);
        op += 1;
    }
    // Throughput counts the client's whole timed phase: the ops, their
    // inputs' generation and their checks.
    let (timed_ops, wall_s) = (op, phase.elapsed().as_secs_f64());

    // End of run: the stream's bookkeeping against the service's.
    let mut problems = Vec::new();
    let (accepted, replayed) = svc.ingest_totals();
    if accepted + replayed != stream.sent {
        problems.push(format!(
            "service counted {accepted} accepted + {replayed} replayed of {} sent",
            stream.sent
        ));
    }
    if accepted != stream.expected_accepted() {
        problems.push(format!(
            "service accepted {accepted} events, expected {}",
            stream.expected_accepted()
        ));
    }
    if reopen_checks == 0 {
        // Too short a run to reach a checked resolve: check once here.
        if let Err(e) = svc.resolve() {
            problems.push(format!("resolve failed: {e}"));
        }
        if let Err(e) = svc.spill(&spill_path) {
            problems.push(format!("spill failed: {e}"));
        }
        problems.extend(check_reopen(
            &svc,
            &spill_path,
            &advisor_config,
            service_config,
        ));
    }
    rep.check(op, problems);
    op += 1;

    let resolves = svc.resolves();
    rep.e2e("setup_s", setup.open.median() / 1e3, "s");
    rep.e2e("ops_per_s", timed_ops as f64 / wall_s, "1/s");
    rep.e2e("op_p50_ms", plain.median(), "ms");
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e2e("whatif_p50_ms", whatif.median(), "ms");
    rep.e2e("whatif_p99_ms", whatif.p99(), "ms");
    rep.e2e("ingest_p50_ms", ingest.median(), "ms");
    rep.e2e("ingest_p99_ms", ingest.p99(), "ms");
    rep.e2e("resolve_p50_ms", resolve.median(), "ms");
    rep.e2e("spill_p50_ms", spill.median(), "ms");
    let total: f64 = busy.iter().sum();
    rep.notes.push(format!(
        "serve_mixed: {op} ops ({} untraced: {} what-if, {} ingest, {} re-solving, {} spill); busy share what-if {:.1}% ingest {:.1}% resolve {:.1}% spill {:.1}%",
        plain.len(),
        whatif.len(),
        ingest.len(),
        resolve.len(),
        spill.len(),
        100.0 * busy[Kind::WhatIf as usize] / total,
        100.0 * busy[Kind::Ingest as usize] / total,
        100.0 * busy[Kind::Resolve as usize] / total,
        100.0 * busy[Kind::Spill as usize] / total,
    ));
    rep.notes.push(format!(
        "serve_mixed stream: {} events sent ({} re-delivered, {} late), {accepted} accepted, {replayed} replayed, {resolves} re-solves ({} + {} drift-triggered in the first + second half), {reopen_checks} reopen checks",
        stream.sent, stream.sent_duplicate, stream.sent_late, drift_resolves[0], drift_resolves[1]
    ));

    if cfg.trace {
        select.report(&mut rep);
        rep.layer("catalog.load_ms", setup.load.mean(), "ms");
        rep.layer("json.parse_ms", setup.parse.mean(), "ms");
        rep.layer("service.open_rest_ms", setup.open_rest.mean(), "ms");
        rep.layer("json.render_ms", layer.renders.mean(), "ms");
        rep.layer("json.write_atomic_ms", layer.writes.mean(), "ms");
        rep.layer("catalog.bytes", catalog_bytes as f64, "B");
        rep.layer("service.fork_ms", layer.forks.mean(), "ms");
        rep.layer("service.drift_ms", layer.drifts.mean(), "ms");
        rep.layer(
            "service.resolve_span_ms",
            layer.resolve_span_ms / layer.resolve_spans.max(1.0),
            "ms",
        );
        rep.layer("service.resolves", resolves as f64, "count");
        rep.layer(
            "service.resolves_per_1k_events",
            1e3 * resolves as f64 / accepted.max(1) as f64,
            "count",
        );
        rep.layer("service.events_replayed", replayed as f64, "count");
        rep.layer(
            "service.sent_duplicate",
            stream.sent_duplicate as f64,
            "count",
        );
        rep.layer("service.sent_late", stream.sent_late as f64, "count");
        rep.layer("proc.cpu_per_wall", cpu.ratio(), "ratio");
        rep.layer(
            "obs.overhead_pct",
            (traced.median() / plain.median() - 1.0) * 100.0,
            "%",
        );
        write_trace(cfg, "serve_mixed", &tracer, &mut rep);
    }
    let _ = std::fs::remove_file(&replica_path);
    let _ = std::fs::remove_file(&probe_path);
    rep
}

fn service_config() -> ServiceConfig {
    ServiceConfig::new(Scenario::tradeoff_normalized(ALPHA))
}

/// Set-up timings from the probe processes, in milliseconds.
#[derive(Default)]
struct SetupTimes {
    open: Samples,
    load: Samples,
    parse: Samples,
    /// Open minus load, per process: evaluator build plus first solve.
    open_rest: Samples,
}

impl SetupTimes {
    fn push(&mut self, t: &[f64]) {
        self.open.push(t[0]);
        self.load.push(t[1]);
        self.parse.push(t[2]);
        self.open_rest.push(t[0] - t[1]);
    }
}

/// Set-up repeat `i` of a run: prices the run's `i`-th synthetic
/// catalog and spills it to `path` (untimed), then opens the spill in a
/// fresh process, which also times a load and a parse of it. Returns
/// the catalog and the probe's open, load and parse times.
fn setup_repeat(seed: u64, i: u64, path: &Path) -> Result<(CandidateCatalog, Vec<f64>), String> {
    let problem = scale_problem(&ScaleShape {
        candidates: CANDIDATES,
        queries: QUERIES,
        mean_coverage: MEAN_COVERAGE,
        seed: op_seed(seed, i),
    });
    let catalog = CandidateCatalog::new(
        problem.model().context().workload.clone(),
        problem.candidates().to_vec(),
    );
    catalog
        .spill(path)
        .map_err(|e| format!("set-up spill failed: {e}"))?;
    match probe("serve_mixed", &path.to_string_lossy()) {
        Ok(t) if t.len() == 3 => Ok((catalog, t)),
        Ok(t) => Err(format!("set-up probe printed {t:?}")),
        Err(e) => Err(format!("set-up open failed: {e}")),
    }
}

/// The body of a set-up probe process: opens the service on the spill
/// at `path` as the workload does, then loads and parses the same
/// spill on their own, and returns the three wall times in
/// milliseconds. The open is timed first, so it runs cold.
pub fn setup_probe(path: &Path) -> Result<Vec<f64>, String> {
    let (svc, open_ms) =
        timed(|| AdvisorService::open(path, AdvisorConfig::default(), service_config()));
    svc.map_err(|e| e.to_string())?;
    let (catalog, load_ms) = timed(|| CandidateCatalog::load(path));
    catalog.map_err(|e| e.to_string())?;
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let (doc, parse_ms) = timed(|| Json::parse(&raw));
    doc.map_err(|e| e.to_string())?;
    Ok(vec![open_ms, load_ms, parse_ms])
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::WhatIf => "service.what_if_toggle",
        Kind::Ingest => "service.ingest",
        Kind::Resolve => "service.resolve",
        Kind::Spill => "service.spill",
    }
}

/// Draws 1–3 distinct candidates to toggle, never a set already probed
/// against the same resident plan.
struct Toggles {
    plan: u64,
    /// Probed sets since the plan last changed, packed a byte per index.
    seen: HashSet<u32>,
}

impl Toggles {
    fn draw(&mut self, rng: &mut Rng, plan: u64) -> Vec<usize> {
        const _: () = assert!(CANDIDATES <= 256, "toggle keys pack one byte per index");
        if plan != self.plan {
            self.plan = plan;
            self.seen.clear();
        }
        loop {
            let mut t: Vec<usize> = (0..1 + rng.below(3))
                .map(|_| rng.below(CANDIDATES))
                .collect();
            t.sort_unstable();
            t.dedup();
            let key = t.iter().fold(t.len() as u32, |k, &i| k << 8 | i as u32);
            if self.seen.insert(key) {
                return t;
            }
        }
    }
}

/// A service reopened from a spill taken right after a re-solve must
/// render the same plan report, byte for byte.
fn check_reopen(
    svc: &AdvisorService,
    path: &Path,
    advisor_config: &AdvisorConfig,
    service_config: ServiceConfig,
) -> Vec<String> {
    match AdvisorService::open(path, advisor_config.clone(), service_config) {
        Ok(reopened) if reopened.plan_report().render() == svc.plan_report().render() => vec![],
        Ok(_) => vec!["reopened service renders a different plan report".into()],
        Err(e) => vec![format!("reopen failed: {e}")],
    }
}
