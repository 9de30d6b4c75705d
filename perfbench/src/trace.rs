//! Traced runs: benchmark-side spans and `mv_obs` deltas.
//!
//! Each span wraps one call into a layer's public API from the
//! benchmark's own code: name, start, end, the span that caused it, and
//! the op it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends; nothing is traced inside the program
//! beyond what `mv_obs` already records, which traced ops read as
//! per-op snapshot deltas.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mvcloud::obs::{self, Snapshot};

use crate::measure::{Report, RunConfig};

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of op `op` under the innermost open span.
    pub fn begin(&mut self, op: u64, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span and returns its result and length in ms.
    pub fn span<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(op, name);
        let r = f();
        (r, self.end(id))
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Writes the traced run's spans next to the run's other scratch files.
pub fn write_trace(cfg: &RunConfig, workload: &str, tracer: &Tracer, rep: &mut Report) {
    let path = cfg
        .work_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    match tracer.write(&path) {
        Ok(()) => rep
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => rep.notes.push(format!("could not write spans: {e}")),
    }
}

/// Turns telemetry on and captures the registry before a traced op.
pub fn obs_begin() -> Snapshot {
    obs::enable();
    Snapshot::capture()
}

/// Captures the registry's movement since `base` and turns telemetry
/// off again.
pub fn obs_end(base: &Snapshot) -> Snapshot {
    let delta = Snapshot::capture().since(base);
    obs::disable();
    delta
}

/// Total milliseconds spent in every span whose leaf name is `leaf`,
/// whatever it nested under (summed across threads).
pub fn span_ms(snap: &Snapshot, leaf: &str) -> f64 {
    let suffix = format!("{}{leaf}", obs::span::PATH_SEP);
    snap.spans
        .iter()
        .filter(|s| s.path == leaf || s.path.ends_with(&suffix))
        .map(|s| s.total_ns as f64 / 1e6)
        .sum()
}

/// Per-op sums of the `select` layer's telemetry over traced ops.
#[derive(Default)]
pub struct SelectLayer {
    ops: f64,
    tree_node_ms: f64,
    tree_node_solves: f64,
    chain_epoch_ms: f64,
    evaluator_builds: f64,
    retargets: f64,
    forks: f64,
    flips: f64,
    probes: f64,
    moves: f64,
}

impl SelectLayer {
    /// Adds one traced op's telemetry delta.
    pub fn add(&mut self, d: &Snapshot) {
        self.ops += 1.0;
        self.tree_node_ms += span_ms(d, "solve_tree/node");
        self.tree_node_solves += d.counter("tree/node_solves") as f64;
        self.chain_epoch_ms += span_ms(d, "chain/epoch");
        self.evaluator_builds += d.counter("evaluator/build") as f64;
        self.retargets += d.counter("evaluator/retarget") as f64;
        self.forks += d.counter("evaluator/fork") as f64;
        self.flips += (d.counter("evaluator/flip") + d.counter("evaluator/unflip")) as f64;
        self.probes += d.counter("search/probes") as f64;
        self.moves += (d.counter("search/flip_moves")
            + d.counter("search/swap_moves")
            + d.counter("search/place_moves")) as f64;
    }

    /// Reports the per-op means.
    pub fn report(&self, rep: &mut Report) {
        let n = self.ops.max(1.0);
        rep.layer("select.tree_node_ms", self.tree_node_ms / n, "ms");
        rep.layer(
            "select.tree_node_solves",
            self.tree_node_solves / n,
            "count",
        );
        rep.layer("select.chain_epoch_ms", self.chain_epoch_ms / n, "ms");
        rep.layer(
            "select.evaluator_builds",
            self.evaluator_builds / n,
            "count",
        );
        rep.layer("select.retargets", self.retargets / n, "count");
        rep.layer("select.forks", self.forks / n, "count");
        rep.layer("select.flips", self.flips / n, "count");
        rep.layer("select.probes", self.probes / n, "count");
        let yield_ = if self.probes > 0.0 {
            self.moves / self.probes
        } else {
            0.0
        };
        rep.layer("select.move_yield", yield_, "ratio");
    }
}
