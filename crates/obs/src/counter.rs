//! Monotonic counters: a fixed enum-indexed array of `AtomicU64`s.
//!
//! Increment is branch (one relaxed load) + `fetch_add` — no hashing,
//! no locking, no allocation — so counters are safe on the evaluator's
//! O(deg) flip path. The set of counters is closed ([`Counter`]); a
//! new instrumentation site adds a variant, not a registry entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Every counter the stack records, grouped by subsystem. `name()`
/// yields the stable `subsystem/metric` key used in JSON snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    // mv-select: IncrementalEvaluator
    EvaluatorBuild,
    EvaluatorRetarget,
    EvaluatorFork,
    EvaluatorFlip,
    EvaluatorUnflip,
    EvaluatorSnapshot,
    EvaluatorUpdateCharge,
    EvaluatorUpdateChargeFast,
    // mv-select: local search
    SearchProbes,
    SearchFlipMoves,
    SearchSwapMoves,
    SearchPlaceMoves,
    // mv-select: LNS
    LnsRounds,
    LnsAccepted,
    LnsRejected,
    // mv-select: EpochChain / EpochTree
    TreeNodeSolves,
    TreeRootSolves,
    ChainEpochSteps,
    // mv-core: market / fleet drivers
    MarketPathSolves,
    MarketDedupHits,
    FleetPathSolves,
    FleetDedupHits,
    // mv-engine: ReplayDriver
    EngineQueries,
    EngineQueriesViaViews,
    EngineScanBytes,
    EngineBuildBytes,
    EngineRefreshBytes,
    EngineViewBuilds,
    EngineViewRefreshes,
    // mv-core: advisor candidate metering
    MeterBaseScans,
    MeterRollups,
    // mv-core: calibration
    CalibrateSamples,
    // mv-core: AdvisorService stream loop
    ServiceIngestEvents,
    ServiceIngestDuplicates,
    ServiceDriftResolves,
    ServiceWhatIfs,
    // mv-core: persistent candidate catalog
    CatalogSpills,
    CatalogReloads,
}

/// Number of [`Counter`] variants (length of the backing array).
pub const COUNT: usize = 38;

impl Counter {
    /// All variants, in declaration order (index == discriminant).
    pub const ALL: [Counter; COUNT] = [
        Counter::EvaluatorBuild,
        Counter::EvaluatorRetarget,
        Counter::EvaluatorFork,
        Counter::EvaluatorFlip,
        Counter::EvaluatorUnflip,
        Counter::EvaluatorSnapshot,
        Counter::EvaluatorUpdateCharge,
        Counter::EvaluatorUpdateChargeFast,
        Counter::SearchProbes,
        Counter::SearchFlipMoves,
        Counter::SearchSwapMoves,
        Counter::SearchPlaceMoves,
        Counter::LnsRounds,
        Counter::LnsAccepted,
        Counter::LnsRejected,
        Counter::TreeNodeSolves,
        Counter::TreeRootSolves,
        Counter::ChainEpochSteps,
        Counter::MarketPathSolves,
        Counter::MarketDedupHits,
        Counter::FleetPathSolves,
        Counter::FleetDedupHits,
        Counter::EngineQueries,
        Counter::EngineQueriesViaViews,
        Counter::EngineScanBytes,
        Counter::EngineBuildBytes,
        Counter::EngineRefreshBytes,
        Counter::EngineViewBuilds,
        Counter::EngineViewRefreshes,
        Counter::MeterBaseScans,
        Counter::MeterRollups,
        Counter::CalibrateSamples,
        Counter::ServiceIngestEvents,
        Counter::ServiceIngestDuplicates,
        Counter::ServiceDriftResolves,
        Counter::ServiceWhatIfs,
        Counter::CatalogSpills,
        Counter::CatalogReloads,
    ];

    /// Stable snapshot key, `subsystem/metric`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EvaluatorBuild => "evaluator/build",
            Counter::EvaluatorRetarget => "evaluator/retarget",
            Counter::EvaluatorFork => "evaluator/fork",
            Counter::EvaluatorFlip => "evaluator/flip",
            Counter::EvaluatorUnflip => "evaluator/unflip",
            Counter::EvaluatorSnapshot => "evaluator/snapshot",
            Counter::EvaluatorUpdateCharge => "evaluator/update_charge",
            Counter::EvaluatorUpdateChargeFast => "evaluator/update_charge_fast",
            Counter::SearchProbes => "search/probes",
            Counter::SearchFlipMoves => "search/flip_moves",
            Counter::SearchSwapMoves => "search/swap_moves",
            Counter::SearchPlaceMoves => "search/place_moves",
            Counter::LnsRounds => "lns/rounds",
            Counter::LnsAccepted => "lns/accepted",
            Counter::LnsRejected => "lns/rejected",
            Counter::TreeNodeSolves => "tree/node_solves",
            Counter::TreeRootSolves => "tree/root_solves",
            Counter::ChainEpochSteps => "chain/epoch_steps",
            Counter::MarketPathSolves => "market/path_solves",
            Counter::MarketDedupHits => "market/dedup_hits",
            Counter::FleetPathSolves => "fleet/path_solves",
            Counter::FleetDedupHits => "fleet/dedup_hits",
            Counter::EngineQueries => "engine/queries",
            Counter::EngineQueriesViaViews => "engine/queries_via_views",
            Counter::EngineScanBytes => "engine/scan_bytes",
            Counter::EngineBuildBytes => "engine/build_bytes",
            Counter::EngineRefreshBytes => "engine/refresh_bytes",
            Counter::EngineViewBuilds => "engine/view_builds",
            Counter::EngineViewRefreshes => "engine/view_refreshes",
            Counter::MeterBaseScans => "meter/base_scans",
            Counter::MeterRollups => "meter/rollups",
            Counter::CalibrateSamples => "calibrate/samples",
            Counter::ServiceIngestEvents => "service/ingest_events",
            Counter::ServiceIngestDuplicates => "service/ingest_duplicates",
            Counter::ServiceDriftResolves => "service/drift_resolves",
            Counter::ServiceWhatIfs => "service/what_ifs",
            Counter::CatalogSpills => "catalog/spills",
            Counter::CatalogReloads => "catalog/reloads",
        }
    }
}

static CELLS: [AtomicU64; COUNT] = [const { AtomicU64::new(0) }; COUNT];

/// Adds `n` to counter `c` — no-op while telemetry is disabled.
#[inline(always)]
pub fn add(c: Counter, n: u64) {
    if crate::enabled() {
        CELLS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Reads counter `c`'s process-lifetime total (readable even while
/// disabled — it just stops moving).
#[inline]
pub fn get(c: Counter) -> u64 {
    CELLS[c as usize].load(Ordering::Relaxed)
}

/// Reads every counter in [`Counter::ALL`] order.
pub fn all() -> [u64; COUNT] {
    let mut out = [0u64; COUNT];
    for (slot, c) in out.iter_mut().zip(Counter::ALL) {
        *slot = get(c);
    }
    out
}

/// Serializes delta-scoped counter sections across the process.
static SERIAL: Mutex<()> = Mutex::new(());

/// Test-scoped counter window: holds a process-wide lock (so two
/// delta-asserting sections never interleave), enables telemetry for
/// its lifetime, and reads counters as deltas from its baseline.
///
/// This replaces the old `IncrementalEvaluator` process-global statics
/// whose unconditional increments made cross-test interleaving a
/// latent hazard under threaded `cargo test`: counters now only move
/// inside an enabled window, and `CounterGuard` windows are mutually
/// exclusive by construction. (A non-guard test doing solver work
/// *during* someone else's window still counts — keep guarded
/// sections short.)
pub struct CounterGuard {
    _serial: MutexGuard<'static, ()>,
    base: [u64; COUNT],
}

impl CounterGuard {
    /// Locks the serialization mutex, enables telemetry, and baselines
    /// every counter.
    pub fn scoped() -> CounterGuard {
        let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        CounterGuard {
            _serial: serial,
            base: all(),
        }
    }

    /// Counter movement since this guard (or the last [`rebase`]) —
    /// saturating, in case an unrelated enabler raced the baseline.
    ///
    /// [`rebase`]: CounterGuard::rebase
    pub fn delta(&self, c: Counter) -> u64 {
        get(c).saturating_sub(self.base[c as usize])
    }

    /// Moves the baseline up to "now" for a fresh delta window.
    pub fn rebase(&mut self) {
        self.base = all();
    }
}

impl Drop for CounterGuard {
    fn drop(&mut self) {
        crate::disable();
    }
}
