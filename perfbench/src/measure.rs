//! Measurement helpers shared by every workload: latency samples,
//! process CPU and memory readings, seeded input generation, and the
//! metric rows a run reports.

use std::time::{Duration, Instant};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics of untraced ops.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form lines printed before the result (shares, check notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Records the outcome of one op's output checks; a failed check
    /// is a failed op and is explained in the notes.
    pub fn check(&mut self, op: u64, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.notes.push(format!("op {op}: check failed: {p}"));
            }
        }
    }
}

/// How one run is driven.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced mode: every other op runs with telemetry on.
    pub trace: bool,
    /// Scratch directory inside the checkout (spills, trace files).
    pub work_dir: std::path::PathBuf,
}

impl RunConfig {
    /// Whether the `k`-th op (or cycle) is a traced one. Traced runs
    /// alternate traced and untraced ops, so both halves see the same
    /// machine load and their difference is the tracing overhead.
    pub fn traced(&self, k: u64) -> bool {
        self.trace && k.is_multiple_of(2)
    }
}

/// Latency samples in milliseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Linearly interpolated `q`-quantile, or 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile, reported only when at least ten samples lie
    /// above it (1 000 samples or more); 0 otherwise.
    pub fn p99(&self) -> f64 {
        if self.0.len() >= 1_000 {
            self.quantile(0.99)
        } else {
            0.0
        }
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms_since(t))
}

/// Process CPU time (user + system, all threads) in seconds, read from
/// `/proc/self/stat` at clock-tick resolution; 0 where unavailable.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The clock of a run's timed phase. Set-up probes run inside the
/// phase, spread evenly over it, so their median samples the host over
/// the same stretch of time as the ops; the phase's clock stops while
/// one runs.
pub struct Phase {
    start: Instant,
    paused: Duration,
    seconds: Duration,
}

impl Phase {
    pub fn start(seconds: Duration) -> Phase {
        Phase {
            start: Instant::now(),
            paused: Duration::ZERO,
            seconds,
        }
    }

    /// Time spent on ops so far, set-up probes excluded.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    pub fn running(&self) -> bool {
        self.elapsed() < self.seconds
    }

    /// Whether probe `k` of `n` is due: probe `k` falls `k / n` into
    /// the phase, so probe 0 runs before the first op.
    pub fn due(&self, k: usize, n: usize) -> bool {
        k < n && self.elapsed() >= self.seconds.mul_f64(k as f64 / n as f64)
    }

    /// Runs `f` with the phase's clock stopped.
    pub fn pause<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, ms) = timed(f);
        self.paused += Duration::from_secs_f64(ms / 1e3);
        r
    }
}

/// Runs one set-up probe, `perfbench --setup-probe <workload> <arg>`,
/// in a fresh process of this program and returns the timings it
/// prints, in milliseconds. A fresh process is a restarted program's
/// real cold start. The same set-up can take twice as long in one
/// process as in the next, so a median over several probes is steadier
/// than repeats inside one process.
pub fn probe(workload: &str, arg: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--setup-probe", workload, arg])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).trim().to_string());
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .split_whitespace()
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad probe output {stdout:?}"))
        })
        .collect()
}

/// Accumulates CPU and wall time over a set of ops.
#[derive(Default)]
pub struct CpuWall {
    cpu_s: f64,
    wall_s: f64,
}

impl CpuWall {
    /// Runs `f`, adding its process CPU and wall time.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let cpu = process_cpu_s();
        let (r, ms) = timed(f);
        self.cpu_s += process_cpu_s() - cpu;
        self.wall_s += ms / 1e3;
        (r, ms)
    }

    /// Adds CPU and wall seconds measured elsewhere.
    pub fn add(&mut self, cpu_s: f64, wall_s: f64) {
        self.cpu_s += cpu_s;
        self.wall_s += wall_s;
    }

    /// CPU seconds per wall second (0 before any op).
    pub fn ratio(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cpu_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// SplitMix64: the benchmark's own seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of op (or cycle) `k` of a run seeded with `seed`: distinct
/// per op, so no two ops of a run see the same generated input.
pub fn op_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}
