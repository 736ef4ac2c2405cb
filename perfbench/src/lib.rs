//! The haec benchmark: three workloads, each run single-threaded in its
//! own process, with every output checked and every metric printed by
//! name and unit. `README.md` beside this crate says why each workload
//! exists and which layer each metric belongs to.
//!
//! An untraced run repeats one workload for a fixed number of seconds
//! and reports the end-to-end metrics, its timings calibrated against a
//! fixed reference task timed next to every rep. A traced run (`trace`) wraps the
//! store factory in [`traced::TracedFactory`], times the benchmark's own
//! explore predicate, and reports per-layer metrics, with untraced reps
//! interleaved so the tracing overhead is measured in the same process.

pub mod traced;

use haec_core::stream::{StreamChecker, StreamConfig};
use haec_core::{causal, check_correct, ObjectSpecs, SpecKind};
use haec_model::{Dot, Op, ReplicaId, StoreConfig, Value};
use haec_sim::exhaustive::{explore_all, ExhaustiveConfig, ExhaustiveReport};
use haec_sim::obs::hist::Histogram;
use haec_sim::obs::json::Json;
use haec_sim::obs::lag::LagObserver;
use haec_sim::obs::{DoEvent, Observer};
use haec_sim::service::{run_service, ServicePartition, ServiceReport, ServiceRunConfig};
use haec_sim::{KeyDistribution, OpenLoop, Simulator, Workload};
use haec_stores::service::{Reconciliation, ServiceCluster, ServiceConfig};
use haec_stores::DvvMvrStore;
use std::hint::black_box;
use std::time::Instant;
use traced::{Ledger, Span, TracedFactory};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bench {
    /// One shard, so every witness spans the whole shard history.
    SvcDeep,
    /// Eight shards, read-mostly, anti-entropy, a partition and the online
    /// consistency checker.
    SvcVerify,
    /// Exhaustive search over a 4-replica MVR store to depth 7.
    ExploreMvr4,
}

impl Bench {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Bench; 3] = [Bench::SvcDeep, Bench::SvcVerify, Bench::ExploreMvr4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SvcDeep => "svc-deep",
            Bench::SvcVerify => "svc-verify",
            Bench::ExploreMvr4 => "explore-mvr4",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Smoke` is small
/// enough for a test to run every workload in a few seconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Benchmark sizes.
    Full,
    /// Test sizes.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The workload.
    pub bench: Bench,
    /// Seed of the service workloads' operation and network streams.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Whether the value is measured from the machine, by the wall clock
    /// or the memory high-water mark; otherwise it is an exact function
    /// of the workload and seed.
    pub measured: bool,
}

/// Everything one invocation measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Client ops (service) or schedules (explore) run in timed reps.
    pub attempted: u64,
    /// The part of `attempted` in reps that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Raw wall-clock figures behind the calibrated timings.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            measured: false,
        });
    }

    fn measured(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            measured: true,
        });
    }

    /// Records `failures` of one rep that ran `work` units.
    fn rep(&mut self, work: u64, failures: Vec<String>) {
        self.attempted += work;
        if !failures.is_empty() {
            self.failed += work;
            self.fail(failures);
        }
    }

    /// Records failures that belong to no single rep, keeping the first
    /// occurrence of each message.
    fn fail(&mut self, failures: Vec<String>) {
        for f in failures {
            if !self.failures.contains(&f) {
                self.failures.push(f);
            }
        }
    }

    /// The ops (or schedules) in failed reps over those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// `zero_measured` replaces every measured value by 0, which makes the
    /// line a pure function of the workload and seed.
    pub fn result_line(&self, zero_measured: bool) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if zero_measured && m.measured {
                    0.0
                } else {
                    m.value
                };
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::uint(self.attempted)),
            ("failed".into(), Json::uint(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// A human-readable table of every metric, `failed_frac` included.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{:<40} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "{:<40} {:>18.6} ratio ({} of {} failed)\n",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }
}

/// Runs one invocation.
pub fn run(opts: &Opts) -> Outcome {
    match (opts.bench, opts.trace) {
        (Bench::ExploreMvr4, false) => explore_untraced(opts),
        (Bench::ExploreMvr4, true) => explore_traced(opts),
        (_, false) => service_untraced(opts),
        (_, true) => service_traced(opts),
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Every timed loop runs at least this many reps, so "identical across
/// reps" is always checked.
const MIN_REPS: usize = 3;

/// Constructor calls per set-up sample: one call takes microseconds, so
/// a sample times a batch and divides.
const SETUP_BATCH: u32 = 64;

/// Repeats until `seconds` have passed and at least [`MIN_REPS`] reps ran.
struct Clock {
    start: Instant,
    seconds: f64,
    reps: usize,
}

impl Clock {
    fn new(seconds: f64) -> Self {
        Clock {
            start: Instant::now(),
            seconds,
            reps: 0,
        }
    }

    fn more(&mut self) -> bool {
        let go = self.reps < MIN_REPS || self.start.elapsed().as_secs_f64() < self.seconds;
        self.reps += usize::from(go);
        go
    }
}

/// Seconds `f` takes, and its result.
fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Seconds per call of `f`, timed over a batch of [`SETUP_BATCH`] calls.
fn time_setup(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SETUP_BATCH {
        f();
    }
    t0.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
}

/// The fastest of `xs`: the traced run's statistic.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// What [`reference_task`] typically takes on the machine the benchmark
/// was tuned on (2-vCPU KVM guest, Xeon at 2.0 GHz): its median over the
/// tuning runs. Calibrated timings therefore read as that machine's
/// typical wall-clock times (README.md, "Noise").
const REFERENCE_S: f64 = 0.014;

/// A fixed allocate-and-copy task, timed right before every rep. Other
/// tenants of a shared machine slow it down about as much as they slow
/// the workloads, so a rep's time over the task's time next to it stays
/// steady when the wall clock does not. Every timing the untraced run
/// reports is relative to this task: changing it changes them all.
fn reference_task() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..2_000u64 {
        let v: Vec<u64> = (0..4_000u64).map(|j| j ^ i).collect();
        let w: Vec<u64> = v.iter().filter(|&&d| d & 1 == 0).copied().collect();
        acc = acc.wrapping_add(w.len() as u64 + v[(i as usize) % 4_000]);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The wall-clock samples of one timed quantity, each with the reference
/// task's time measured next to it.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    refs: Vec<f64>,
}

impl Samples {
    fn push(&mut self, reference: f64, wall: f64) {
        self.refs.push(reference);
        self.walls.push(wall);
    }

    /// The statistic every untraced wall-clock metric reports: the median
    /// over reps of the rep's time over the reference task's, scaled by
    /// [`REFERENCE_S`] back to seconds.
    fn calibrated(&self) -> f64 {
        let ratios = self.walls.iter().zip(&self.refs).map(|(w, r)| w / r);
        median(ratios.collect()) * REFERENCE_S
    }

    fn note(&self, what: &str) -> String {
        format!(
            "{what}: {} reps, fastest {:.6} s, median {:.6} s; reference task median {:.6} s",
            self.walls.len(),
            fastest(&self.walls),
            median(self.walls.clone()),
            median(self.refs.clone()),
        )
    }
}

/// `q`-quantile of a log2-bucketed histogram, interpolated linearly
/// across the whole bucket that holds it (0 when empty). The bucket is
/// not clamped to the observed extremes: that would make the value jump
/// with a single outlying sample.
fn quantile(h: &Histogram, q: f64) -> f64 {
    let target = q * h.count() as f64;
    let mut below = 0.0;
    let mut last = 0.0;
    for (lo, hi, count) in h.buckets() {
        let count = count as f64;
        if below + count >= target {
            return lo as f64 + (hi - lo) as f64 * ((target - below) / count).clamp(0.0, 1.0);
        }
        below += count;
        last = hi as f64;
    }
    last
}

/// Exact `q`-quantile of unsorted samples (0 when empty).
fn sample_quantile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let i = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    xs[i] as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn push_rss(out: &mut Outcome) {
    match peak_rss_mb() {
        Ok(mb) => out.measured("peak_rss_mb", "MB", mb),
        Err(e) => out.fail(vec![e]),
    }
}

/// Per-layer metrics of a traced run. Layers a workload does not reach
/// read 0.
#[derive(Default)]
struct Layers {
    ledger: Ledger,
    witness_growth: f64,
    service_self_s: f64,
    service: Option<ServiceReport>,
    service_growth: f64,
    stream_s: f64,
    exhaustive_self_s: f64,
    exhaustive: Option<ExhaustiveReport>,
    checks: CheckSpans,
    wall_s: f64,
    overhead_frac: f64,
}

impl Layers {
    fn push(mut self, out: &mut Outcome) {
        let l = &mut self.ledger;
        let do_calls = l.do_op.calls;
        let per_op = |x: u64| {
            if do_calls == 0 {
                0.0
            } else {
                x as f64 / do_calls as f64
            }
        };
        out.exact("stores.do.calls", "count", do_calls as f64);
        out.measured("stores.do.s", "s", l.do_op.secs());
        out.measured("stores.do.p50_ns", "ns", sample_quantile(&mut l.do_ns, 0.5));
        out.measured(
            "stores.do.p99_ns",
            "ns",
            sample_quantile(&mut l.do_ns, 0.99),
        );
        out.exact(
            "stores.do.witness_dots_per_op",
            "dots",
            per_op(l.witness_dots),
        );
        out.exact("stores.witness_growth", "log2", self.witness_growth);
        out.exact("stores.send.calls", "count", l.send.calls as f64);
        out.measured("stores.send.s", "s", l.send.secs());
        out.exact("stores.send.bits", "bits", l.send_bits as f64);
        out.exact("stores.recv.calls", "count", l.recv.calls as f64);
        out.measured("stores.recv.s", "s", l.recv.secs());
        out.exact("stores.clone.calls", "count", l.clone.calls as f64);
        out.measured("stores.clone.s", "s", l.clone.secs());
        out.exact(
            "stores.fingerprint.calls",
            "count",
            l.fingerprint.calls as f64,
        );
        out.measured("stores.fingerprint.s", "s", l.fingerprint.secs());

        let svc = self.service.as_ref();
        let count = |f: fn(&ServiceReport) -> u64| svc.map_or(0.0, |r| f(r) as f64);
        out.measured("sim.service.self_s", "s", self.service_self_s);
        out.exact("sim.service.messages", "count", count(|r| r.messages));
        out.exact(
            "sim.service.envelope_overhead_bits",
            "bits",
            count(|r| r.envelope_overhead_bits),
        );
        out.exact(
            "sim.service.delivery_latency_p99_ticks",
            "ticks",
            svc.map_or(0.0, |r| quantile(&r.delivery_latency, 0.99)),
        );
        out.exact(
            "sim.service.pending_observations",
            "count",
            count(|r| r.pending_observations),
        );
        out.measured("sim.service.growth", "log2", self.service_growth);
        out.measured("core.stream.s", "s", self.stream_s);

        let ex = self.exhaustive.as_ref();
        let (hits, misses) = ex.map_or((0, 0), |r| (r.dedup_hits, r.dedup_misses));
        out.measured("sim.exhaustive.self_s", "s", self.exhaustive_self_s);
        out.exact("sim.exhaustive.dedup_hits", "count", hits as f64);
        out.exact("sim.exhaustive.dedup_misses", "count", misses as f64);
        out.exact(
            "sim.exhaustive.dedup_hit_ratio",
            "ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        );
        let c = &self.checks;
        out.measured(
            "sim.simulator.abstract_execution.s",
            "s",
            c.abstract_execution.secs(),
        );
        out.measured("core.correct.s", "s", c.correct.secs());
        out.measured("core.causal.s", "s", c.causal.secs());
        out.exact(
            "core.check.calls",
            "count",
            c.abstract_execution.calls as f64,
        );
        out.measured("trace.wall_s", "s", self.wall_s);
        out.measured("trace.overhead_frac", "ratio", self.overhead_frac);
    }
}

/// The fastest traced rep seen so far, with what it recorded.
struct Best<T> {
    wall: f64,
    what: Option<T>,
}

impl<T> Best<T> {
    fn new() -> Self {
        Best {
            wall: f64::INFINITY,
            what: None,
        }
    }

    fn offer(&mut self, wall: f64, what: impl FnOnce() -> T) {
        if wall < self.wall {
            self.wall = wall;
            self.what = Some(what());
        }
    }
}

// ---------------------------------------------------------------------
// Service workloads
// ---------------------------------------------------------------------

/// The service configuration of `bench` at `scale`, with `ops` scaled by
/// `factor` (the traced run's two-size row uses 1 and 2).
fn service_config(bench: Bench, scale: Scale, seed: u64, factor: usize) -> ServiceRunConfig {
    let smoke = scale == Scale::Smoke;
    let base = ServiceRunConfig {
        service: ServiceConfig {
            n_replicas: 3,
            n_shards: 1,
            n_objects: 256,
            vnodes: 32,
            reconciliation: Reconciliation::WriteRepair,
        },
        spec: SpecKind::Mvr,
        ops: if smoke { 600 } else { 15_000 },
        n_clients: if smoke { 60 } else { 2_000 },
        read_ratio: 0.5,
        keys: KeyDistribution::Uniform,
        batched: true,
        delay_max: 8,
        drop_prob: 0.0,
        dup_prob: 0.01,
        partition: None,
        stream_window: None,
        seed,
    };
    let cfg = match bench {
        Bench::SvcDeep => base,
        Bench::SvcVerify => {
            // The partition length stays fixed as `ops` grows: the online
            // checker's cost rises steeply with it (README.md, "Cliffs").
            let (from, len) = if smoke { (100, 100) } else { (1_000, 1_000) };
            ServiceRunConfig {
                service: ServiceConfig {
                    n_shards: 8,
                    reconciliation: Reconciliation::AntiEntropy { period: 64 },
                    ..base.service
                },
                ops: if smoke { 600 } else { 10_000 },
                read_ratio: 0.8,
                keys: KeyDistribution::Zipf { theta: 0.99 },
                partition: Some(ServicePartition {
                    from_op: from,
                    to_op: from + len,
                    group: vec![ReplicaId::new(0)],
                }),
                stream_window: Some(if smoke { 256 } else { 4_096 }),
                ..base
            }
        }
        Bench::ExploreMvr4 => unreachable!("explore-mvr4 is not a service workload"),
    };
    ServiceRunConfig {
        ops: cfg.ops * factor,
        ..cfg
    }
}

/// Builds, and drops, what `run_service` builds before its first tick:
/// the cluster, the open-loop client stream and the stream checkers.
fn service_setup(cfg: &ServiceRunConfig) {
    let sc = &cfg.service;
    black_box(ServiceCluster::new(&DvvMvrStore, black_box(sc)));
    black_box(OpenLoop::new(
        Workload::new(
            cfg.spec,
            sc.n_replicas,
            sc.n_objects,
            cfg.read_ratio,
            cfg.keys,
        ),
        cfg.n_clients,
    ));
    if let Some(window) = cfg.stream_window {
        for _ in 0..sc.n_shards {
            black_box(
                StreamChecker::new(StreamConfig {
                    n_replicas: sc.n_replicas,
                    window,
                    gc_window: None,
                })
                .expect("benchmark stream config is valid"),
            );
        }
    }
}

/// The correctness checks one service report must pass.
fn check_service(cfg: &ServiceRunConfig, r: &ServiceReport) -> Vec<String> {
    let mut failures = Vec::new();
    if !r.converged {
        failures.push("service did not converge at quiescence".to_string());
    }
    let payload: u64 = r.per_shard.iter().map(|s| s.payload_bits).sum();
    if r.message_bits != payload + r.envelope_overhead_bits {
        failures.push(format!(
            "wire identity broken: message_bits {} != payload {} + overhead {}",
            r.message_bits, payload, r.envelope_overhead_bits
        ));
    }
    let routed: u64 = r.per_shard.iter().map(|s| s.ops).sum();
    if routed != r.ops || r.ops != cfg.ops as u64 {
        failures.push(format!(
            "routing: {routed} ops routed to shards, {} reported, {} issued",
            r.ops, cfg.ops
        ));
    }
    if cfg.stream_window.is_some() {
        match r.stream {
            Some(v) if v.causal && v.eventual && v.sessions => {}
            other => failures.push(format!("stream verdicts not all true: {other:?}")),
        }
        if r.stream_errors != 0 {
            failures.push(format!("{} stream-checker feed errors", r.stream_errors));
        }
    }
    failures
}

/// Compares a rep's rendered report with the first rep's, which the
/// first call records.
fn same_as(reference: &mut Option<String>, json: String, what: &str) -> Vec<String> {
    match reference {
        None => {
            *reference = Some(json);
            Vec::new()
        }
        Some(r) if *r == json => Vec::new(),
        Some(_) => vec![format!("{what} differs from the first rep's report")],
    }
}

fn service_untraced(opts: &Opts) -> Outcome {
    let mut subs: Vec<SubRun> = sub_seeds(opts)
        .map(|seed| SubRun {
            cfg: service_config(opts.bench, opts.scale, seed, 1),
            walls: Samples::default(),
            reference: None,
            report: None,
        })
        .collect();
    let mut out = Outcome::default();
    let mut setups = Samples::default();
    let mut clock = Clock::new(opts.seconds);
    while clock.more() {
        for sub in &mut subs {
            let calibration = reference_task();
            setups.push(calibration, time_setup(|| service_setup(&sub.cfg)));
            let (wall, report) = time(|| run_service(&DvvMvrStore, black_box(&sub.cfg)));
            sub.walls.push(calibration, wall);
            let mut failures = check_service(&sub.cfg, &report);
            failures.extend(same_as(
                &mut sub.reference,
                report.to_json_string(),
                "service report",
            ));
            out.rep(report.ops, failures);
            sub.report = Some(report);
        }
    }

    let reports: Vec<&ServiceReport> = subs
        .iter()
        .map(|s| s.report.as_ref().expect("the clock runs at least one rep"))
        .collect();
    let n = reports.len() as f64;
    let ops: u64 = reports.iter().map(|r| r.ops).sum();
    let bits: u64 = reports.iter().map(|r| r.message_bits).sum();
    let state_bits: u64 = reports.iter().map(|r| r.state_bits).sum();
    let (mut lag, mut staleness) = (Histogram::new(), Histogram::new());
    for r in &reports {
        lag.merge(&r.visibility_lag);
        staleness.merge(&r.read_staleness);
    }
    // Each sub-seed's calibrated time, averaged over the sub-seeds.
    let wall = subs.iter().map(|s| s.walls.calibrated()).sum::<f64>() / n;
    out.measured("ops_per_s", "1/s", ops as f64 / n / wall);
    out.measured("verify_s", "s", wall);
    out.measured("setup_s", "s", setups.calibrated());
    out.notes
        .push(subs[0].walls.note("first sub-seed's run_service"));
    out.notes.push(setups.note("set-up"));
    push_rss(&mut out);
    out.exact("bytes_per_op", "B", bits as f64 / 8.0 / ops as f64);
    out.exact("visibility_lag_p50_ticks", "ticks", quantile(&lag, 0.5));
    out.exact("visibility_lag_p99_ticks", "ticks", quantile(&lag, 0.99));
    out.exact("read_staleness_p99", "updates", quantile(&staleness, 0.99));
    out.exact("state_bytes", "B", state_bits as f64 / 8.0 / n);
    // Each sub-seed's run plays exactly one schedule.
    out.exact("schedules", "count", n);
    out
}

/// One sub-seed of an untraced service run.
struct SubRun {
    cfg: ServiceRunConfig,
    walls: Samples,
    reference: Option<String>,
    report: Option<ServiceReport>,
}

/// Sub-seeds per service run: the cost of a service run depends on its
/// seed by up to ±15% (svc-verify), so a run measures several seeds and
/// averages them.
fn sub_seed_count(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 8,
        Scale::Smoke => 2,
    }
}

/// The sub-seeds of `opts.seed`; distinct seeds get disjoint sets.
fn sub_seeds(opts: &Opts) -> impl Iterator<Item = u64> {
    let k = sub_seed_count(opts.scale);
    let first = opts.seed.wrapping_mul(k);
    (0..k).map(move |i| first.wrapping_add(i))
}

/// Interleaves untraced and traced reps of one service config. Returns
/// the fastest untraced wall time, the fastest traced rep (wall, ledger,
/// report), and checks that every traced report equals the untraced one.
fn service_pair(
    cfg: &ServiceRunConfig,
    traced: &TracedFactory<'_>,
    seconds: f64,
    out: &mut Outcome,
) -> (f64, Best<(Ledger, ServiceReport)>) {
    let mut untraced = Vec::new();
    let mut best = Best::new();
    let mut reference = None;
    let mut clock = Clock::new(seconds);
    while clock.more() {
        let (wall, report) = time(|| run_service(&DvvMvrStore, black_box(cfg)));
        untraced.push(wall);
        let mut failures = check_service(cfg, &report);
        failures.extend(same_as(
            &mut reference,
            report.to_json_string(),
            "service report",
        ));
        out.rep(report.ops, failures);

        traced.take();
        let (wall, report) = time(|| run_service(traced, black_box(cfg)));
        let ledger = traced.take();
        let failures = same_as(
            &mut reference,
            report.to_json_string(),
            "traced service report",
        );
        out.rep(report.ops, failures);
        best.offer(wall, || (ledger, report));
    }
    (fastest(&untraced), best)
}

fn service_traced(opts: &Opts) -> Outcome {
    // The traced run measures the first sub-seed only.
    let seed = sub_seeds(opts).next().expect("at least one sub-seed");
    let cfg = service_config(opts.bench, opts.scale, seed, 1);
    let traced = TracedFactory::new(&DvvMvrStore);
    let mut out = Outcome::default();

    // Most of the time goes to size N; the two-size row at 2N gets a
    // quarter of it, and at least `MIN_REPS` reps.
    let (untraced, best) = service_pair(&cfg, &traced, opts.seconds * 0.75, &mut out);
    let cfg2 = service_config(opts.bench, opts.scale, seed, 2);
    let (untraced2, best2) = service_pair(&cfg2, &traced, opts.seconds * 0.25, &mut out);
    let wall = best.wall;
    let (ledger, report) = best.what.expect("at least one traced rep");
    let (ledger2, _) = best2.what.expect("at least one traced rep");
    let dots_per_op = |l: &Ledger| l.witness_dots as f64 / l.do_op.calls.max(1) as f64;

    // The stream checker is passive and runs inside the driver, so its
    // cost is the difference to the same traced run without it.
    let mut stream_s = 0.0;
    if cfg.stream_window.is_some() {
        let quiet = ServiceRunConfig {
            stream_window: None,
            ..cfg.clone()
        };
        let mut walls = Vec::new();
        let mut reference = None;
        for _ in 0..MIN_REPS {
            let (w, r) = time(|| run_service(&traced, black_box(&quiet)));
            traced.take();
            walls.push(w);
            let mut failures = same_as(&mut reference, r.to_json_string(), "unchecked report");
            // Outside the stream fields, both reports must match.
            let mut checked = report.clone();
            checked.stream = None;
            checked.stream_errors = 0;
            if checked.to_json_string() != r.to_json_string() {
                failures.push("the stream checker changed the service report".into());
            }
            out.rep(r.ops, failures);
        }
        stream_s = wall - fastest(&walls);
    }

    let layers = Layers {
        witness_growth: (dots_per_op(&ledger2) / dots_per_op(&ledger)).log2(),
        service_self_s: wall - ledger.secs() - stream_s,
        service_growth: (untraced2 / untraced).log2(),
        stream_s,
        wall_s: wall,
        overhead_frac: wall / untraced - 1.0,
        ledger,
        service: Some(report),
        ..Layers::default()
    };
    check_self_times(&layers, &mut out);
    layers.push(&mut out);
    out
}

/// The driver's self time is what is left of the traced wall time after
/// the measured child spans. It may dip below zero only by timer noise,
/// bounded by the tracing overhead; more means a span was counted twice.
fn check_self_times(l: &Layers, out: &mut Outcome) {
    let self_s = l.service_self_s + l.exhaustive_self_s;
    let slack = l.overhead_frac.abs().max(0.01) * l.wall_s;
    if self_s < -slack {
        out.fail(vec![format!(
            "per-layer spans exceed the traced wall time by {:.6} s",
            -self_s
        )]);
    }
}

// ---------------------------------------------------------------------
// Exhaustive search
// ---------------------------------------------------------------------

fn explore_config(scale: Scale) -> ExhaustiveConfig {
    ExhaustiveConfig {
        store_config: StoreConfig::new(4, 1),
        ops: vec![Op::Write(Value::new(0)), Op::Read],
        depth: if scale == Scale::Smoke { 4 } else { 7 },
        max_schedules: usize::MAX,
        dedup: true,
        por: true,
        symmetry: false,
    }
}

/// The predicate of `benches/explore.rs`: MVR correctness and causal
/// consistency of the schedule's abstract execution.
fn mvr_causal(sim: &Simulator) -> bool {
    let Ok(a) = sim.abstract_execution() else {
        return false;
    };
    check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok() && causal::check(&a).is_ok()
}

/// The same predicate with a span around each of its calls.
#[derive(Clone, Copy, Default, Debug)]
struct CheckSpans {
    abstract_execution: Span,
    correct: Span,
    causal: Span,
}

impl CheckSpans {
    fn check(&mut self, sim: &Simulator) -> bool {
        let t0 = Instant::now();
        let a = sim.abstract_execution();
        self.abstract_execution.charge(t0);
        let Ok(a) = a else {
            return false;
        };
        let t0 = Instant::now();
        let correct = check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok();
        self.correct.charge(t0);
        if !correct {
            return false;
        }
        let t0 = Instant::now();
        let causal = causal::check(&a).is_ok();
        self.causal.charge(t0);
        causal
    }

    fn secs(&self) -> f64 {
        self.abstract_execution.secs() + self.correct.secs() + self.causal.secs()
    }
}

fn explore_setup(cfg: &ExhaustiveConfig) {
    black_box(cfg)
        .validate()
        .expect("benchmark config is valid");
    black_box(Simulator::new(&DvvMvrStore, cfg.store_config));
}

/// The exact outputs of a search, rendered for comparison across reps.
fn explore_key(r: &ExhaustiveReport) -> String {
    format!("{r:?}")
}

fn check_explore(r: &ExhaustiveReport) -> Vec<String> {
    match &r.counterexample {
        None => Vec::new(),
        Some(c) => vec![format!("counterexample found: {c:?}")],
    }
}

/// Service-comparable exact metrics over the leaves the search checked:
/// wire bytes per client op, visibility lag and read staleness in
/// transcript steps, and state size per leaf.
#[derive(Default)]
struct LeafStats {
    leaves: u64,
    do_ops: u64,
    wire_bits: u64,
    state_bits: u64,
    lag: Histogram,
    staleness: Histogram,
}

impl LeafStats {
    fn add(&mut self, sim: &Simulator) {
        let exec = sim.execution();
        let n = exec.n_replicas();
        let mut obs = LagObserver::new(n);
        let mut seq = vec![0u32; n];
        for w in sim.witnesses() {
            let ev = exec.event(w.event);
            let (obj, op, rval) = ev.as_do().expect("witnesses index do events");
            let dot = op.is_update().then(|| {
                seq[ev.replica.index()] += 1;
                Dot::new(ev.replica, seq[ev.replica.index()])
            });
            obs.on_do(&DoEvent {
                step: w.event,
                replica: ev.replica,
                obj,
                op,
                rval,
                dot,
                visible: &w.visible,
            });
        }
        self.leaves += 1;
        self.do_ops += sim.witnesses().len() as u64;
        // One wire copy per other replica, as the service counts them.
        let copies = (n - 1) as u64;
        self.wire_bits += exec
            .messages()
            .iter()
            .map(|m| m.payload.bits() as u64 * copies)
            .sum::<u64>();
        self.state_bits += sim.total_state_bits() as u64;
        self.lag.merge(obs.visibility_lag());
        self.staleness.merge(obs.read_staleness());
    }
}

fn explore_untraced(opts: &Opts) -> Outcome {
    let cfg = explore_config(opts.scale);
    let mut out = Outcome::default();
    let (mut walls, mut setups) = (Samples::default(), Samples::default());
    let mut reference = None;
    let mut last = None;
    let mut clock = Clock::new(opts.seconds);
    while clock.more() {
        let calibration = reference_task();
        setups.push(calibration, time_setup(|| explore_setup(&cfg)));
        let (wall, report) = time(|| explore_all(&DvvMvrStore, black_box(&cfg), &mut mvr_causal));
        walls.push(calibration, wall);
        let mut failures = check_explore(&report);
        failures.extend(same_as(&mut reference, explore_key(&report), "search"));
        out.rep(report.schedules as u64, failures);
        last = Some(report);
    }
    let r = last.expect("the clock runs at least one rep");

    // Untimed: the same search once more, collecting leaf statistics.
    let mut stats = LeafStats::default();
    let checked = explore_all(&DvvMvrStore, &cfg, &mut |sim: &Simulator| {
        stats.add(sim);
        mvr_causal(sim)
    });
    out.fail(same_as(
        &mut reference,
        explore_key(&checked),
        "statistics search",
    ));

    let wall = walls.calibrated();
    out.measured("ops_per_s", "1/s", r.schedules as f64 / wall);
    out.measured("verify_s", "s", wall);
    out.measured("setup_s", "s", setups.calibrated());
    out.notes.push(walls.note("explore_all"));
    out.notes.push(setups.note("set-up"));
    push_rss(&mut out);
    out.exact(
        "bytes_per_op",
        "B",
        stats.wire_bits as f64 / 8.0 / stats.do_ops.max(1) as f64,
    );
    out.exact(
        "visibility_lag_p50_ticks",
        "ticks",
        quantile(&stats.lag, 0.5),
    );
    out.exact(
        "visibility_lag_p99_ticks",
        "ticks",
        quantile(&stats.lag, 0.99),
    );
    out.exact(
        "read_staleness_p99",
        "updates",
        quantile(&stats.staleness, 0.99),
    );
    out.exact(
        "state_bytes",
        "B",
        stats.state_bits as f64 / 8.0 / stats.leaves.max(1) as f64,
    );
    out.exact("schedules", "count", r.schedules as f64);
    out
}

fn explore_traced(opts: &Opts) -> Outcome {
    let cfg = explore_config(opts.scale);
    let traced = TracedFactory::new(&DvvMvrStore);
    let mut out = Outcome::default();
    let mut untraced = Vec::new();
    let mut best = Best::new();
    let mut reference = None;
    let mut clock = Clock::new(opts.seconds);
    while clock.more() {
        let (wall, report) = time(|| explore_all(&DvvMvrStore, black_box(&cfg), &mut mvr_causal));
        untraced.push(wall);
        let mut failures = check_explore(&report);
        failures.extend(same_as(&mut reference, explore_key(&report), "search"));
        out.rep(report.schedules as u64, failures);

        traced.take();
        let mut spans = CheckSpans::default();
        let (wall, report) = time(|| {
            explore_all(&traced, black_box(&cfg), &mut |sim: &Simulator| {
                spans.check(sim)
            })
        });
        let ledger = traced.take();
        let failures = same_as(&mut reference, explore_key(&report), "traced search");
        out.rep(report.schedules as u64, failures);
        best.offer(wall, || (ledger, spans, report));
    }
    let wall = best.wall;
    let untraced = fastest(&untraced);
    let (ledger, checks, report) = best.what.expect("at least one traced rep");
    let layers = Layers {
        exhaustive_self_s: wall - ledger.secs() - checks.secs(),
        wall_s: wall,
        overhead_frac: wall / untraced - 1.0,
        ledger,
        exhaustive: Some(report),
        checks,
        ..Layers::default()
    };
    check_self_times(&layers, &mut out);
    layers.push(&mut out);
    out
}
