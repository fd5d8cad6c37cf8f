//! The three workloads, their correctness checks and their metrics.
//!
//! An *op* is one `System` run or one `evaluate_trace` call. Each op
//! yields a digest of the statistics it simulated, or the reason it
//! failed. An op fails when the engine returns an error or panics, when
//! a processor executed a different number of reads or writes than its
//! stream holds, when a repeat of the op on the same seed simulates
//! different statistics, when the audited verification run differs from
//! the unaudited one, or when predictor counts break
//! `correct <= predicted <= seen`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use specdsm_core::{evaluate_trace, DirectoryTrace, PredictorKind, PredictorStats, TraceEval};
use specdsm_protocol::{RunStats, SpecPolicy, System, SystemConfig};
use specdsm_types::{MachineConfig, Op, Workload};
use specdsm_workloads::{
    fault_plan, AppId, Appbt, AppbtParams, Barnes, BarnesParams, Em3d, Em3dParams, Moldyn,
    MoldynParams, Ocean, OceanParams, Tomcatv, TomcatvParams, Unstructured, UnstructuredParams,
};

use crate::calib::{Calibrator, Lap, REF_CHUNK_S};
use crate::trace::{self_times, Span, Tracer};

/// History depths the predictor workload replays at.
const DEPTHS: [usize; 3] = [1, 2, 4];

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Applications, in the order they run.
    pub apps: &'static [AppId],
    /// Policies each application runs under.
    pub policies: &'static [SpecPolicy],
    /// Machine size.
    pub nodes: usize,
    /// Whether the suite-standard fault plan is active.
    pub faults: bool,
    /// Record Base-DSM traces in set-up and time the predictor replays
    /// instead of the simulations.
    pub predict: bool,
    /// Use the tiny `quick()` inputs instead of `default_scale()`
    /// (self-tests only).
    pub quick: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "paper16",
        apps: &AppId::ALL,
        policies: &SpecPolicy::ALL,
        nodes: 16,
        faults: false,
        predict: false,
        quick: false,
    },
    Spec {
        name: "predict16",
        apps: &AppId::ALL,
        policies: &[SpecPolicy::Base],
        nodes: 16,
        faults: false,
        predict: true,
        quick: false,
    },
    Spec {
        name: "faults64",
        apps: &[AppId::Em3d, AppId::Tomcatv],
        policies: &[SpecPolicy::Base, SpecPolicy::SwiFr],
        nodes: 64,
        faults: true,
        predict: false,
        quick: false,
    },
];

/// The end-to-end metrics, with their units, in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vmsp_accuracy", "ratio"),
];

fn policy_name(policy: SpecPolicy) -> &'static str {
    match policy {
        SpecPolicy::Base => "base",
        SpecPolicy::FirstRead => "fr",
        SpecPolicy::SwiFr => "swi",
    }
}

fn kind_name(kind: PredictorKind) -> &'static str {
    match kind {
        PredictorKind::Cosmos => "cosmos",
        PredictorKind::Msp => "msp",
        PredictorKind::Vmsp => "vmsp",
    }
}

/// Every per-layer metric, with its unit, in print order. A workload
/// that does not exercise a metric's layer reports it as 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed = [
        ("bench.self_s", "s"),
        ("trace.layer_share", "ratio"),
        ("trace.overhead", "ratio"),
        ("workloads.self_s", "s"),
        ("workloads.gen_s", "s"),
        ("workloads.ops", "count"),
        ("workloads.ops_per_s", "1/s"),
        ("protocol.self_s", "s"),
        ("protocol.new_s", "s"),
        ("protocol.run_s", "s"),
        ("protocol.trace_record_s", "s"),
        ("protocol.sim_events", "count"),
        ("protocol.events_per_s", "1/s"),
        ("protocol.ns_per_event", "ns"),
        ("protocol.remote_messages", "count"),
        ("protocol.dir_requests", "count"),
        ("protocol.ni_wait_cycles", "cycles"),
        ("protocol.mem_wait_cycles", "cycles"),
        ("protocol.spec.sent", "count"),
        ("protocol.spec.useful_ratio", "ratio"),
        ("protocol.swi_speedup", "ratio"),
        ("protocol.fault.retries", "count"),
        ("protocol.fault.drops", "count"),
        ("protocol.fault.dup_suppressed", "count"),
        ("protocol.fault.recovery_cycles", "cycles"),
        ("protocol.fault.retry_ratio", "ratio"),
        ("protocol.audit_overhead", "ratio"),
        ("core.self_s", "s"),
    ];
    let mut names: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for app in AppId::ALL {
        for policy in SpecPolicy::ALL {
            names.push((format!("protocol.run_s.{app}.{}", policy_name(policy)), "s"));
        }
    }
    for kind in PredictorKind::ALL {
        let k = kind_name(kind);
        for depth in DEPTHS {
            names.push((format!("core.eval_s.{k}.d{depth}"), "s"));
        }
        names.push((format!("core.msgs_per_s.{k}"), "1/s"));
        names.push((format!("core.accuracy.{k}.d1"), "ratio"));
        names.push((format!("core.coverage.{k}.d1"), "ratio"));
        names.push((format!("core.bytes_per_block.{k}.d4"), "bytes"));
    }
    names
}

/// How long to measure and whether to trace.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Keep starting iterations until this many seconds have passed.
    pub seconds: f64,
    /// Record spans on every second iteration and report the per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Run at least this many iterations (each is set-up plus one timed
    /// pass).
    pub min_iters: usize,
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// The first few failures, as `op: reason`.
    pub failures: Vec<String>,
    /// Hash of every simulated statistic of the first iteration.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Values printed in the summary only: `failed_ops_frac` and, on
    /// simulation workloads, `swi_speedup`.
    pub extras: Vec<Metric>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word.
    pub fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a string and its length.
    pub fn put_str(&mut self, s: &str) {
        self.put(s.len() as u64);
        for b in s.bytes() {
            self.put(u64::from(b));
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of the modelled machine's statistics for one run. Simulator
/// work counts (`sim_events`) are left out: a change that simulates the
/// same machine with fewer events keeps the digest.
pub fn digest_run(s: &RunStats) -> u64 {
    let mut h = Fnv::new();
    h.put(s.exec_cycles);
    for p in &s.per_proc {
        for v in [
            p.compute_cycles,
            p.sync_wait,
            p.mem_wait,
            p.reads,
            p.read_hits,
            p.read_misses,
            p.spec_read_hits,
            p.writes,
            p.write_hits,
            p.write_misses,
            p.upgrades,
            p.finished_at,
        ] {
            h.put(v);
        }
    }
    let sp = &s.spec;
    let f = &s.faults;
    for v in [
        s.remote_messages,
        s.ni_wait_cycles,
        s.mem_wait_cycles,
        s.mem_busy_cycles,
        s.dir_reads,
        s.dir_writes,
        s.dir_upgrades,
        sp.fr_sent,
        sp.swi_sent,
        sp.fr_unused,
        sp.swi_unused,
        sp.verified,
        sp.dropped,
        sp.swi_inval_sent,
        sp.swi_inval_premature,
        f.drops,
        f.duplicates,
        f.retries,
        f.dup_suppressed,
        f.recovery_cycles,
    ] {
        h.put(v);
    }
    match s.predictor {
        Some(p) => [1, p.seen, p.predicted, p.correct].map(|v| h.put(v)),
        None => [0; 4].map(|v| h.put(v)),
    };
    h.finish()
}

/// Digest of one predictor replay: its counts and its modelled storage.
pub fn digest_eval(e: &TraceEval) -> u64 {
    let mut h = Fnv::new();
    h.put_str(kind_name(e.kind));
    for v in [
        e.depth as u64,
        e.stats.seen,
        e.stats.predicted,
        e.stats.correct,
        e.storage.blocks,
        e.storage.entries,
    ] {
        h.put(v);
    }
    h.finish()
}

/// Checks that processor `p` executed exactly the reads and writes its
/// stream holds (`expected[p] = [reads, writes]`).
pub fn check_counts(stats: &RunStats, expected: &[[u64; 2]]) -> Result<(), String> {
    if stats.per_proc.len() != expected.len() {
        return Err(format!(
            "{} processors reported, {} streams",
            stats.per_proc.len(),
            expected.len()
        ));
    }
    for (p, (ps, want)) in stats.per_proc.iter().zip(expected).enumerate() {
        if [ps.reads, ps.writes] != *want {
            return Err(format!(
                "P{p} executed {} reads and {} writes; its stream has {} and {}",
                ps.reads, ps.writes, want[0], want[1]
            ));
        }
    }
    Ok(())
}

/// Checks one simulation's counts and returns its digest.
fn check_run(stats: &RunStats, expected: &[[u64; 2]]) -> Result<u64, String> {
    check_counts(stats, expected)?;
    Ok(digest_run(stats))
}

fn check_predictor(s: &PredictorStats) -> Result<(), String> {
    if s.correct <= s.predicted && s.predicted <= s.seen {
        Ok(())
    } else {
        Err(format!(
            "correct {} <= predicted {} <= seen {} does not hold",
            s.correct, s.predicted, s.seen
        ))
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `values`; 0 when there are none.
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One op's label and its digest or failure.
type OpResult = (String, Result<u64, String>);

/// One set-up plus timed pass.
struct Iteration {
    traced: bool,
    /// Range of the spans recorded during the iteration.
    spans: (usize, usize),
    /// Host seconds of the set-up and of the timed pass, summed over
    /// their steps.
    setup: Lap,
    pass: Lap,
    ops: Vec<OpResult>,
    /// Statistics of the simulations (the trace recordings on predict16).
    runs: Vec<(AppId, SpecPolicy, RunStats)>,
    /// Predictor replays, with the number of messages each replayed.
    evals: Vec<(AppId, TraceEval, u64)>,
}

struct Runner {
    spec: Spec,
    seed: u64,
    machine: MachineConfig,
    tracer: Tracer,
    clock: Calibrator,
    next_op: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Runner {
    fn new(spec: Spec, seed: u64) -> Self {
        Runner {
            spec,
            seed,
            machine: MachineConfig::with_nodes(spec.nodes),
            tracer: Tracer::new(),
            clock: Calibrator::new(),
            next_op: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn failed_ops_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    fn record(&mut self, (label, result): &OpResult) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(format!("{label}: {e}"));
            }
        }
    }

    /// Builds `app` with the run's seed at the spec's scale.
    fn build_app(&mut self, app: AppId) -> Box<dyn Workload> {
        macro_rules! seeded {
            ($ty:ident, $params:ident) => {{
                let base = if self.spec.quick {
                    $params::quick()
                } else {
                    $params::default_scale()
                };
                Box::new($ty::new(
                    self.machine.clone(),
                    $params {
                        seed: self.seed,
                        ..base
                    },
                )) as Box<dyn Workload>
            }};
        }
        let span = self.tracer.begin(|| format!("workloads.new.{app}"), None);
        let w = match app {
            AppId::Appbt => seeded!(Appbt, AppbtParams),
            AppId::Barnes => seeded!(Barnes, BarnesParams),
            AppId::Em3d => seeded!(Em3d, Em3dParams),
            AppId::Moldyn => seeded!(Moldyn, MoldynParams),
            AppId::Ocean => seeded!(Ocean, OceanParams),
            AppId::Tomcatv => seeded!(Tomcatv, TomcatvParams),
            AppId::Unstructured => seeded!(Unstructured, UnstructuredParams),
        };
        self.tracer.end(span);
        w
    }

    fn new_system(
        &mut self,
        w: &dyn Workload,
        app: AppId,
        policy: SpecPolicy,
        audit: bool,
        op: u64,
    ) -> Result<System, String> {
        let cfg = SystemConfig {
            machine: self.machine.clone(),
            policy,
            faults: self.spec.faults.then(|| fault_plan(self.seed)),
            audit,
            record_trace: self.spec.predict,
            ..SystemConfig::default()
        };
        let span = self.tracer.begin(
            || format!("protocol.new.{app}.{}", policy_name(policy)),
            Some(op),
        );
        let sys = catch_unwind(AssertUnwindSafe(|| System::new(cfg, w)));
        self.tracer.end(span);
        match sys {
            Ok(Ok(sys)) => Ok(sys),
            Ok(Err(e)) => Err(format!("build error: {e}")),
            Err(p) => Err(format!("panic in System::new: {}", panic_message(&*p))),
        }
    }

    /// Runs one system inside a `protocol.<what>.<app>.<policy>` span.
    fn run_system(
        &mut self,
        sys: System,
        what: &str,
        app: AppId,
        policy: SpecPolicy,
        op: u64,
    ) -> Result<RunStats, String> {
        let span = self.tracer.begin(
            || format!("protocol.{what}.{app}.{}", policy_name(policy)),
            Some(op),
        );
        let out = catch_unwind(AssertUnwindSafe(move || sys.try_run()));
        self.tracer.end(span);
        match out {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(e)) => Err(format!("engine error: {e}")),
            Err(p) => Err(format!("panic in try_run: {}", panic_message(&*p))),
        }
    }

    /// The workloads layer on its own: builds and drains every stream
    /// once, without simulating. Returns each app's per-processor
    /// `[reads, writes]` and the total number of ops generated.
    fn generate(&mut self) -> (Vec<Vec<[u64; 2]>>, u64) {
        let gen = self.tracer.begin(|| "bench.gen".into(), None);
        let mut total = 0u64;
        let mut per_app = Vec::new();
        for &app in self.spec.apps {
            let w = self.build_app(app);
            let span = self.tracer.begin(|| format!("workloads.gen.{app}"), None);
            let counts: Vec<[u64; 2]> = w
                .build_streams()
                .into_iter()
                .map(|stream| {
                    let mut c = [0u64; 2];
                    for op in stream {
                        total += 1;
                        match op {
                            Op::Read(_) => c[0] += 1,
                            Op::Write(_) => c[1] += 1,
                            _ => {}
                        }
                    }
                    c
                })
                .collect();
            self.tracer.end(span);
            per_app.push(counts);
        }
        self.tracer.end(gen);
        (per_app, total)
    }

    /// Set-up builds every system; the timed pass runs them.
    fn sim_iteration(&mut self, expected: &[Vec<[u64; 2]>]) -> Iteration {
        let spec = self.spec;
        let mark = self.tracer.mark();
        let mut setup = Lap::default();
        let span = self.tracer.begin(|| "bench.setup".into(), None);
        let mut systems = Vec::new();
        for (ai, &app) in spec.apps.iter().enumerate() {
            let t = Instant::now();
            let w = self.build_app(app);
            setup.add(self.clock.lap(t));
            for &policy in spec.policies {
                let op = self.op_id();
                let label = format!("{app}.{}", policy_name(policy));
                let t = Instant::now();
                let sys = self.new_system(w.as_ref(), app, policy, false, op);
                setup.add(self.clock.lap(t));
                systems.push((ai, app, policy, op, label, sys));
            }
        }
        self.tracer.end(span);

        let mut pass = Lap::default();
        let span = self.tracer.begin(|| "bench.pass".into(), None);
        let mut outs = Vec::with_capacity(systems.len());
        for (ai, app, policy, op, label, sys) in systems {
            let t = Instant::now();
            let stats = sys.and_then(|s| self.run_system(s, "run", app, policy, op));
            pass.add(self.clock.lap(t));
            outs.push((ai, app, policy, label, stats));
        }
        self.tracer.end(span);

        let mut ops = Vec::new();
        let mut runs = Vec::new();
        for (ai, app, policy, label, stats) in outs {
            let result = stats.and_then(|s| {
                let d = check_run(&s, &expected[ai])?;
                runs.push((app, policy, s));
                Ok(d)
            });
            ops.push((label, result));
        }
        Iteration {
            traced: false,
            spans: (mark, self.tracer.mark()),
            setup,
            pass,
            ops,
            runs,
            evals: Vec::new(),
        }
    }

    /// Set-up records each app's Base-DSM trace; the timed pass replays
    /// every trace through every predictor at every depth.
    fn predict_iteration(&mut self, expected: &[Vec<[u64; 2]>]) -> Iteration {
        let spec = self.spec;
        let mark = self.tracer.mark();
        let mut ops = Vec::new();
        let mut runs = Vec::new();
        let mut traces: Vec<(AppId, DirectoryTrace, u64)> = Vec::new();

        let mut setup = Lap::default();
        let span = self.tracer.begin(|| "bench.setup".into(), None);
        for (ai, &app) in spec.apps.iter().enumerate() {
            let label = format!("{app}.base");
            let t = Instant::now();
            let w = self.build_app(app);
            let op = self.op_id();
            let stats = self
                .new_system(w.as_ref(), app, SpecPolicy::Base, false, op)
                .and_then(|s| self.run_system(s, "run", app, SpecPolicy::Base, op));
            setup.add(self.clock.lap(t));
            let result = stats.and_then(|mut s| {
                let d = check_run(&s, &expected[ai])?;
                let trace = s.trace.take().ok_or("no trace was recorded")?;
                let msgs = trace.total_messages();
                traces.push((app, trace, msgs));
                runs.push((app, SpecPolicy::Base, s));
                Ok(d)
            });
            ops.push((label, result));
        }
        self.tracer.end(span);

        let mut pass = Lap::default();
        let span = self.tracer.begin(|| "bench.pass".into(), None);
        let mut outs = Vec::new();
        for (app, trace, msgs) in &traces {
            for kind in PredictorKind::ALL {
                for depth in DEPTHS {
                    let op = self.op_id();
                    let label = format!("{}.d{depth}.{app}", kind_name(kind));
                    let span = self.tracer.begin(|| format!("core.eval.{label}"), Some(op));
                    let t = Instant::now();
                    let eval = catch_unwind(AssertUnwindSafe(|| {
                        evaluate_trace(trace, kind, depth, spec.nodes)
                    }));
                    self.tracer.end(span);
                    pass.add(self.clock.lap(t));
                    outs.push((*app, label, *msgs, eval));
                }
            }
        }
        self.tracer.end(span);

        let mut evals = Vec::new();
        for (app, label, msgs, eval) in outs {
            let result = match eval {
                Ok(e) => check_predictor(&e.stats).map(|()| {
                    evals.push((app, e, msgs));
                    digest_eval(&e)
                }),
                Err(p) => Err(format!("panic in evaluate_trace: {}", panic_message(&*p))),
            };
            ops.push((label, result));
        }
        Iteration {
            traced: false,
            spans: (mark, self.tracer.mark()),
            setup,
            pass,
            ops,
            runs,
            evals,
        }
    }

    /// Untimed: reruns every simulation with the coherence auditor on.
    /// Each must finish without a violation and simulate exactly what
    /// the unaudited run did.
    fn verify(&mut self, expected: &[Vec<[u64; 2]>], baseline: &BTreeMap<String, u64>) {
        let spec = self.spec;
        let span = self.tracer.begin(|| "bench.verify".into(), None);
        for (ai, &app) in spec.apps.iter().enumerate() {
            let w = self.build_app(app);
            for &policy in spec.policies {
                let op = self.op_id();
                let label = format!("{app}.{}", policy_name(policy));
                let result = self
                    .new_system(w.as_ref(), app, policy, true, op)
                    .and_then(|s| self.run_system(s, "audit", app, policy, op))
                    .and_then(|s| {
                        let d = check_run(&s, &expected[ai])?;
                        match baseline.get(&label) {
                            Some(&b) if b != d => {
                                Err("audited statistics differ from the unaudited run".into())
                            }
                            _ => Ok(d),
                        }
                    });
                self.record(&(format!("audit {label}"), result));
            }
        }
        self.tracer.end(span);
    }
}

/// Runs `spec` with `seed`: set-up and timed pass repeated for at least
/// `opts.seconds`, then one audited verification pass.
///
/// # Errors
///
/// Returns an error if the peak resident set size cannot be read.
pub fn run(spec: Spec, seed: u64, opts: &RunOpts) -> Result<Report, String> {
    let mut r = Runner::new(spec, seed);
    r.tracer.set_enabled(opts.trace);
    let gen_mark = r.tracer.mark();
    let (expected, gen_ops) = r.generate();
    let gen_spans = (gen_mark, r.tracer.mark());

    let mut iters: Vec<Iteration> = Vec::new();
    let mut baseline: BTreeMap<String, u64> = BTreeMap::new();
    let mut digest = Fnv::new();
    let start = Instant::now();
    while iters.len() < opts.min_iters || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && iters.len() % 2 == 1;
        r.tracer.set_enabled(traced);
        r.clock.set_enabled(!traced);
        let mut it = if spec.predict {
            r.predict_iteration(&expected)
        } else {
            r.sim_iteration(&expected)
        };
        it.traced = traced;
        let first = iters.is_empty();
        for (label, result) in &mut it.ops {
            if first {
                digest.put_str(label);
                digest.put(*result.as_ref().unwrap_or(&0));
                if let Ok(d) = result {
                    baseline.insert(label.clone(), *d);
                }
            } else if let (Ok(d), Some(b)) = (&*result, baseline.get(label)) {
                if d != b {
                    *result = Err("statistics differ from the first repeat".into());
                }
            }
        }
        for op in &it.ops {
            r.record(op);
        }
        if !first {
            it.runs.clear();
            it.evals.clear();
        }
        iters.push(it);
    }
    let round = |s: f64| (s * 1e3).round() / 1e3;
    eprintln!(
        "dsmbench: {} iterations, timed passes (host s, scaled s) {:?}",
        iters.len(),
        iters
            .iter()
            .map(|it| (round(it.pass.raw), round(it.pass.scaled)))
            .collect::<Vec<_>>()
    );
    let peak_rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    r.tracer.set_enabled(opts.trace);
    let verify_mark = r.tracer.mark();
    r.verify(&expected, &baseline);
    let verify_spans = (verify_mark, r.tracer.mark());

    let first = &iters[0];
    let vmsp_accuracy = mean_of(
        &d1_stats(spec, first, PredictorKind::Vmsp),
        PredictorStats::accuracy,
    );
    let swi_speedup = swi_speedup(first);
    let mut extras = vec![Metric {
        name: "failed_ops_frac".into(),
        value: r.failed_ops_frac(),
        unit: "ratio",
    }];
    if !spec.predict {
        extras.push(Metric {
            name: "swi_speedup".into(),
            value: swi_speedup,
            unit: "ratio",
        });
    }

    let calib = median(r.clock.chunks().iter().copied());
    let scale = REF_CHUNK_S / calib;
    let untraced: Vec<&Iteration> = iters.iter().filter(|it| !it.traced).collect();
    let wall_host = median(untraced.iter().map(|it| it.pass.raw));
    let wall = median(untraced.iter().map(|it| it.pass.scaled));
    extras.push(Metric {
        name: "wall_host_s".into(),
        value: wall_host,
        unit: "s",
    });
    extras.push(Metric {
        name: "calibration_s".into(),
        value: calib,
        unit: "s",
    });
    let metrics = if opts.trace {
        let spans = r.tracer.spans();
        let ctx = LayerCtx {
            spec,
            spans,
            selfs: self_times(spans),
            scale,
            iters: &iters,
            untraced_wall: wall_host,
            gen_spans,
            gen_ops,
            verify_spans,
            swi_speedup,
        };
        ctx.metrics()
    } else {
        let setup = median(untraced.iter().map(|it| it.setup.scaled));
        END_TO_END
            .iter()
            .zip([wall, setup, peak_rss, vmsp_accuracy])
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit,
            })
            .collect()
    };
    Ok(Report {
        attempted: r.attempted,
        failed: r.failed,
        failures: r.failures,
        digest: digest.finish(),
        metrics,
        extras,
        spans: r.tracer.spans().to_vec(),
    })
}

/// Depth-1 predictor counts of each app: the trace replays on
/// predict16; elsewhere the online VMSP of the SWI-DSM runs (the other
/// kinds do not run there).
fn d1_stats(spec: Spec, first: &Iteration, kind: PredictorKind) -> Vec<PredictorStats> {
    if spec.predict {
        first
            .evals
            .iter()
            .filter(|(_, e, _)| e.kind == kind && e.depth == 1)
            .map(|(_, e, _)| e.stats)
            .collect()
    } else if kind == PredictorKind::Vmsp {
        first
            .runs
            .iter()
            .filter(|(_, p, _)| *p == SpecPolicy::SwiFr)
            .filter_map(|(_, _, s)| s.predictor)
            .collect()
    } else {
        Vec::new()
    }
}

fn mean_of(stats: &[PredictorStats], f: fn(&PredictorStats) -> f64) -> f64 {
    mean(&stats.iter().map(f).collect::<Vec<_>>())
}

/// Geometric mean over apps of Base-DSM over SWI-DSM execution cycles
/// (the Figure 9 headline); 0 when the workload runs no SWI-DSM.
fn swi_speedup(first: &Iteration) -> f64 {
    let cycles = |app: AppId, policy: SpecPolicy| {
        first
            .runs
            .iter()
            .find(|(a, p, _)| *a == app && *p == policy)
            .map(|(_, _, s)| s.exec_cycles as f64)
    };
    let logs: Vec<f64> = AppId::ALL
        .iter()
        .filter_map(|&app| {
            Some((cycles(app, SpecPolicy::Base)? / cycles(app, SpecPolicy::SwiFr)?).ln())
        })
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    }
}

/// Inputs to the per-layer metrics of a traced run.
struct LayerCtx<'a> {
    spec: Spec,
    spans: &'a [Span],
    selfs: Vec<u64>,
    /// Host-speed factor applied to span host times.
    scale: f64,
    iters: &'a [Iteration],
    /// Median host seconds of the untraced passes.
    untraced_wall: f64,
    gen_spans: (usize, usize),
    gen_ops: u64,
    verify_spans: (usize, usize),
    swi_speedup: f64,
}

impl LayerCtx<'_> {
    /// Seconds of `ns` at reference host speed.
    fn span_s(&self, ns: u64) -> f64 {
        secs(ns) * self.scale
    }

    fn dur_s(&self, i: usize) -> f64 {
        self.span_s(self.spans[i].dur_ns())
    }

    /// Host-time metrics from the spans of the traced iterations. Each
    /// span's duration and self time is its median over those
    /// iterations, and a metric sums the spans it covers.
    fn span_times(&self) -> BTreeMap<String, f64> {
        let mut dur: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut own: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for it in self.iters.iter().filter(|it| it.traced) {
            for i in it.spans.0..it.spans.1 {
                let name = self.spans[i].name.as_str();
                dur.entry(name).or_default().push(self.dur_s(i));
                own.entry(name)
                    .or_default()
                    .push(self.span_s(self.selfs[i]));
            }
        }
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |k: String, v: f64| *m.entry(k).or_default() += v;
        for (name, d) in &dur {
            let d = median(d.iter().copied());
            let layer = name.split('.').next().unwrap_or("");
            add(format!("{layer}.self_s"), median(own[name].iter().copied()));
            if name.starts_with("protocol.new.") {
                add("protocol.new_s".into(), d);
            } else if let Some(rest) = name.strip_prefix("protocol.run.") {
                add("protocol.run_s".into(), d);
                add(format!("protocol.run_s.{rest}"), d);
            } else if let Some(rest) = name.strip_prefix("core.eval.") {
                // `core.eval.<kind>.d<depth>.<app>`: sum over apps.
                let key = rest.rsplit_once('.').map_or(rest, |(k, _)| k);
                add(format!("core.eval_s.{key}"), d);
            }
        }
        if let (Some(d), Some(o)) = (dur.get("bench.pass"), own.get("bench.pass")) {
            let (o, d) = (median(o.iter().copied()), median(d.iter().copied()));
            m.insert("trace.layer_share".into(), 1.0 - ratio(o, d));
        }
        m
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut m = self.span_times();
        let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let traced_wall = median(
            self.iters
                .iter()
                .filter(|it| it.traced)
                .map(|it| it.pass.raw),
        );
        m.insert(
            "trace.overhead".into(),
            ratio(traced_wall, self.untraced_wall),
        );
        let run_s = get(&m, "protocol.run_s");
        if self.spec.predict {
            m.insert("protocol.trace_record_s".into(), run_s);
        }

        // The workloads layer, measured once.
        let gen_s: f64 = (self.gen_spans.0..self.gen_spans.1)
            .filter(|&i| self.spans[i].name.starts_with("workloads.gen."))
            .map(|i| self.dur_s(i))
            .sum();
        m.insert("workloads.gen_s".into(), gen_s);
        m.insert("workloads.ops".into(), self.gen_ops as f64);
        m.insert(
            "workloads.ops_per_s".into(),
            ratio(self.gen_ops as f64, gen_s),
        );

        // The auditor's cost, from the verification pass.
        let audit_s: f64 = (self.verify_spans.0..self.verify_spans.1)
            .filter(|&i| self.spans[i].name.starts_with("protocol.audit."))
            .map(|i| self.dur_s(i))
            .sum();
        m.insert("protocol.audit_overhead".into(), ratio(audit_s, run_s));

        // Simulated counts, from the first iteration.
        let first = &self.iters[0];
        let sum = |f: &dyn Fn(&RunStats) -> u64| {
            first.runs.iter().map(|(_, _, s)| f(s)).sum::<u64>() as f64
        };
        let events = sum(&|s| s.sim_events);
        let dir_requests = sum(&|s| s.dir_reads + s.dir_writes + s.dir_upgrades);
        let sent = sum(&|s| s.spec.fr_sent + s.spec.swi_sent);
        let unused = sum(&|s| s.spec.fr_unused + s.spec.swi_unused);
        let retries = sum(&|s| s.faults.retries);
        for (k, v) in [
            ("protocol.sim_events", events),
            ("protocol.events_per_s", ratio(events, run_s)),
            ("protocol.ns_per_event", ratio(run_s * 1e9, events)),
            ("protocol.remote_messages", sum(&|s| s.remote_messages)),
            ("protocol.dir_requests", dir_requests),
            ("protocol.ni_wait_cycles", sum(&|s| s.ni_wait_cycles)),
            ("protocol.mem_wait_cycles", sum(&|s| s.mem_wait_cycles)),
            ("protocol.spec.sent", sent),
            (
                "protocol.spec.useful_ratio",
                if sent > 0.0 { 1.0 - unused / sent } else { 0.0 },
            ),
            ("protocol.swi_speedup", self.swi_speedup),
            ("protocol.fault.retries", retries),
            ("protocol.fault.drops", sum(&|s| s.faults.drops)),
            (
                "protocol.fault.dup_suppressed",
                sum(&|s| s.faults.dup_suppressed),
            ),
            (
                "protocol.fault.recovery_cycles",
                sum(&|s| s.faults.recovery_cycles),
            ),
            ("protocol.fault.retry_ratio", ratio(retries, dir_requests)),
        ] {
            m.insert(k.into(), v);
        }

        // Predictor model metrics, as means over apps.
        for kind in PredictorKind::ALL {
            let k = kind_name(kind);
            let d1 = d1_stats(self.spec, first, kind);
            m.insert(
                format!("core.accuracy.{k}.d1"),
                mean_of(&d1, PredictorStats::accuracy),
            );
            m.insert(
                format!("core.coverage.{k}.d1"),
                mean_of(&d1, PredictorStats::correct_fraction),
            );
            let evals = first.evals.iter().filter(|(_, e, _)| e.kind == kind);
            let d4: Vec<f64> = evals
                .clone()
                .filter(|(_, e, _)| e.depth == 4)
                .map(|(_, e, _)| e.storage.bytes_per_block())
                .collect();
            m.insert(format!("core.bytes_per_block.{k}.d4"), mean(&d4));
            let msgs: u64 = evals.map(|(_, _, n)| n).sum();
            let eval_s: f64 = DEPTHS
                .iter()
                .map(|d| get(&m, &format!("core.eval_s.{k}.d{d}")))
                .sum();
            m.insert(format!("core.msgs_per_s.{k}"), ratio(msgs as f64, eval_s));
        }

        per_layer_names()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: get(&m, &name),
                name,
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_stats_record_counts_as_failed() {
        let spec = Spec {
            name: "ocean-swi",
            apps: &[AppId::Ocean],
            policies: &[SpecPolicy::SwiFr],
            quick: true,
            ..WORKLOADS[0]
        };
        let mut r = Runner::new(spec, 5);
        let (expected, _) = r.generate();
        let it = r.sim_iteration(&expected);
        for op in &it.ops {
            r.record(op);
        }
        assert_eq!((r.attempted, r.failed), (1, 0), "{:?}", r.failures);

        let mut bad = it.runs[0].2.clone();
        bad.per_proc[3].reads += 1;
        r.record(&("ocean.swi".into(), check_run(&bad, &expected[0])));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!((r.failed_ops_frac() - 0.5).abs() < 1e-12);
        assert!(
            r.failures[0].starts_with("ocean.swi: P3 executed"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn predictor_invariant_is_checked() {
        let ok = PredictorStats {
            seen: 3,
            predicted: 2,
            correct: 1,
        };
        let bad = PredictorStats {
            seen: 3,
            predicted: 2,
            correct: 3,
        };
        assert!(check_predictor(&ok).is_ok());
        assert!(check_predictor(&bad).is_err());
    }
}
