//! The whole-machine simulator: configuration, construction, the run,
//! and the end-of-run checks and statistics.
//!
//! All protocol logic and simulation state live in the machine (see
//! `machine.rs`), which runs one event loop over one
//! [`EventQueue`](specdsm_sim::EventQueue) and resolves
//! synchronization inline. This module validates a [`SystemConfig`],
//! builds the machine for a workload, runs it to quiescence, checks
//! that every processor finished and that the caches agree with the
//! directories, and folds the machine's counters into [`RunStats`].
//! A run either completes or stops with an [`EngineError`] — a
//! workload deadlock or an exceeded `max_cycles` guard. See
//! `docs/ARCHITECTURE.md` for the full design.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use specdsm_core::Vmsp;
use specdsm_types::{ConfigError, FaultPlan, MachineConfig, ProcId, Workload};

use crate::directory::DirState;
use crate::machine::Machine;
use crate::processor::{Blocked, Processor};
use crate::spec::{SpecEngine, SpecPolicy, SpecStore};
use crate::stats::RunStats;

/// Configuration of one simulated system run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The machine (node count, latencies, home mapping).
    pub machine: MachineConfig,
    /// Speculation policy (Base / FR / SWI+FR).
    pub policy: SpecPolicy,
    /// History depth of the online VMSP (the paper uses 1).
    pub predictor_depth: usize,
    /// Record the per-block directory message trace (for offline
    /// predictor evaluation).
    pub record_trace: bool,
    /// Per-processor cache capacity in blocks. `None` (the paper's
    /// configuration) means unbounded — no capacity or conflict
    /// traffic. `Some(n)` enables finite-cache mode: read-only lines
    /// evict LRU and capacity misses reappear (the "inflated traffic"
    /// the paper's methodology deliberately excludes).
    pub cache_blocks: Option<usize>,
    /// Optional safety limit: the run stops with
    /// [`EngineError::CycleLimit`] at the first event past it (guards
    /// against runaway workloads in development).
    pub max_cycles: Option<u64>,
    /// Optional deterministic fault-injection plan for remote request
    /// messages (drop / duplicate / extra delay), with requester-side
    /// timeout-and-retry recovery. `None` — or any plan whose
    /// [`FaultPlan::is_noop`] holds — runs the reliable network
    /// bit-for-bit unchanged.
    pub faults: Option<FaultPlan>,
    /// Run the runtime coherence auditor alongside the protocol: a
    /// shadow copy of ownership/reader state checked on every send and
    /// delivery, failing fast (with a recent-message trace for the
    /// offending block) on any invariant violation. Purely
    /// observational — enabling it never perturbs timing or statistics.
    pub audit: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            machine: MachineConfig::paper_machine(),
            policy: SpecPolicy::Base,
            predictor_depth: 1,
            record_trace: false,
            cache_blocks: None,
            max_cycles: None,
            faults: None,
            audit: false,
        }
    }
}

/// Error constructing a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The machine configuration is invalid.
    Config(ConfigError),
    /// The workload's processor count does not match the machine.
    ProcCountMismatch {
        /// Processors the workload is written for.
        workload: usize,
        /// Nodes in the machine.
        machine: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "invalid machine config: {e}"),
            BuildError::ProcCountMismatch { workload, machine } => write!(
                f,
                "workload uses {workload} processors but the machine has {machine} nodes"
            ),
        }
    }
}

impl Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// A run that could not complete, returned by
/// [`GenericSystem::try_run`].
///
/// Both variants are properties of the workload and configuration, not
/// of the protocol: a run that stops here left the machine in a
/// consistent state. Protocol bugs — an exhausted retry budget, a
/// coherence-audit violation, an end-of-run coherence failure — still
/// panic, with a backtrace at the offending event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// All activity drained while processors were still blocked, e.g.
    /// on mismatched barrier or lock usage.
    Deadlock {
        /// Cycle of the last event processed.
        cycle: u64,
        /// The processors that never finished, each with the state it
        /// is stuck in.
        stuck: Vec<String>,
        /// Processors in the machine.
        procs: usize,
    },
    /// An event was due past the configured
    /// [`SystemConfig::max_cycles`].
    CycleLimit {
        /// The configured limit.
        limit: u64,
        /// Cycle of the first event past it (not processed).
        cycle: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Deadlock {
                cycle,
                stuck,
                procs,
            } => write!(
                f,
                "deadlock at cycle {cycle}: {} of {procs} processors never finished: {}",
                stuck.len(),
                stuck.join("; ")
            ),
            EngineError::CycleLimit { limit, cycle } => write!(
                f,
                "simulation exceeded max_cycles = {limit} (next event at cycle {cycle})"
            ),
        }
    }
}

impl Error for EngineError {}

/// A complete simulated DSM: processors, caches, directories, network,
/// synchronization, and (optionally) the speculation engine.
///
/// Generic over the speculation-state backend so differential tests can
/// run the same workload against the production arena store and the
/// retained map reference ([`MapSpecStore`](crate::MapSpecStore)) and
/// diff the results; everything else uses the [`System`] alias, which
/// fixes the backend to the arena-backed [`Vmsp`].
///
/// Build one with [`System::new`] and consume it with [`System::run`].
pub struct GenericSystem<V: SpecStore = Vmsp> {
    cfg: SystemConfig,
    machine: Machine<V>,
    workload_name: String,
}

/// The default speculative DSM: [`GenericSystem`] over the arena-backed
/// [`Vmsp`] speculation store.
pub type System = GenericSystem<Vmsp>;

impl<V: SpecStore> GenericSystem<V> {
    /// Builds a system running `workload` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the machine configuration is invalid or
    /// the workload's processor count does not match the node count.
    pub fn new(cfg: SystemConfig, workload: &dyn Workload) -> Result<Self, BuildError> {
        cfg.machine.validate()?;
        if let Some(plan) = &cfg.faults {
            plan.validate()?;
        }
        // Normalize an all-zero plan to "no plan": the fault path is
        // never entered, so such configs stay bit-identical to the
        // reliable network (no timeout events, no dedup bookkeeping).
        let faults: Option<Arc<FaultPlan>> = cfg
            .faults
            .as_ref()
            .filter(|plan| !plan.is_noop())
            .map(|plan| Arc::new(plan.clone()));
        let n = cfg.machine.num_nodes;
        if workload.num_procs() != n {
            return Err(BuildError::ProcCountMismatch {
                workload: workload.num_procs(),
                machine: n,
            });
        }
        let streams = workload.build_streams();
        assert_eq!(
            streams.len(),
            n,
            "workload returned {} streams for {} processors",
            streams.len(),
            n
        );
        let procs: Vec<Processor> = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut proc = Processor::new(ProcId(i), s, cfg.machine.latency.cache_hit);
                if let Some(blocks) = cfg.cache_blocks {
                    proc.cache = crate::Cache::with_capacity(blocks);
                }
                proc
            })
            .collect();
        let machine = Machine::new(
            procs,
            &cfg.machine,
            SpecEngine::new(cfg.policy, cfg.predictor_depth, &cfg.machine),
            cfg.record_trace,
            cfg.max_cycles,
            faults,
            cfg.audit,
        );
        Ok(GenericSystem {
            machine,
            workload_name: workload.name().to_string(),
            cfg,
        })
    }

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics with the error's message on any [`EngineError`] (a
    /// deadlock, or `max_cycles` exceeded), and on the protocol-bug
    /// panics [`GenericSystem::try_run`] documents.
    pub fn run(self) -> RunStats {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, returning a deadlock or an
    /// exceeded cycle limit as an [`EngineError`] value.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] if the event queue drains
    /// while processors are still blocked, and
    /// [`EngineError::CycleLimit`] if an event falls past
    /// [`SystemConfig::max_cycles`].
    ///
    /// # Panics
    ///
    /// Panics on protocol bugs: an exhausted request retry budget, a
    /// coherence-audit violation, or an end-of-run coherence failure.
    pub fn try_run(mut self) -> Result<RunStats, EngineError> {
        self.machine.seed();
        self.machine.run()?;
        self.check_quiescent()?;
        self.check_coherence();
        Ok(self.into_stats())
    }

    // ------------------------------------------------------------------
    // End-of-run checks and statistics
    // ------------------------------------------------------------------

    /// Asserts the end-of-run coherence invariants: no in-flight
    /// transactions, directory state consistent with every cache
    /// (sharers hold read-only copies of the memory version, exclusive
    /// owners hold the writable copy, nobody else holds anything).
    ///
    /// # Panics
    ///
    /// Panics on any violation — these are protocol bugs, not workload
    /// errors.
    fn check_coherence(&self) {
        let m = &self.machine;
        for dir in &m.dirs {
            dir.check_invariants();
            for (block, state, version) in dir.iter() {
                assert!(
                    !dir.is_busy(block),
                    "{block}: transaction still in flight at quiescence"
                );
                match state {
                    DirState::Idle => {
                        for proc in &m.procs {
                            assert_eq!(
                                proc.cache().state(block),
                                None,
                                "{block} is Idle but {} holds a copy",
                                proc.id()
                            );
                        }
                    }
                    DirState::Shared(readers) => {
                        for proc in &m.procs {
                            let cached = proc.cache().state(block);
                            if readers.contains(proc.id()) {
                                // In finite-cache mode a listed sharer
                                // may have silently evicted its copy;
                                // the directory is allowed to be stale.
                                if self.cfg.cache_blocks.is_none() || cached.is_some() {
                                    assert!(
                                        matches!(cached, Some(crate::LineState::Shared { .. })),
                                        "{block}: sharer {} holds {cached:?}",
                                        proc.id()
                                    );
                                    assert_eq!(
                                        proc.cache().version(block),
                                        Some(version),
                                        "{block}: stale copy at {}",
                                        proc.id()
                                    );
                                }
                            } else {
                                assert_eq!(
                                    cached,
                                    None,
                                    "{block}: non-sharer {} holds a copy",
                                    proc.id()
                                );
                            }
                        }
                    }
                    DirState::Exclusive(owner) => {
                        for proc in &m.procs {
                            let cached = proc.cache().state(block);
                            if proc.id() == owner {
                                assert_eq!(
                                    cached,
                                    Some(crate::LineState::Exclusive),
                                    "{block}: owner {} lost its copy",
                                    owner
                                );
                            } else {
                                assert_eq!(
                                    cached,
                                    None,
                                    "{block}: {} holds a copy besides the owner",
                                    proc.id()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Checks that every processor finished.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] naming the stuck processors.
    fn check_quiescent(&self) -> Result<(), EngineError> {
        let m = &self.machine;
        if m.done_count == m.procs.len() {
            return Ok(());
        }
        Err(EngineError::Deadlock {
            cycle: m.last_cycle.raw(),
            stuck: m
                .procs
                .iter()
                .filter(|p| p.blocked != Blocked::Done)
                .map(|p| format!("{}: {:?}", p.id(), p.blocked))
                .collect(),
            procs: m.procs.len(),
        })
    }

    fn into_stats(self) -> RunStats {
        let cfg = self.cfg;
        let m = self.machine;
        let per_proc: Vec<_> = m.procs.iter().map(|p| p.stats).collect();
        let exec_cycles = per_proc.iter().map(|p| p.finished_at).max().unwrap_or(0);
        RunStats {
            workload: self.workload_name,
            policy: cfg.policy,
            exec_cycles,
            sim_events: m.queue.scheduled_total(),
            per_proc,
            remote_messages: m.net.messages_sent(),
            ni_wait_cycles: m.net.ni_wait_cycles(),
            mem_wait_cycles: m
                .mems
                .iter()
                .map(specdsm_sim::FifoResource::wait_cycles)
                .sum(),
            mem_busy_cycles: m
                .mems
                .iter()
                .map(specdsm_sim::FifoResource::busy_cycles)
                .sum(),
            dir_reads: m.dir_reads,
            dir_writes: m.dir_writes,
            dir_upgrades: m.dir_upgrades,
            spec: m.spec.stats,
            faults: m.fstats,
            predictor: cfg
                .policy
                .uses_predictor()
                .then(|| m.spec.vmsp.predictor_stats()),
            trace: m.trace.map(|mut trace| {
                trace.compact();
                trace
            }),
        }
    }
}

impl<V: SpecStore> fmt::Debug for GenericSystem<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("workload", &self.workload_name)
            .field("policy", &self.cfg.policy)
            .field("machine", &self.machine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{BlockAddr, LockId, NodeId, Op, OpStream};

    /// A workload described directly as per-processor op vectors.
    struct Script {
        name: &'static str,
        ops: Vec<Vec<Op>>,
    }

    impl Workload for Script {
        fn name(&self) -> &str {
            self.name
        }
        fn num_procs(&self) -> usize {
            self.ops.len()
        }
        fn build_streams(&self) -> Vec<OpStream> {
            self.ops
                .iter()
                .map(|v| Box::new(v.clone().into_iter()) as OpStream)
                .collect()
        }
    }

    fn machine(n: usize) -> MachineConfig {
        MachineConfig::with_nodes(n)
    }

    fn run_script(n: usize, policy: SpecPolicy, ops: Vec<Vec<Op>>) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            max_cycles: Some(50_000_000),
            ..SystemConfig::default()
        };
        System::new(
            cfg,
            &Script {
                name: "script",
                ops,
            },
        )
        .expect("valid system")
        .run()
    }

    /// Block homed on node `h` (first page of that home).
    fn homed(h: usize) -> BlockAddr {
        MachineConfig::with_nodes(4).page_on(NodeId(h), 0)
    }

    #[test]
    fn remote_clean_read_costs_418() {
        // P1 reads a block homed on node 0 that nobody caches: the
        // paper's Table 1 round-trip miss latency.
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![], vec![Op::Read(b)], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[1].mem_wait, 418);
        assert_eq!(stats.per_proc[1].read_misses, 1);
    }

    #[test]
    fn local_clean_read_costs_104() {
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![Op::Read(b)], vec![], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[0].mem_wait, 104);
    }

    #[test]
    fn rtl_is_about_four() {
        let m = machine(4);
        assert!((m.remote_to_local_ratio() - 4.02).abs() < 0.01);
    }

    #[test]
    fn producer_consumer_values_flow() {
        // P0 writes, barrier, P1..P3 read: everyone must see version 1.
        let b = homed(0);
        let mut ops = vec![vec![Op::Write(b), Op::Barrier]];
        for _ in 1..4 {
            ops.push(vec![Op::Barrier, Op::Read(b)]);
        }
        let stats = run_script(4, SpecPolicy::Base, ops);
        assert_eq!(stats.dir_writes, 1);
        assert_eq!(stats.dir_reads, 3);
        // The first reader invalidates the writable copy: a writeback
        // happened, so remote messages flow.
        assert!(stats.remote_messages > 0);
    }

    #[test]
    fn write_after_readers_invalidates_all() {
        // Two readers cache the block; a writer then upgrades... writer
        // had no copy, so it is a write miss that invalidates both.
        let b = homed(0);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![
                vec![Op::Barrier, Op::Write(b)],
                vec![Op::Read(b), Op::Barrier],
                vec![Op::Read(b), Op::Barrier],
                vec![Op::Barrier],
            ],
        );
        assert_eq!(stats.per_proc[0].write_misses, 1);
        // The write had to collect 2 invalidation acks; it costs more
        // than a clean write.
        assert!(stats.per_proc[0].mem_wait > 418);
    }

    #[test]
    fn upgrade_in_place_is_cheaper_than_write_miss() {
        let b = homed(0);
        // P1 reads then writes (upgrade); nobody else caches it.
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![vec![], vec![Op::Read(b), Op::Write(b)], vec![], vec![]],
        );
        assert_eq!(stats.per_proc[1].upgrades, 1);
        // Upgrade round trip has no memory access: strictly less than
        // a 418 read plus a 418 write.
        assert!(stats.per_proc[1].mem_wait < 418 + 418);
    }

    #[test]
    fn migratory_write_write_transfers_ownership() {
        // Home (node 3) is distinct from both writers, so P1's write
        // pays the full three-hop invalidate + writeback + grant path:
        // 157 (req) + 157 (inval) + 157 (wb) + 104 (mem) + 157 (grant).
        let b = homed(3);
        let stats = run_script(
            4,
            SpecPolicy::Base,
            vec![
                vec![Op::Write(b), Op::Barrier],
                vec![Op::Barrier, Op::Write(b)],
                vec![Op::Barrier],
                vec![Op::Barrier],
            ],
        );
        assert_eq!(stats.per_proc[1].write_misses, 1);
        assert_eq!(stats.per_proc[1].mem_wait, 157 * 4 + 104);
    }

    #[test]
    fn deterministic_across_runs() {
        let b = homed(0);
        let ops = || {
            vec![
                vec![Op::Write(b), Op::Barrier, Op::Read(b.offset(1))],
                vec![Op::Barrier, Op::Read(b)],
                vec![Op::Barrier, Op::Read(b)],
                vec![Op::Compute(13), Op::Barrier],
            ]
        };
        let a = run_script(4, SpecPolicy::Base, ops());
        let c = run_script(4, SpecPolicy::Base, ops());
        assert_eq!(a.exec_cycles, c.exec_cycles);
        assert_eq!(a.remote_messages, c.remote_messages);
        assert_eq!(a.sim_events, c.sim_events);
        assert!(a.sim_events > 0, "event count is recorded");
    }

    #[test]
    fn wrong_proc_count_rejected() {
        let cfg = SystemConfig {
            machine: machine(4),
            ..SystemConfig::default()
        };
        let err = System::new(
            cfg,
            &Script {
                name: "bad",
                ops: vec![vec![]],
            },
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::ProcCountMismatch { .. }));
    }

    #[test]
    fn machine_wider_than_one_reader_word_is_rejected() {
        // One bit per processor in a u64 reader set: 65 nodes is an
        // error value, not a panic deep inside the directory.
        let cfg = SystemConfig {
            machine: machine(65),
            ..SystemConfig::default()
        };
        let err = System::new(
            cfg,
            &Script {
                name: "wide",
                ops: vec![vec![]; 65],
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            BuildError::Config(ConfigError::TooManyNodes {
                requested: 65,
                max: 64
            })
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_barriers_deadlock() {
        let _ = run_script(2, SpecPolicy::Base, vec![vec![Op::Barrier], vec![]]);
    }

    #[test]
    fn deadlock_is_returned_as_a_value() {
        let cfg = SystemConfig {
            machine: machine(2),
            ..SystemConfig::default()
        };
        let script = Script {
            name: "stuck",
            ops: vec![vec![Op::Barrier], vec![]],
        };
        let err = System::new(cfg, &script).unwrap().try_run().unwrap_err();
        let EngineError::Deadlock {
            ref stuck, procs, ..
        } = err
        else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert_eq!(procs, 2);
        assert_eq!(stuck.len(), 1, "only P0 waits at the barrier: {stuck:?}");
        assert!(stuck[0].contains("Barrier"), "{stuck:?}");
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn cycle_limit_is_returned_as_a_value() {
        // A remote read cannot complete within 10 cycles: the read's
        // reply is the first event past the limit.
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(10),
            ..SystemConfig::default()
        };
        let script = Script {
            name: "tiny",
            ops: vec![vec![], vec![Op::Read(homed(0))], vec![], vec![]],
        };
        let err = System::new(cfg, &script).unwrap().try_run().unwrap_err();
        let EngineError::CycleLimit { limit, cycle } = err else {
            panic!("expected a cycle limit, got {err:?}");
        };
        assert_eq!(limit, 10);
        assert!(cycle > limit, "{cycle}");
        assert!(err.to_string().contains("max_cycles"), "{err}");
    }

    #[test]
    #[should_panic(expected = "max_cycles")]
    fn run_panics_past_max_cycles() {
        let cfg = SystemConfig {
            machine: machine(4),
            max_cycles: Some(10),
            ..SystemConfig::default()
        };
        let _ = System::new(
            cfg,
            &Script {
                name: "tiny",
                ops: vec![vec![], vec![Op::Read(homed(0))], vec![], vec![]],
            },
        )
        .unwrap()
        .run();
    }

    #[test]
    fn fr_speculation_forwards_to_predicted_readers() {
        // Repeated producer/consumer phases: producer P0 writes, readers
        // P1..P3 read *staggered in time*. Under FR, once the pattern is
        // learned, the first read triggers pushes to the later readers,
        // whose reads then hit locally.
        let b = homed(0);
        let iters = 10;
        let mut p0 = Vec::new();
        let mut readers: Vec<Vec<Op>> = vec![Vec::new(); 3];
        for _ in 0..iters {
            p0.push(Op::Write(b));
            p0.push(Op::Barrier);
            p0.push(Op::Barrier);
            for (k, r) in readers.iter_mut().enumerate() {
                r.push(Op::Barrier);
                // Stagger so the speculative copies outrun the reads.
                r.push(Op::Compute(2_000 * k as u64));
                r.push(Op::Read(b));
                r.push(Op::Barrier);
            }
        }
        let mut ops = vec![p0];
        ops.extend(readers);
        let base = run_script(4, SpecPolicy::Base, ops.clone());
        let fr = run_script(4, SpecPolicy::FirstRead, ops);
        assert!(fr.spec.fr_sent > 0, "FR sent speculative copies");
        let spec_hits: u64 = fr.per_proc.iter().map(|p| p.spec_read_hits).sum();
        assert!(spec_hits > 0, "some reads were satisfied speculatively");
        assert!(
            fr.exec_cycles <= base.exec_cycles,
            "FR must not slow down a perfectly predictable pattern: {} vs {}",
            fr.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn swi_speculation_triggers_on_producer_moving_on() {
        // The producer fills a two-block message buffer each iteration,
        // then the consumers read it — the paper's canonical SWI case:
        // writing b2 signals that b1 is done, so SWI invalidates b1
        // early and pushes it to the predicted readers.
        let b1 = homed(0);
        let b2 = homed(0).offset(1);
        let iters = 12;
        let mut p0 = Vec::new();
        let mut rdr = Vec::new();
        for _ in 0..iters {
            p0.push(Op::Write(b1));
            p0.push(Op::Compute(500));
            p0.push(Op::Write(b2));
            p0.push(Op::Barrier);
            p0.push(Op::Barrier);
            rdr.push(Op::Barrier);
            rdr.push(Op::Read(b1));
            rdr.push(Op::Read(b2));
            rdr.push(Op::Barrier);
        }
        let ops = vec![p0, rdr.clone(), rdr.clone(), rdr];
        let swi = run_script(4, SpecPolicy::SwiFr, ops);
        assert!(swi.spec.swi_inval_sent > 0, "SWI invalidations issued");
        assert!(swi.spec.swi_sent > 0, "SWI pushed copies to readers");
    }

    #[test]
    fn spec_policies_preserve_read_values() {
        // All three systems must execute the same program with the same
        // per-processor access counts (speculation is transparent).
        let b = homed(1);
        let ops = || {
            let mut p1 = Vec::new();
            let mut rdr = Vec::new();
            for _ in 0..8 {
                p1.push(Op::Write(b));
                p1.push(Op::Barrier);
                p1.push(Op::Barrier);
                rdr.push(Op::Barrier);
                rdr.push(Op::Read(b));
                rdr.push(Op::Barrier);
            }
            vec![rdr.clone(), p1, rdr.clone(), rdr]
        };
        let runs: Vec<RunStats> = SpecPolicy::ALL
            .iter()
            .map(|&policy| run_script(4, policy, ops()))
            .collect();
        for r in &runs {
            for (i, p) in r.per_proc.iter().enumerate() {
                assert_eq!(
                    p.reads + p.writes,
                    runs[0].per_proc[i].reads + runs[0].per_proc[i].writes,
                    "{}: proc {i} executed a different number of accesses",
                    r.policy
                );
            }
        }
    }

    #[test]
    fn trace_records_requests_and_acks() {
        let b = homed(0);
        let cfg = SystemConfig {
            machine: machine(2),
            record_trace: true,
            ..SystemConfig::default()
        };
        let script = Script {
            name: "trace",
            ops: vec![
                vec![Op::Write(b), Op::Barrier],
                vec![Op::Barrier, Op::Read(b)],
            ],
        };
        let stats = System::new(cfg, &script).unwrap().run();
        let trace = stats.trace.expect("trace recorded");
        assert_eq!(trace.num_blocks(), 1);
        // write + read + the read-triggered writeback ack.
        assert_eq!(trace.total_requests(), 2);
        assert!(trace.total_messages() >= 3);
    }

    // ------------------------------------------------------------------
    // Fault injection and audit
    // ------------------------------------------------------------------

    fn assert_same_model_output(a: &RunStats, b: &RunStats, ctx: &str) {
        assert_eq!(a.exec_cycles, b.exec_cycles, "{ctx}: exec_cycles");
        assert_eq!(a.sim_events, b.sim_events, "{ctx}: sim_events");
        assert_eq!(a.remote_messages, b.remote_messages, "{ctx}: messages");
        assert_eq!(a.ni_wait_cycles, b.ni_wait_cycles, "{ctx}: ni_wait");
        assert_eq!(a.mem_wait_cycles, b.mem_wait_cycles, "{ctx}: mem_wait");
        assert_eq!(a.dir_reads, b.dir_reads, "{ctx}: dir_reads");
        assert_eq!(a.dir_writes, b.dir_writes, "{ctx}: dir_writes");
        assert_eq!(a.dir_upgrades, b.dir_upgrades, "{ctx}: dir_upgrades");
        assert_eq!(a.spec, b.spec, "{ctx}: spec stats");
        assert_eq!(a.predictor, b.predictor, "{ctx}: predictor stats");
        assert_eq!(a.per_proc, b.per_proc, "{ctx}: per-proc stats");
    }

    /// A sync- and speculation-heavy script exercising barriers, locks,
    /// invalidations and (under FR/SWI) the speculative paths.
    fn mixed_script(n: usize) -> Vec<Vec<Op>> {
        let m = MachineConfig::with_nodes(n);
        let blocks: Vec<BlockAddr> = (0..n).map(|h| m.page_on(NodeId(h), 0)).collect();
        (0..n)
            .map(|p| {
                let mut ops = Vec::new();
                for it in 0..6u64 {
                    ops.push(Op::Compute(37 * (p as u64 + 1) + 11 * it));
                    // Everyone writes its own block, then reads the
                    // left neighbor's (producer/consumer ring).
                    ops.push(Op::Write(blocks[p]));
                    ops.push(Op::Barrier);
                    ops.push(Op::Read(blocks[(p + n - 1) % n]));
                    ops.push(Op::Compute(13 * (it + 1) * ((p as u64 % 3) + 1)));
                    // Lock-protected reduction on a shared block.
                    ops.push(Op::Lock(LockId(0)));
                    ops.push(Op::Read(blocks[0].offset(7)));
                    ops.push(Op::Write(blocks[0].offset(7)));
                    ops.push(Op::Unlock(LockId(0)));
                    ops.push(Op::Barrier);
                }
                ops
            })
            .collect()
    }

    use crate::stats::FaultStats;

    /// A plan aggressive enough that a few dozen remote requests are
    /// guaranteed to see drops, duplicates, and delays.
    fn heavy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            drop_rate: 0.15,
            dup_rate: 0.10,
            delay_rate: 0.20,
            delay_max: 300,
            slow_nodes: vec![1],
            slow_extra: 45,
            ..FaultPlan::new(seed)
        }
    }

    fn run_faulty(
        n: usize,
        policy: SpecPolicy,
        faults: Option<FaultPlan>,
        audit: bool,
        ops: Vec<Vec<Op>>,
    ) -> RunStats {
        let cfg = SystemConfig {
            machine: machine(n),
            policy,
            max_cycles: Some(50_000_000),
            faults,
            audit,
            ..SystemConfig::default()
        };
        System::new(
            cfg,
            &Script {
                name: "faulty",
                ops,
            },
        )
        .expect("valid system")
        .run()
    }

    #[test]
    fn sequential_faulty_run_recovers_under_audit() {
        let s = run_faulty(
            4,
            SpecPolicy::Base,
            Some(heavy_plan(0xFEED)),
            true,
            mixed_script(4),
        );
        assert!(s.faults.drops > 0, "drops observed: {:?}", s.faults);
        assert!(s.faults.retries > 0, "retries observed: {:?}", s.faults);
        assert!(
            s.faults.recovery_cycles > 0,
            "recovery wait accounted: {:?}",
            s.faults
        );
    }

    #[test]
    fn duplicates_are_suppressed_at_the_home() {
        // Duplication only, no drops: every duplicate that arrives must
        // be swallowed by the watermark, and nothing needs retrying
        // fast enough to matter.
        let plan = FaultPlan {
            dup_rate: 0.5,
            ..FaultPlan::new(99)
        };
        let s = run_faulty(4, SpecPolicy::Base, Some(plan), true, mixed_script(4));
        assert!(s.faults.duplicates > 0);
        assert_eq!(s.faults.dup_suppressed, s.faults.duplicates);
        assert_eq!(s.faults.drops, 0);
    }

    #[test]
    fn zero_rate_plan_and_audit_are_inert() {
        let base = run_script(4, SpecPolicy::SwiFr, mixed_script(4));
        let z = run_faulty(
            4,
            SpecPolicy::SwiFr,
            Some(FaultPlan::new(3)),
            true,
            mixed_script(4),
        );
        assert_same_model_output(&base, &z, "zero-rate");
        assert_eq!(z.faults, FaultStats::default());
    }
}
