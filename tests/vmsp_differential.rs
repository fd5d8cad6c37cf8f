//! Differential replay: the arena-backed VMSP speculation store vs the
//! retained map-based reference implementation.
//!
//! The arena rework replaced `FxHashMap<BlockAddr, VBlock>` +
//! `FxHashMap<(BlockAddr, ProcId), …>` with dense per-home `VSlot`
//! arenas and per-block ticket slabs. It is a pure storage-layout
//! change: running the **entire workload suite** under the speculative
//! policies with both backends must produce bit-identical model output
//! — execution cycles, every message/request counter, speculation
//! activity, and online predictor accuracy. `MapSpecStore` preserves
//! the pre-arena storage design exactly for this comparison (the PR 2
//! dense-directory-vs-map pattern, applied to the speculation side).
//!
//! Besides the application suite, the comparison covers finite caches,
//! the adversarial conflict storms (hotspot home, migratory
//! ping-pong, false sharing), and the whole suite on a 64-node
//! machine, where read vectors fill the whole reader-set word.
//!
//! Scale: `Quick` by default so `cargo test` stays fast; CI re-runs
//! this file in **release** mode (covering the LTO build) with
//! `SPECDSM_DIFF_SCALE=default` for the full-size inputs.

use specdsm::prelude::*;
use specdsm::protocol::{GenericSystem, MapSpecStore, SpecStore, SystemConfig};

fn scale() -> Scale {
    match std::env::var("SPECDSM_DIFF_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        Ok("paper") => Scale::Paper,
        _ => Scale::Quick,
    }
}

fn run_with<V: SpecStore>(
    machine: &MachineConfig,
    policy: SpecPolicy,
    w: &dyn Workload,
) -> RunStats {
    let cfg = SystemConfig {
        machine: machine.clone(),
        policy,
        max_cycles: Some(500_000_000),
        ..SystemConfig::default()
    };
    GenericSystem::<V>::new(cfg, w).expect("valid system").run()
}

/// Asserts every model-output field of two runs is identical. Wall
/// clock and storage layout are the only things allowed to differ.
fn assert_bit_identical(arena: &RunStats, map: &RunStats, ctx: &str) {
    assert_eq!(arena.exec_cycles, map.exec_cycles, "{ctx}: exec_cycles");
    assert_eq!(arena.sim_events, map.sim_events, "{ctx}: sim_events");
    assert_eq!(
        arena.remote_messages, map.remote_messages,
        "{ctx}: remote_messages"
    );
    assert_eq!(
        arena.ni_wait_cycles, map.ni_wait_cycles,
        "{ctx}: ni_wait_cycles"
    );
    assert_eq!(
        arena.mem_wait_cycles, map.mem_wait_cycles,
        "{ctx}: mem_wait_cycles"
    );
    assert_eq!(
        arena.mem_busy_cycles, map.mem_busy_cycles,
        "{ctx}: mem_busy_cycles"
    );
    assert_eq!(arena.dir_reads, map.dir_reads, "{ctx}: dir_reads");
    assert_eq!(arena.dir_writes, map.dir_writes, "{ctx}: dir_writes");
    assert_eq!(arena.dir_upgrades, map.dir_upgrades, "{ctx}: dir_upgrades");
    assert_eq!(arena.spec, map.spec, "{ctx}: speculation counters");
    assert_eq!(
        arena.predictor, map.predictor,
        "{ctx}: predictor accuracy stats"
    );
    assert_eq!(arena.per_proc, map.per_proc, "{ctx}: per-processor stats");
}

#[test]
fn arena_vmsp_matches_map_reference_across_suite() {
    let machine = MachineConfig::paper_machine();
    let scale = scale();
    for app in AppId::ALL {
        let w = app.build(&machine, scale);
        // Base-DSM never touches the store; FR and SWI exercise every
        // speculation path (observe, predict, forward, verify, prune,
        // SWI suppression).
        for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
            let arena = run_with::<specdsm::core::Vmsp>(&machine, policy, w.as_ref());
            let map = run_with::<MapSpecStore>(&machine, policy, w.as_ref());
            assert_bit_identical(&arena, &map, &format!("{app}/{policy}"));
            assert!(
                arena.spec.total_sent() > 0 || arena.predictor.map_or(0, |p| p.seen) > 0,
                "{app}/{policy}: differential run exercised no speculation state at all"
            );
        }
    }
}

#[test]
fn arena_vmsp_matches_map_reference_with_finite_caches() {
    // Finite-cache mode adds capacity evictions and the speculative
    // fill/eviction races — a different invalidation-ack pattern.
    let machine = MachineConfig::paper_machine();
    let w = AppId::Em3d.build(&machine, Scale::Quick);
    for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
        let run = |use_map: bool| {
            let cfg = SystemConfig {
                machine: machine.clone(),
                policy,
                cache_blocks: Some(16),
                max_cycles: Some(500_000_000),
                ..SystemConfig::default()
            };
            if use_map {
                GenericSystem::<MapSpecStore>::new(cfg, w.as_ref())
                    .expect("valid")
                    .run()
            } else {
                GenericSystem::<specdsm::core::Vmsp>::new(cfg, w.as_ref())
                    .expect("valid")
                    .run()
            }
        };
        let arena = run(false);
        let map = run(true);
        assert_bit_identical(&arena, &map, &format!("em3d-finite/{policy}"));
    }
}

#[test]
fn arena_vmsp_matches_map_reference_on_adversarial_storms() {
    // Barrier-free storms of conflicting accesses: ownership
    // ping-pong, hot-home fan-in and false sharing drive the
    // invalidation, speculative-race and SWI paths far harder than the
    // polite, barrier-phased applications.
    let machine = MachineConfig::paper_machine();
    for w in adversarial_suite(&machine, scale()) {
        for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
            let arena = run_with::<specdsm::core::Vmsp>(&machine, policy, w.as_ref());
            let map = run_with::<MapSpecStore>(&machine, policy, w.as_ref());
            assert_bit_identical(&arena, &map, &format!("adv:{}/{policy}", w.name()));
            assert!(arena.exec_cycles > 0, "adv:{}/{policy}: ran", w.name());
        }
    }
}

/// The widest machine: at 64 nodes directory `Shared` states, VMSP
/// read vectors and pattern-table symbols use the whole reader-set
/// word, P63 included. Inputs are pinned to `Quick` (7 apps x 2
/// policies x 2 backends at 64 nodes), so the scale variable does not
/// apply.
#[test]
fn arena_vmsp_matches_map_reference_with_wide_sets_at_64_nodes() {
    let machine = MachineConfig::with_nodes(64);
    let mut spec_sent = 0u64;
    for app in AppId::ALL {
        let w = app.build(&machine, Scale::Quick);
        for policy in [SpecPolicy::FirstRead, SpecPolicy::SwiFr] {
            let arena = run_with::<specdsm::core::Vmsp>(&machine, policy, w.as_ref());
            let map = run_with::<MapSpecStore>(&machine, policy, w.as_ref());
            assert_bit_identical(&arena, &map, &format!("{app}@64/{policy}"));
            spec_sent += arena.spec.fr_sent + arena.spec.swi_sent;
        }
    }
    // The suite must actually drive speculative read vectors through
    // the arenas.
    assert!(spec_sent > 0, "64-node suite sent speculative copies");
}
