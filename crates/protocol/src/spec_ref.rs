//! The retained map-based speculation store — the differential-test
//! reference implementation.
//!
//! Before the arena rework, the online VMSP kept per-block state in a
//! `FxHashMap<BlockAddr, VBlock>` and the speculation engine tracked
//! outstanding tickets in a `FxHashMap<(BlockAddr, ProcId), …>`. This
//! module preserves that exact storage design behind the same
//! [`SpecStore`] interface the arena implements, so the differential
//! replay tests (and CI's release-mode run of them) can execute entire
//! workloads against **both** backends and assert bit-identical
//! `exec_cycles`, message counts, and speculation statistics. It is not
//! used on any production path.

use specdsm_core::{
    FxHashMap, History, Observation, PatternTable, PredictorKind, PredictorStats, SpecTicket,
    SpecTrigger, StorageModel, StorageReport, Symbol, VSlot,
};
use specdsm_types::{BlockAddr, DirMsg, MachineConfig, NodeId, ProcId, ReaderSet, ReqKind};

use crate::spec::SpecStore;

/// Map-addressed speculation store: the pre-arena `HashMap` layout,
/// kept as the semantic reference for the arena-backed
/// [`Vmsp`](specdsm_core::Vmsp).
///
/// Slot handles are ignored ([`SpecStore::resolve`] hands out
/// [`VSlot::NULL`]); every access keys the maps by block address, one
/// hash probe per touch — which is precisely the cost the arena
/// removed.
#[derive(Debug, Clone)]
pub struct MapSpecStore {
    depth: usize,
    num_procs: usize,
    blocks: FxHashMap<BlockAddr, RefBlock>,
    /// Outstanding speculative copies: `(block, receiver)` → how and
    /// under which pattern context they were sent.
    tickets: FxHashMap<(BlockAddr, ProcId), (SpecTicket, SpecTrigger)>,
    stats: PredictorStats,
}

#[derive(Debug, Clone)]
struct RefBlock {
    history: History,
    table: PatternTable,
    /// The read vector currently being accumulated (open read phase).
    open: ReaderSet,
}

impl MapSpecStore {
    fn block_mut(&mut self, block: BlockAddr) -> &mut RefBlock {
        let depth = self.depth;
        self.blocks.entry(block).or_insert_with(|| RefBlock {
            history: History::new(depth),
            table: PatternTable::new(),
            open: ReaderSet::new(),
        })
    }

    /// Commits a symbol: last-occurrence learn + history shift.
    fn commit(b: &mut RefBlock, sym: Symbol) {
        if b.history.is_full() {
            b.table.learn(&b.history, sym);
        }
        b.history.push(sym);
    }
}

impl SpecStore for MapSpecStore {
    fn build(depth: usize, machine: &MachineConfig) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        MapSpecStore {
            depth,
            num_procs: machine.num_nodes,
            blocks: FxHashMap::default(),
            tickets: FxHashMap::default(),
            stats: PredictorStats::default(),
        }
    }

    fn resolve(&mut self, _home: NodeId, _block: BlockAddr) -> Option<VSlot> {
        // Map addressing has no slots (and no aliasing to guard
        // against): every block keys its own entry.
        Some(VSlot::NULL)
    }

    fn observe(&mut self, _slot: VSlot, block: BlockAddr, msg: DirMsg) -> Observation {
        let Some((kind, p)) = msg.request() else {
            return Observation::Ignored;
        };
        let b = self.block_mut(block);
        let obs = match kind {
            ReqKind::Read => {
                let obs = if b.history.is_full() {
                    match b.table.predict(&b.history) {
                        Some(Symbol::ReadVec(v)) => Observation::Predicted {
                            correct: v.contains(p),
                        },
                        Some(_) => Observation::Predicted { correct: false },
                        None => Observation::NoPrediction,
                    }
                } else {
                    Observation::NoPrediction
                };
                b.open.insert(p);
                obs
            }
            ReqKind::Write | ReqKind::Upgrade => {
                if !b.open.is_empty() {
                    let vec = Symbol::ReadVec(std::mem::take(&mut b.open));
                    Self::commit(b, vec);
                }
                let sym = Symbol::Req(kind, p);
                let obs = if b.history.is_full() {
                    match b.table.predict_and_learn(&b.history, &sym) {
                        Some(pred) => Observation::Predicted {
                            correct: pred == sym,
                        },
                        None => Observation::NoPrediction,
                    }
                } else {
                    Observation::NoPrediction
                };
                b.history.push(sym);
                obs
            }
        };
        self.stats.record(obs);
        obs
    }

    fn predicted_readers(&self, _slot: VSlot, block: BlockAddr) -> Option<(ReaderSet, SpecTicket)> {
        let b = self.blocks.get(&block)?;
        if !b.history.is_full() {
            return None;
        }
        match b.table.peek(&b.history)?.prediction {
            Symbol::ReadVec(v) => Some((v, SpecTicket::from_key(b.history.key()))),
            _ => None,
        }
    }

    fn speculate_readers(&mut self, _slot: VSlot, block: BlockAddr, readers: ReaderSet) {
        self.block_mut(block).open |= readers;
    }

    fn prune_reader(
        &mut self,
        _slot: VSlot,
        block: BlockAddr,
        ticket: SpecTicket,
        reader: ProcId,
    ) -> bool {
        self.blocks
            .get_mut(&block)
            .is_some_and(|b| b.table.prune_reader(ticket.key(), reader))
    }

    fn swi_allowed(&self, _slot: VSlot, block: BlockAddr) -> bool {
        match self.blocks.get(&block) {
            Some(b) => !b.table.swi_suppressed_key(b.history.key()),
            None => true,
        }
    }

    fn swi_ticket(&self, _slot: VSlot, block: BlockAddr) -> Option<SpecTicket> {
        self.blocks
            .get(&block)
            .map(|b| SpecTicket::from_key(b.history.key()))
    }

    fn mark_swi_premature(&mut self, _slot: VSlot, block: BlockAddr, ticket: SpecTicket) {
        self.block_mut(block).table.set_swi_premature(ticket.key());
    }

    fn open_ticket(
        &mut self,
        _slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        self.tickets.insert((block, proc), (ticket, trigger));
    }

    fn close_ticket(
        &mut self,
        _slot: VSlot,
        block: BlockAddr,
        proc: ProcId,
    ) -> Option<(SpecTicket, SpecTrigger)> {
        self.tickets.remove(&(block, proc))
    }

    fn predictor_stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage(&self) -> StorageReport {
        StorageReport {
            model: StorageModel {
                kind: PredictorKind::Vmsp,
                depth: self.depth,
                num_procs: self.num_procs,
            },
            blocks: self.blocks.len() as u64,
            slots: self.blocks.len() as u64,
            entries: self.blocks.values().map(|b| b.table.len() as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_store_matches_vmsp_on_a_training_run() {
        use specdsm_core::Vmsp;

        let machine = MachineConfig::paper_machine();
        let mut arena = <Vmsp as SpecStore>::build(1, &machine);
        let mut map = MapSpecStore::build(1, &machine);
        let b = machine.page_on(NodeId(4), 0);
        let home = machine.home_of(b);
        // Drive both stores through the trait interface, in lockstep
        // (`Vmsp`'s inherent methods shadow the trait's, hence the UFCS
        // calls).
        for _ in 0..6 {
            for msg in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::read(ProcId(1)),
                DirMsg::read(ProcId(2)),
            ] {
                let sa = SpecStore::resolve(&mut arena, home, b).unwrap();
                let sm = map.resolve(home, b).unwrap();
                assert_eq!(
                    SpecStore::observe(&mut arena, sa, b, msg),
                    SpecStore::observe(&mut map, sm, b, msg)
                );
            }
        }
        let sa = SpecStore::resolve(&mut arena, home, b).unwrap();
        let sm = map.resolve(home, b).unwrap();
        SpecStore::observe(&mut arena, sa, b, DirMsg::upgrade(ProcId(3)));
        SpecStore::observe(&mut map, sm, b, DirMsg::upgrade(ProcId(3)));
        assert_eq!(
            SpecStore::predicted_readers(&arena, sa, b),
            map.predicted_readers(sm, b)
        );
        assert_eq!(SpecStore::predictor_stats(&arena), map.predictor_stats());
        assert_eq!(SpecStore::storage(&arena).entries, map.storage().entries);
        assert_eq!(SpecStore::storage(&arena).blocks, map.storage().blocks);
    }
}
