//! Shared two-level (history table + pattern tables) machinery.
//!
//! Cosmos and MSP differ only in which messages enter the tables; both
//! delegate to this per-block PAp-style core.
//!
//! # Storage layout
//!
//! Each block owns a fixed ring-buffer [`History`] register with a
//! rolling [`HistoryKey`](crate::HistoryKey) and a [`PatternTable`]
//! keyed by that key, so one observed symbol costs two O(1) keyed map
//! accesses (predict + learn) and an O(1) ring push — no per-symbol
//! window re-hash, no window allocation on the steady-state re-learn
//! path. The block index itself uses the same FxHash-style hasher as
//! the pattern tables ([`FxHashMap`]) so the first-level lookup does
//! not become the bottleneck the second level just stopped being.
//!
//! # Whole-block replay
//!
//! Trace replay ([`evaluate_trace`](crate::evaluate_trace)) hands each
//! block's whole stream over at once ([`TwoLevel::replay`]). The block
//! then runs on one [`BlockState`] taken out of the map (or, for a
//! block the map never held, the recycled spare) with no map probe per
//! symbol, and is retired afterwards: its entry count joins a running
//! total and its cleared register and table become the spare for the
//! next block. Replay memory is therefore one block's tables, not the
//! whole trace's, and the tables stop being grown from empty and torn
//! down once per block.

use specdsm_types::BlockAddr;

use crate::fxhash::FxHashMap;
use crate::stats::{Observation, PredictorStats};
use crate::symbol::Symbol;
use crate::table::{History, PatternTable};

/// Per-block first-level history register plus second-level pattern
/// table, for all blocks seen by one predictor instance.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevel {
    depth: usize,
    blocks: FxHashMap<BlockAddr, BlockState>,
    /// Cleared state of the last retired block, taken up by the next
    /// replayed block the map does not hold.
    spare: BlockState,
    /// Blocks retired by [`TwoLevel::replay`].
    retired_blocks: u64,
    /// Pattern entries those blocks held when they were retired.
    retired_entries: u64,
}

#[derive(Debug, Clone)]
struct BlockState {
    history: History,
    table: PatternTable,
}

impl BlockState {
    fn new(depth: usize) -> Self {
        BlockState {
            history: History::new(depth),
            table: PatternTable::new(),
        }
    }

    /// Core PAp step: predict the successor of the current history,
    /// compare with `sym`, learn `sym` as the new successor
    /// (last-occurrence update), and shift `sym` into the history.
    fn step(&mut self, sym: Symbol) -> Observation {
        let obs = if self.history.is_full() {
            // Fused predict + last-occurrence learn: one table access.
            match self.table.predict_and_learn(&self.history, &sym) {
                Some(pred) => Observation::Predicted {
                    correct: pred == sym,
                },
                None => Observation::NoPrediction,
            }
        } else {
            // Warm-up: the history register is not yet primed.
            Observation::NoPrediction
        };
        self.history.push(sym);
        obs
    }
}

impl TwoLevel {
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        TwoLevel {
            depth,
            blocks: FxHashMap::default(),
            spare: BlockState::new(depth),
            retired_blocks: 0,
            retired_entries: 0,
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Observes one symbol for `block` (see [`BlockState::step`]).
    pub(crate) fn observe_symbol(&mut self, block: BlockAddr, sym: Symbol) -> Observation {
        let depth = self.depth;
        self.blocks
            .entry(block)
            .or_insert_with(|| BlockState::new(depth))
            .step(sym)
    }

    /// Observes `block`'s whole remaining symbol stream, recording each
    /// observation in `stats`, then retires the block: it must never be
    /// observed again. A block already in the map continues from its
    /// state; an empty stream for a block the map does not hold
    /// allocates nothing, exactly like never calling `observe_symbol`.
    pub(crate) fn replay(
        &mut self,
        block: BlockAddr,
        syms: impl Iterator<Item = Symbol>,
        stats: &mut PredictorStats,
    ) {
        let mut syms = syms.peekable();
        let mut state = match self.blocks.remove(&block) {
            Some(state) => state,
            None if syms.peek().is_none() => return,
            None => std::mem::replace(&mut self.spare, BlockState::new(self.depth)),
        };
        for sym in syms {
            stats.record(state.step(sym));
        }
        self.retired_blocks += 1;
        self.retired_entries += state.table.len() as u64;
        state.history.clear();
        state.table.clear();
        self.spare = state;
    }

    /// Total pattern-table entries across all blocks, retired ones
    /// included.
    pub(crate) fn pattern_entries(&self) -> u64 {
        self.retired_entries
            + self
                .blocks
                .values()
                .map(|b| b.table.len() as u64)
                .sum::<u64>()
    }

    /// Number of blocks with allocated predictor state, retired ones
    /// included.
    pub(crate) fn blocks_allocated(&self) -> u64 {
        self.retired_blocks + self.blocks.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{ProcId, ReqKind};

    fn read(p: usize) -> Symbol {
        Symbol::Req(ReqKind::Read, ProcId(p))
    }
    fn upgrade(p: usize) -> Symbol {
        Symbol::Req(ReqKind::Upgrade, ProcId(p))
    }

    #[test]
    fn learns_repeating_sequence_depth_one() {
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(1);
        let seq = [upgrade(3), read(1), read(2)];
        // First pass: warm-up + learning, no correct predictions.
        for s in &seq {
            assert!(!t.observe_symbol(b, *s).is_correct());
        }
        // Second pass: the loop-closing transition (read(2) -> upgrade)
        // is seen for the first time; everything else predicts.
        assert!(!t.observe_symbol(b, seq[0]).is_predicted());
        assert!(t.observe_symbol(b, seq[1]).is_correct());
        assert!(t.observe_symbol(b, seq[2]).is_correct());
        // Third pass onward: every symbol predicted correctly.
        for _ in 0..3 {
            for s in &seq {
                assert!(t.observe_symbol(b, *s).is_correct(), "symbol {s}");
            }
        }
    }

    #[test]
    fn depth_two_disambiguates_alternating_writers() {
        // The paper's example (§2.1): P3 and P2 alternate upgrading;
        // depth 1 keeps mispredicting the writer, depth 2 learns it.
        let phase_a = [upgrade(3), read(1), read(2)];
        let phase_b = [upgrade(2), read(1), read(3)];
        let run = |depth: usize| -> u64 {
            let mut t = TwoLevel::new(depth);
            let b = BlockAddr(1);
            let mut wrong = 0;
            for _ in 0..50 {
                for s in phase_a.iter().chain(&phase_b) {
                    let obs = t.observe_symbol(b, *s);
                    if obs.is_predicted() && !obs.is_correct() {
                        wrong += 1;
                    }
                }
            }
            wrong
        };
        let wrong_d1 = run(1);
        let wrong_d2 = run(2);
        assert!(wrong_d1 > 0, "depth 1 must mispredict the writers");
        assert!(
            wrong_d2 < wrong_d1 / 4,
            "depth 2 should nearly eliminate mispredictions ({wrong_d2} vs {wrong_d1})"
        );
    }

    #[test]
    fn blocks_are_independent() {
        let mut t = TwoLevel::new(1);
        let (b1, b2) = (BlockAddr(1), BlockAddr(2));
        for _ in 0..4 {
            t.observe_symbol(b1, read(1));
            t.observe_symbol(b1, read(2));
        }
        // b2 has never been seen: its first observations are warm-up.
        assert_eq!(t.observe_symbol(b2, read(1)), Observation::NoPrediction);
        assert_eq!(t.blocks_allocated(), 2);
    }

    #[test]
    fn pattern_entry_counts() {
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(9);
        for _ in 0..3 {
            for s in [upgrade(3), read(1), read(2)] {
                t.observe_symbol(b, s);
            }
        }
        // Three distinct histories -> three entries (paper Figure 3).
        assert_eq!(t.pattern_entries(), 3);
    }

    #[test]
    fn replay_retires_the_block_and_keeps_its_counts() {
        let seq = [upgrade(3), read(1), read(2)];
        let stream: Vec<Symbol> = seq.iter().cycle().take(9).copied().collect();
        let mut stepped = TwoLevel::new(1);
        let mut stepped_stats = PredictorStats::default();
        let mut replayed = TwoLevel::new(1);
        let mut replayed_stats = PredictorStats::default();
        for b in [BlockAddr(1), BlockAddr(2)] {
            for s in &stream {
                stepped_stats.record(stepped.observe_symbol(b, *s));
            }
            replayed.replay(b, stream.iter().copied(), &mut replayed_stats);
            // Retired: no map entry is left, and the spare is cleared.
            assert!(replayed.blocks.is_empty());
            assert!(replayed.spare.table.is_empty());
            assert!(!replayed.spare.history.is_full());
        }
        assert_eq!(replayed_stats, stepped_stats);
        assert_eq!(replayed.blocks_allocated(), 2);
        assert_eq!(replayed.pattern_entries(), stepped.pattern_entries());
        // An empty stream for an unseen block allocates nothing.
        replayed.replay(BlockAddr(3), std::iter::empty(), &mut replayed_stats);
        assert_eq!(replayed.blocks_allocated(), 2);
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_rejected() {
        let _ = TwoLevel::new(0);
    }

    #[test]
    fn reordering_perturbs_depth_one() {
        // Re-ordered reads flip pattern entries back and forth at d=1.
        let mut t = TwoLevel::new(1);
        let b = BlockAddr(4);
        let mut wrong = 0;
        for i in 0..40 {
            let (r1, r2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
            for s in [upgrade(3), read(r1), read(r2)] {
                let obs = t.observe_symbol(b, s);
                if obs.is_predicted() && !obs.is_correct() {
                    wrong += 1;
                }
            }
        }
        assert!(wrong >= 40, "re-ordered readers mispredict at d=1: {wrong}");
    }
}
