//! Trace-driven predictor evaluation.
//!
//! The paper's Figures 7–8 and Tables 3–4 compare the three predictors
//! on the *same* directory message streams. Rather than re-simulating
//! the machine once per predictor configuration, the protocol simulator
//! records a [`DirectoryTrace`] during a Base-DSM run and this module
//! replays it through any predictor.
//!
//! Replay runs one block at a time: [`evaluate_trace`] hands each
//! block's whole stream to [`replay_block`], after which the predictor
//! retires that block's tables and reuses their allocations for the
//! next block. Replay memory is therefore bounded by the trace plus one
//! block's history register and pattern table (plus the VMSP's
//! fixed-size per-slot arena records), not by the tables of every block
//! in the trace.
//!
//! [`replay_block`]: crate::SharingPredictor::replay_block

use std::collections::BTreeMap;

use specdsm_types::{BlockAddr, DirMsg};

use crate::predictor::PredictorKind;
use crate::stats::PredictorStats;
use crate::storage::StorageReport;

/// Per-block message streams observed at the home directories.
///
/// Predictor state is strictly per-block, so the trace stores each
/// block's messages in arrival order and drops the (irrelevant)
/// inter-block interleaving. A `BTreeMap` keeps replay deterministic.
///
/// # Example
///
/// ```
/// use specdsm_core::{evaluate_trace, DirectoryTrace, PredictorKind};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId};
///
/// let mut trace = DirectoryTrace::new();
/// for _ in 0..10 {
///     trace.record(BlockAddr(1), DirMsg::upgrade(ProcId(3)));
///     trace.record(BlockAddr(1), DirMsg::read(ProcId(1)));
/// }
/// let eval = evaluate_trace(&trace, PredictorKind::Msp, 1, 16);
/// assert!(eval.stats.accuracy() > 0.9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirectoryTrace {
    blocks: BTreeMap<BlockAddr, Vec<DirMsg>>,
}

impl DirectoryTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one observed message for `block`.
    pub fn record(&mut self, block: BlockAddr, msg: DirMsg) {
        self.blocks.entry(block).or_default().push(msg);
    }

    /// Reallocates every block's stream at its exact length.
    ///
    /// Recording grows the streams by doubling, so a finished trace
    /// kept for replay would hold up to twice its messages. Fresh
    /// exact-size copies also release the grown buffers whole; trimming
    /// them in place (`Vec::shrink_to_fit`) left the heap fragmented
    /// and the 7-trace replay set about 8% larger at peak.
    pub fn compact(&mut self) {
        for msgs in self.blocks.values_mut() {
            *msgs = msgs.to_vec();
        }
    }

    /// Number of distinct blocks with traffic.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total messages, including acknowledgements.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.blocks.values().map(|v| v.len() as u64).sum()
    }

    /// Total request messages (the MSP/VMSP universe).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.blocks
            .values()
            .flat_map(|v| v.iter())
            .filter(|m| m.is_request())
            .count() as u64
    }

    /// Iterates `(block, messages)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &[DirMsg])> {
        self.blocks.iter().map(|(b, v)| (*b, v.as_slice()))
    }
}

/// Result of replaying a trace through one predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEval {
    /// Which predictor and depth produced this result.
    pub kind: PredictorKind,
    /// History depth used.
    pub depth: usize,
    /// Accuracy / coverage counters.
    pub stats: PredictorStats,
    /// Pattern-table storage at end of replay.
    pub storage: StorageReport,
}

/// Replays `trace` through a fresh predictor of the given kind/depth.
///
/// `num_procs` sizes the storage model. Blocks are replayed in address
/// order, one whole block at a time through [`replay_block`]; since
/// predictor state is per-block this is equivalent to observing the
/// original interleaving message by message.
///
/// [`replay_block`]: crate::SharingPredictor::replay_block
#[must_use]
pub fn evaluate_trace(
    trace: &DirectoryTrace,
    kind: PredictorKind,
    depth: usize,
    num_procs: usize,
) -> TraceEval {
    let mut predictor = kind.build(depth, num_procs);
    for (block, msgs) in trace.iter() {
        predictor.replay_block(block, msgs);
    }
    TraceEval {
        kind,
        depth,
        stats: predictor.stats(),
        storage: predictor.storage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::ProcId;

    fn sample_trace() -> DirectoryTrace {
        let mut t = DirectoryTrace::new();
        for block in [BlockAddr(1), BlockAddr(2)] {
            for _ in 0..20 {
                t.record(block, DirMsg::upgrade(ProcId(3)));
                t.record(block, DirMsg::ack_inv(ProcId(1)));
                t.record(block, DirMsg::read(ProcId(1)));
                t.record(block, DirMsg::read(ProcId(2)));
            }
        }
        t
    }

    #[test]
    fn counts() {
        let t = sample_trace();
        assert_eq!(t.num_blocks(), 2);
        assert_eq!(t.total_messages(), 2 * 20 * 4);
        assert_eq!(t.total_requests(), 2 * 20 * 3);
    }

    #[test]
    fn compact_keeps_every_stream_at_exact_length() {
        let mut t = sample_trace();
        let before: Vec<Vec<DirMsg>> = t.iter().map(|(_, m)| m.to_vec()).collect();
        t.compact();
        let after: Vec<Vec<DirMsg>> = t.iter().map(|(_, m)| m.to_vec()).collect();
        assert_eq!(before, after);
        assert!(t.blocks.values().all(|m| m.capacity() == m.len()));
    }

    #[test]
    fn evaluate_all_kinds() {
        let t = sample_trace();
        for kind in PredictorKind::ALL {
            let eval = evaluate_trace(&t, kind, 1, 16);
            assert_eq!(eval.kind, kind);
            assert!(eval.stats.seen > 0);
            assert!(
                eval.stats.accuracy() > 0.8,
                "{kind}: {}",
                eval.stats.accuracy()
            );
            assert!(eval.storage.blocks == 2);
        }
    }

    #[test]
    fn cosmos_sees_more_messages_than_msp() {
        let t = sample_trace();
        let cosmos = evaluate_trace(&t, PredictorKind::Cosmos, 1, 16);
        let msp = evaluate_trace(&t, PredictorKind::Msp, 1, 16);
        assert_eq!(cosmos.stats.seen, t.total_messages());
        assert_eq!(msp.stats.seen, t.total_requests());
    }

    #[test]
    fn deeper_history_never_panics() {
        let t = sample_trace();
        for depth in [1, 2, 4] {
            for kind in PredictorKind::ALL {
                let eval = evaluate_trace(&t, kind, depth, 16);
                assert!(eval.stats.correct <= eval.stats.predicted);
            }
        }
    }

    #[test]
    fn ack_only_blocks_allocate_no_request_state() {
        let mut t = DirectoryTrace::new();
        t.record(BlockAddr(9), DirMsg::ack_inv(ProcId(1)));
        for kind in PredictorKind::ALL {
            let storage = evaluate_trace(&t, kind, 1, 16).storage;
            let expected = u64::from(kind == PredictorKind::Cosmos);
            assert_eq!(storage.blocks, expected, "{kind}");
            assert_eq!(storage.entries, 0, "{kind}");
        }
        // The VMSP arena still grows over the block's slot (slot 9 of
        // home 0 commits slots 0..=9), as a per-message observe would.
        let vmsp = evaluate_trace(&t, PredictorKind::Vmsp, 1, 16).storage;
        assert_eq!(vmsp.slots, 10);
    }

    #[test]
    fn empty_trace_gives_zero_stats() {
        let t = DirectoryTrace::new();
        let eval = evaluate_trace(&t, PredictorKind::Vmsp, 1, 16);
        assert_eq!(eval.stats.seen, 0);
        assert_eq!(eval.storage.blocks, 0);
    }
}
