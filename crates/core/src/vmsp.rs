//! VMSP: the Vector Memory Sharing Predictor.
//!
//! # Storage layout (the arena design)
//!
//! The online VMSP sits on the coherence fast path: every directory
//! request triggers an observe, every demand read may consult
//! [`Vmsp::predicted_readers_at`], and every speculative send/ack pair
//! opens and closes a verification ticket. A `HashMap<BlockAddr,
//! VBlock>` put a hash probe on each of those steps. Because homes are
//! page-interleaved, per-block state can instead live in **flat
//! per-home arenas** indexed arithmetically by the shared
//! [`HomeGeometry`] — the same dense bijection the protocol's
//! directory block tables use. The protocol resolves a block to a
//! [`VSlot`] handle once per message and every subsequent predictor
//! access is direct indexing.
//!
//! Outstanding speculation tickets live in a small per-block slab
//! indexed by processor id (at most one open ticket per `(block,
//! proc)`, and the paper's machines have 16–64 nodes), replacing the
//! speculation engine's former `(block, proc)`-keyed ticket map.
//!
//! # Trace replay
//!
//! Offline replay hands over each block's whole stream at once
//! ([`SharingPredictor::replay_block`]): the block's slot is resolved
//! once, the stream runs through the same [`Vmsp::observe_at`] the
//! protocol uses, and the block is then retired. Its entry count and
//! open-vector spill bytes join running totals that
//! [`SharingPredictor::storage`] adds back, and its cleared history
//! register and pattern table become the spare the next replayed block
//! takes up. The slot itself stays active (it still counts toward
//! `blocks` and `slots`) but holds no tables, so replay memory is the
//! arena records plus one block's tables.

use specdsm_types::{
    BlockAddr, DirMsg, HomeGeometry, NodeId, ProcId, ReaderSet, ReaderSetInterner, ReqKind,
};

use crate::predictor::{PredictorKind, SharingPredictor};
use crate::stats::{Observation, PredictorStats};
use crate::storage::{StorageModel, StorageReport};
use crate::symbol::{HistoryKey, Symbol};
use crate::table::{History, PatternTable};

/// Default page size (blocks) for standalone predictors constructed
/// without a machine geometry — the paper machine's 128-block pages.
const DEFAULT_PAGE_BLOCKS: u64 = 128;

/// The Vector MSP (paper §3.1): read sequences become bit-vectors.
///
/// Because a full-map protocol lets many processors cache a read-only
/// copy simultaneously, a predictor only needs to identify *who* reads —
/// not in what order. VMSP therefore accumulates consecutive read
/// requests into a [`ReaderSet`] and commits the vector as a single
/// history/pattern symbol when the next write or upgrade closes the read
/// phase. This removes read re-ordering perturbation entirely and
/// shrinks the pattern tables, at the price of a wider (n-bit) vector
/// encoding and a slightly slower learning speed.
///
/// VMSP is also the predictor driving the speculative DSM (paper §7.4):
/// [`Vmsp::predicted_readers`] answers "who will read next" for the FR
/// and SWI triggers, [`Vmsp::speculate_readers`] keeps the open vector
/// consistent when the directory forwards copies speculatively, and
/// [`Vmsp::prune_reader`] applies the piggy-backed verification feedback.
///
/// The protocol uses the slot-addressed variants of these methods
/// (`*_at`, taking a [`VSlot`] resolved once per message); the
/// address-based methods remain for offline evaluation, tests, and
/// examples, and — like the directory's public queries — report **no
/// state** for blocks without allocated predictor state rather than
/// aliasing onto an unrelated slot.
///
/// # Example
///
/// ```
/// use specdsm_core::{SharingPredictor, Vmsp};
/// use specdsm_types::{BlockAddr, DirMsg, ProcId, ReaderSet};
///
/// let mut vmsp = Vmsp::new(1, 16);
/// let b = BlockAddr(0x100);
/// for i in 0..50 {
///     // Readers arrive in a different order every iteration: VMSP
///     // does not care.
///     let (r1, r2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
///     vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
///     vmsp.observe(b, DirMsg::read(ProcId(r1)));
///     vmsp.observe(b, DirMsg::read(ProcId(r2)));
/// }
/// assert!(vmsp.stats().accuracy() > 0.9);
///
/// // After the upgrade, the predicted readers are {P1, P2}.
/// vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
/// let (readers, _ticket) = vmsp.predicted_readers(b).unwrap();
/// assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
/// ```
#[derive(Debug, Clone)]
pub struct Vmsp {
    depth: usize,
    num_procs: usize,
    geom: HomeGeometry,
    homes: Vec<HomeArena>,
    /// Hash-cons arena for the spilled (>64-processor) read vectors
    /// this predictor retains in its pattern tables. Owned per
    /// predictor instance, so clones (differential references) stay
    /// self-contained and `Send`.
    sets: ReaderSetInterner,
    stats: PredictorStats,
    /// Cleared history register and pattern table of the last block
    /// retired by `replay_block`, taken up by the next one.
    spare_history: History,
    spare_table: PatternTable,
    /// Pattern entries retired blocks held when they were retired.
    retired_entries: u64,
    /// Open-vector spill bytes retired blocks held when they were
    /// retired.
    retired_open_spill: u64,
}

/// One home's dense block-state table.
#[derive(Debug, Clone, Default)]
struct HomeArena {
    table: Vec<VBlock>,
    /// Number of records with `active == true`.
    active: usize,
}

#[derive(Debug, Clone)]
struct VBlock {
    history: History,
    table: PatternTable,
    /// The read vector currently being accumulated (open read phase).
    open: ReaderSet,
    /// Open speculation tickets, indexed by processor id. Empty until
    /// the first speculative send touches this block, then sized to
    /// `num_procs` once (speculation is concentrated on few blocks, so
    /// most records never pay for the slab).
    tickets: Box<[Option<(SpecTicket, SpecTrigger)>]>,
    /// Whether the predictor ever took a mutable reference to this
    /// record. Arena growth creates pristine neighbors eagerly; the
    /// flag keeps storage accounting reporting only blocks with real
    /// predictor activity — but [`StorageReport::slots`] still records
    /// the full committed span.
    active: bool,
}

impl VBlock {
    fn new(depth: usize) -> Self {
        VBlock {
            // `History` defers its ring allocation to the first push,
            // so growing the arena over pristine spans allocates
            // nothing per record.
            history: History::new(depth),
            table: PatternTable::new(),
            open: ReaderSet::new(),
            tickets: Box::new([]),
            active: false,
        }
    }
}

/// A resolved predictor-state handle: home node plus dense arena index.
///
/// The speculative protocol resolves each incoming message's block to a
/// `VSlot` **once** (one [`HomeGeometry`] index computation, shared
/// with the directory's `DirSlot`) and then reaches the block's
/// predictor state by direct indexing for the rest of the transaction
/// step — observe, `predicted_readers`, and ticket bookkeeping make
/// zero hash-map probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VSlot {
    home: u32,
    idx: u32,
}

impl VSlot {
    /// Sentinel slot used by storage backends that do not resolve
    /// blocks to arena indices (e.g. the map-based differential
    /// reference implementation). Indexing an arena with it panics.
    pub const NULL: VSlot = VSlot {
        home: u32::MAX,
        idx: u32::MAX,
    };

    /// Home node owning the block.
    #[must_use]
    pub fn home(self) -> NodeId {
        NodeId(self.home as usize)
    }
}

/// How a speculative copy was triggered (paper §4.1): by the first
/// demand read of a predicted sequence (FR) or by a successful
/// speculative write invalidation (SWI). Carried in the per-block
/// ticket slab so verification feedback attributes each outcome to the
/// right trigger's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecTrigger {
    /// First-read trigger.
    Fr,
    /// Speculative-write-invalidation trigger.
    Swi,
}

/// Handle identifying the pattern-table context in which a speculation
/// was triggered, so verification feedback can find the entry later.
///
/// The carried [`HistoryKey`] is the pattern table's index, so feedback
/// consumption ([`Vmsp::prune_reader`], [`Vmsp::mark_swi_premature`])
/// is a direct O(1) lookup — the ticket *is* the reverse index into
/// the table.
///
/// Returned by [`Vmsp::predicted_readers`] / [`Vmsp::swi_ticket`];
/// consumed by [`Vmsp::prune_reader`] / [`Vmsp::mark_swi_premature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecTicket {
    key: HistoryKey,
}

impl SpecTicket {
    /// The pattern-table key captured when speculation triggered.
    #[must_use]
    pub fn key(self) -> HistoryKey {
        self.key
    }

    /// Builds a ticket from a raw pattern-table key. Intended for
    /// alternative speculation-state backends (such as the map-based
    /// differential reference implementation) that capture history
    /// contexts outside [`Vmsp`]; the protocol itself only consumes
    /// tickets minted by the predictor it queries.
    #[must_use]
    pub fn from_key(key: HistoryKey) -> Self {
        SpecTicket { key }
    }
}

impl Vmsp {
    /// Creates a VMSP with the given history depth for a machine with
    /// `num_procs` processors, using a default page-interleaved
    /// geometry (the paper's 128-block pages, one home per processor).
    /// The protocol constructs its online predictor with
    /// [`Vmsp::with_geometry`] so slots match the machine's actual home
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, num_procs: usize) -> Self {
        Self::with_geometry(
            depth,
            num_procs,
            HomeGeometry::new(DEFAULT_PAGE_BLOCKS, num_procs.max(1)),
        )
    }

    /// Creates a VMSP whose arena follows an explicit home layout —
    /// the protocol passes the machine's [`HomeGeometry`] so `VSlot`s
    /// resolve with the same arithmetic as directory slots.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_geometry(depth: usize, num_procs: usize, geom: HomeGeometry) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        Vmsp {
            depth,
            num_procs,
            geom,
            homes: vec![HomeArena::default(); geom.num_nodes()],
            sets: ReaderSetInterner::new(),
            stats: PredictorStats::default(),
            spare_history: History::new(depth),
            spare_table: PatternTable::new(),
            retired_entries: 0,
            retired_open_spill: 0,
        }
    }

    // ------------------------------------------------------------------
    // Slot resolution
    // ------------------------------------------------------------------

    /// Resolves `block` to a [`VSlot`], growing that home's arena to
    /// cover it. The protocol calls this once per incoming message.
    pub fn slot_of(&mut self, block: BlockAddr) -> VSlot {
        let home = self.geom.home_of(block);
        self.slot_in(home, self.geom.local_index(block))
    }

    /// Resolves `block` within `home`'s arena — the guarded,
    /// home-routed form of [`Vmsp::slot_of`]. Mirroring the
    /// directory's foreign-block rule, a block homed at a *different*
    /// node reports no state (`None`) instead of aliasing onto one of
    /// `home`'s local slots. The geometry is evaluated once — the
    /// guard reuses the same `home_of` the resolution needs anyway.
    pub fn resolve_at_home(&mut self, home: NodeId, block: BlockAddr) -> Option<VSlot> {
        if self.geom.home_of(block) != home {
            return None;
        }
        Some(self.slot_in(home, self.geom.local_index(block)))
    }

    /// Shared growth arm of the two resolvers: commits `home`'s arena
    /// up to `idx` and hands out the slot.
    fn slot_in(&mut self, home: NodeId, idx: usize) -> VSlot {
        let table = &mut self.homes[home.0].table;
        if idx >= table.len() {
            let depth = self.depth;
            table.resize_with(idx + 1, || VBlock::new(depth));
        }
        VSlot {
            home: home.0 as u32,
            idx: u32::try_from(idx).expect("VMSP arena exceeds u32 slots"),
        }
    }

    /// The record of a resolved slot (read-only; never marks activity).
    fn at(&self, slot: VSlot) -> &VBlock {
        &self.homes[slot.home as usize].table[slot.idx as usize]
    }

    /// The record of a resolved slot, marking it active. Used by the
    /// operations whose map-based counterpart would allocate an entry
    /// (observe, speculative-reader folding, SWI suppression).
    fn at_mut(&mut self, slot: VSlot) -> &mut VBlock {
        let arena = &mut self.homes[slot.home as usize];
        let blk = &mut arena.table[slot.idx as usize];
        if !blk.active {
            blk.active = true;
            arena.active += 1;
        }
        blk
    }

    /// Mutable access *without* marking activity: for operations that
    /// only ever shrink or probe existing state (ticket bookkeeping,
    /// prune feedback), so a pristine slot stays indistinguishable from
    /// a block a sparse map never held.
    fn at_mut_raw(&mut self, slot: VSlot) -> &mut VBlock {
        &mut self.homes[slot.home as usize].table[slot.idx as usize]
    }

    /// Guarded address-based lookup for the public query methods: no
    /// growth, no aliasing (the home dimension comes from the block's
    /// own address), and pristine slots report no state exactly like
    /// the sparse map this arena replaced.
    fn lookup(&self, block: BlockAddr) -> Option<&VBlock> {
        let home = self.geom.home_of(block);
        let idx = self.geom.local_index(block);
        self.homes.get(home.0)?.table.get(idx).filter(|b| b.active)
    }

    /// Mutable form of [`Vmsp::lookup`] (still non-growing).
    fn lookup_mut(&mut self, block: BlockAddr) -> Option<&mut VBlock> {
        let home = self.geom.home_of(block);
        let idx = self.geom.local_index(block);
        self.homes
            .get_mut(home.0)?
            .table
            .get_mut(idx)
            .filter(|b| b.active)
    }

    // ------------------------------------------------------------------
    // Slot-addressed hot path (used by the speculative protocol)
    // ------------------------------------------------------------------

    /// Observes one request for the block at `slot` (the slot-addressed
    /// hot-path form of [`SharingPredictor::observe`]).
    pub fn observe_at(&mut self, slot: VSlot, msg: DirMsg) -> Observation {
        let Some((kind, p)) = msg.request() else {
            return Observation::Ignored;
        };
        // Field-split borrow: the record lives in `homes`, the read
        // vectors in `sets` — both are needed mutably in one pass
        // (this inlines `at_mut`, activity marking included).
        let Vmsp {
            homes, sets, stats, ..
        } = self;
        let arena = &mut homes[slot.home as usize];
        let b = &mut arena.table[slot.idx as usize];
        if !b.active {
            b.active = true;
            arena.active += 1;
        }
        let obs = match kind {
            ReqKind::Read => {
                // Each read is checked against the vector predicted to
                // follow the current history; order inside the vector is
                // irrelevant by construction.
                let obs = if b.history.is_full() {
                    match b.table.predict(&b.history) {
                        Some(Symbol::ReadVec(v)) => Observation::Predicted {
                            correct: sets.contains(v, p),
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
                // A write/upgrade closes any open read phase: the
                // accumulated vector is interned (one arena id however
                // often this pattern recurs) and becomes one history
                // symbol.
                if !b.open.is_empty() {
                    let vec = Symbol::ReadVec(sets.intern_owned(std::mem::take(&mut b.open)));
                    Self::commit(b, vec);
                }
                let sym = Symbol::Req(kind, p);
                // Fused predict + learn + history shift: one table
                // access for the whole write-side commit.
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
        stats.record(obs);
        obs
    }

    /// Slot-addressed form of [`Vmsp::predicted_readers`].
    #[must_use]
    pub fn predicted_readers_at(&self, slot: VSlot) -> Option<(ReaderSet, SpecTicket)> {
        self.predicted_readers_of(self.at(slot))
    }

    /// Slot-addressed form of [`Vmsp::speculate_readers`].
    pub fn speculate_readers_at(&mut self, slot: VSlot, readers: ReaderSet) {
        self.at_mut(slot).open |= readers;
    }

    /// Slot-addressed form of [`Vmsp::prune_reader`].
    pub fn prune_reader_at(&mut self, slot: VSlot, ticket: SpecTicket, reader: ProcId) -> bool {
        let Vmsp { homes, sets, .. } = self;
        homes[slot.home as usize].table[slot.idx as usize]
            .table
            .prune_reader(sets, ticket.key, reader)
    }

    /// Slot-addressed form of [`Vmsp::swi_allowed`].
    #[must_use]
    pub fn swi_allowed_at(&self, slot: VSlot) -> bool {
        let b = self.at(slot);
        !b.table.swi_suppressed_key(b.history.key())
    }

    /// Slot-addressed form of [`Vmsp::swi_ticket`]: `None` while the
    /// slot's record is still pristine (a block the predictor never
    /// observed has no history context to capture — exactly the blocks
    /// a sparse map would not contain).
    #[must_use]
    pub fn swi_ticket_at(&self, slot: VSlot) -> Option<SpecTicket> {
        let b = self.at(slot);
        b.active.then(|| SpecTicket {
            key: b.history.key(),
        })
    }

    /// Slot-addressed form of [`Vmsp::mark_swi_premature`].
    pub fn mark_swi_premature_at(&mut self, slot: VSlot, ticket: SpecTicket) {
        self.at_mut(slot).table.set_swi_premature(ticket.key);
    }

    /// Records an outstanding speculative copy: `proc` was sent the
    /// block at `slot` under `ticket`. At most one ticket per `(block,
    /// proc)` is open at a time; a second send overwrites the first,
    /// exactly like the `(block, proc)`-keyed map this slab replaced.
    /// The slab is allocated (sized to `num_procs`) on a block's first
    /// speculative send and grows for an out-of-range `proc` rather
    /// than dropping the ticket — the map accepted any processor id,
    /// and losing a ticket would silently lose its verification
    /// feedback.
    pub fn open_ticket(
        &mut self,
        slot: VSlot,
        proc: ProcId,
        ticket: SpecTicket,
        trigger: SpecTrigger,
    ) {
        let needed = self.num_procs.max(proc.0 + 1);
        let b = self.at_mut_raw(slot);
        if b.tickets.len() <= proc.0 {
            let mut slab = std::mem::take(&mut b.tickets).into_vec();
            slab.resize(needed, None);
            b.tickets = slab.into_boxed_slice();
        }
        b.tickets[proc.0] = Some((ticket, trigger));
    }

    /// Consumes the open ticket for `(slot, proc)`, if any — called
    /// when the speculative copy is invalidated and its reference bit
    /// comes home.
    pub fn close_ticket(&mut self, slot: VSlot, proc: ProcId) -> Option<(SpecTicket, SpecTrigger)> {
        self.at_mut_raw(slot).tickets.get_mut(proc.0)?.take()
    }

    // ------------------------------------------------------------------
    // Address-based queries (offline evaluation, tests, examples)
    // ------------------------------------------------------------------

    /// The predicted read vector for the current history of `block`,
    /// with a ticket for later verification pruning. `None` when the
    /// block has no predictor state (including blocks whose dense index
    /// would alias another home's slot), the history is cold, or the
    /// predicted successor is not a read vector.
    #[must_use]
    pub fn predicted_readers(&self, block: BlockAddr) -> Option<(ReaderSet, SpecTicket)> {
        self.predicted_readers_of(self.lookup(block)?)
    }

    fn predicted_readers_of(&self, b: &VBlock) -> Option<(ReaderSet, SpecTicket)> {
        if !b.history.is_full() {
            return None;
        }
        match b.table.peek(&b.history)?.prediction {
            // The speculation engine fans the prediction out to the
            // network, so this is a genuinely transient copy — the
            // persistent state keeps only the interned id.
            Symbol::ReadVec(v) => Some((
                self.sets.resolve(v),
                SpecTicket {
                    key: b.history.key(),
                },
            )),
            _ => None,
        }
    }

    /// Registers processors that were sent read-only copies
    /// speculatively. They join the open read vector so the committed
    /// pattern stays consistent with the directory's sharer state even
    /// though their read requests never reach the directory.
    pub fn speculate_readers(&mut self, block: BlockAddr, readers: ReaderSet) {
        let slot = self.slot_of(block);
        self.speculate_readers_at(slot, readers);
    }

    /// Verification failure: `reader` never referenced the copy sent
    /// under `ticket`. Removes the reader from that entry's vector
    /// prediction ("removes mispredicted request sequences", §4.2).
    /// Returns `true` if an entry changed.
    pub fn prune_reader(&mut self, block: BlockAddr, ticket: SpecTicket, reader: ProcId) -> bool {
        // Field-split borrow of `lookup_mut`'s logic: the pruned
        // vector re-interns through `sets` while the entry is borrowed
        // from `homes`.
        let Vmsp {
            homes, sets, geom, ..
        } = self;
        let home = geom.home_of(block);
        let idx = geom.local_index(block);
        match homes
            .get_mut(home.0)
            .and_then(|h| h.table.get_mut(idx))
            .filter(|b| b.active)
        {
            Some(b) => b.table.prune_reader(sets, ticket.key, reader),
            None => false,
        }
    }

    /// Whether SWI may speculatively invalidate the writable copy of
    /// `block` in its current history context (i.e. no previous
    /// premature invalidation was recorded for this pattern).
    ///
    /// Reads the suppression bit stored in the pattern entry itself
    /// (paper §4.2: "a bit per write in the corresponding pattern
    /// table entry") through the O(1) keyed lookup.
    #[must_use]
    pub fn swi_allowed(&self, block: BlockAddr) -> bool {
        match self.lookup(block) {
            Some(b) => !b.table.swi_suppressed_key(b.history.key()),
            None => true,
        }
    }

    /// Ticket capturing the current history context of `block`, taken
    /// when SWI triggers so a later premature detection can suppress
    /// exactly this pattern. `None` for blocks without predictor state.
    #[must_use]
    pub fn swi_ticket(&self, block: BlockAddr) -> Option<SpecTicket> {
        self.lookup(block).map(|b| SpecTicket {
            key: b.history.key(),
        })
    }

    /// Records that the SWI invalidation taken under `ticket` was
    /// premature (the producer re-accessed the block), suppressing
    /// future SWI for this pattern. A no-op if the pattern entry has
    /// since been evicted (its suppression state went with it) or the
    /// block has no predictor state at all.
    pub fn mark_swi_premature(&mut self, block: BlockAddr, ticket: SpecTicket) {
        if let Some(b) = self.lookup_mut(block) {
            b.table.set_swi_premature(ticket.key);
        }
    }

    /// Commits a symbol: last-occurrence learn + history shift.
    fn commit(b: &mut VBlock, sym: Symbol) {
        if b.history.is_full() {
            b.table.learn(&b.history, sym);
        }
        b.history.push(sym);
    }
}

impl SharingPredictor for Vmsp {
    fn observe(&mut self, block: BlockAddr, msg: DirMsg) -> Observation {
        let slot = self.slot_of(block);
        self.observe_at(slot, msg)
    }

    fn replay_block(&mut self, block: BlockAddr, msgs: &[DirMsg]) {
        if msgs.is_empty() {
            return;
        }
        // Resolving the slot grows the arena even for an ack-only
        // stream, exactly as a per-message `observe` loop would.
        let slot = self.slot_of(block);
        let b = &mut self.homes[slot.home as usize].table[slot.idx as usize];
        if !b.active {
            // A pristine record holds no state: run the block on the
            // spare's allocations instead of growing fresh ones.
            std::mem::swap(&mut b.history, &mut self.spare_history);
            std::mem::swap(&mut b.table, &mut self.spare_table);
        }
        for &msg in msgs {
            self.observe_at(slot, msg);
        }
        let b = &mut self.homes[slot.home as usize].table[slot.idx as usize];
        self.retired_entries += b.table.len() as u64;
        self.retired_open_spill += std::mem::take(&mut b.open).heap_bytes() as u64;
        self.spare_history = std::mem::replace(&mut b.history, History::new(self.depth));
        self.spare_table = std::mem::take(&mut b.table);
        self.spare_history.clear();
        self.spare_table.clear();
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }

    fn storage(&self) -> StorageReport {
        let mut slots = 0u64;
        let mut blocks = 0u64;
        let mut entries = self.retired_entries;
        // Open (still-accumulating) vectors are the one place a wide
        // set still lives outside the arena; their heap words are
        // charged per copy.
        let mut open_spill = self.retired_open_spill;
        for home in &self.homes {
            slots += home.table.len() as u64;
            blocks += home.active as u64;
            entries += home.table.iter().map(|b| b.table.len() as u64).sum::<u64>();
            open_spill += home
                .table
                .iter()
                .map(|b| b.open.heap_bytes() as u64)
                .sum::<u64>();
        }
        StorageReport {
            model: StorageModel {
                kind: PredictorKind::Vmsp,
                depth: self.depth,
                num_procs: self.num_procs,
            },
            blocks,
            slots,
            entries,
            spill_bytes: self.sets.spill_bytes() + open_spill,
            spill_unique: self.sets.unique_spilled(),
            spill_refs: self.sets.spill_refs(),
        }
    }

    fn kind(&self) -> PredictorKind {
        PredictorKind::Vmsp
    }

    fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp::Msp;
    use specdsm_types::MachineConfig;

    fn producer_consumer(vmsp: &mut Vmsp, b: BlockAddr, iters: usize, reorder: bool) {
        for i in 0..iters {
            let (r1, r2) = if reorder && i % 2 == 1 {
                (2, 1)
            } else {
                (1, 2)
            };
            vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
            vmsp.observe(b, DirMsg::read(ProcId(r1)));
            vmsp.observe(b, DirMsg::read(ProcId(r2)));
        }
    }

    #[test]
    fn immune_to_read_reordering() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 100, true);
        assert!(
            vmsp.stats().accuracy() > 0.95,
            "VMSP ignores read order: {}",
            vmsp.stats()
        );
    }

    #[test]
    fn beats_msp_under_read_reordering_at_depth_one() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        let mut msp = Msp::new(1, 16);
        for i in 0..100 {
            let (r1, r2) = if i % 2 == 1 { (2, 1) } else { (1, 2) };
            for m in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::read(ProcId(r1)),
                DirMsg::read(ProcId(r2)),
            ] {
                vmsp.observe(b, m);
                msp.observe(b, m);
            }
        }
        assert!(vmsp.stats().accuracy() > msp.stats().accuracy() + 0.3);
    }

    /// Figure 4: VMSP captures the 3-processor producer/consumer pattern
    /// in two pattern entries where MSP needs three.
    #[test]
    fn two_entries_for_figure_4_pattern() {
        let b = BlockAddr(0x100);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 10, false);
        // Close the last read phase so the final vector commits.
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        assert_eq!(vmsp.storage().entries, 2);
    }

    #[test]
    fn acks_ignored() {
        let mut vmsp = Vmsp::new(1, 16);
        assert_eq!(
            vmsp.observe(BlockAddr(1), DirMsg::ack_inv(ProcId(1))),
            Observation::Ignored
        );
        assert_eq!(vmsp.stats().seen, 0);
    }

    #[test]
    fn predicted_readers_after_write() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        let (readers, _) = vmsp.predicted_readers(b).expect("pattern learned");
        assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
    }

    #[test]
    fn predicted_readers_cold_block_is_none() {
        let mut vmsp = Vmsp::new(1, 16);
        assert!(vmsp.predicted_readers(BlockAddr(7)).is_none());
        // One write: history warm but no pattern yet.
        vmsp.observe(BlockAddr(7), DirMsg::write(ProcId(0)));
        assert!(vmsp.predicted_readers(BlockAddr(7)).is_none());
    }

    #[test]
    fn prune_reader_removes_from_prediction() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        let (readers, ticket) = vmsp.predicted_readers(b).unwrap();
        assert!(readers.contains(ProcId(2)));
        assert!(vmsp.prune_reader(b, ticket, ProcId(2)));
        let (readers, _) = vmsp.predicted_readers(b).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)));
    }

    #[test]
    fn speculate_readers_fold_into_next_vector() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        // The directory forwards copies to P1 and P2 speculatively; their
        // reads never arrive. The next write must still commit the full
        // vector.
        vmsp.speculate_readers(b, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        let (readers, _) = vmsp.predicted_readers(b).unwrap();
        assert_eq!(readers, ReaderSet::from_iter([ProcId(1), ProcId(2)]));
    }

    #[test]
    fn swi_premature_suppression() {
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        producer_consumer(&mut vmsp, b, 5, false);
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        assert!(vmsp.swi_allowed(b));
        let ticket = vmsp.swi_ticket(b).unwrap();
        vmsp.mark_swi_premature(b, ticket);
        assert!(!vmsp.swi_allowed(b), "same context now suppressed");
        // A different history context is unaffected.
        vmsp.observe(b, DirMsg::read(ProcId(1)));
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        // History is <Upgrade,P3> again -> suppressed again.
        assert!(!vmsp.swi_allowed(b));
    }

    #[test]
    fn swi_allowed_for_unknown_block() {
        let vmsp = Vmsp::new(1, 16);
        assert!(vmsp.swi_allowed(BlockAddr(99)));
        assert!(vmsp.swi_ticket(BlockAddr(99)).is_none());
    }

    #[test]
    fn learning_slower_than_msp_but_more_correct_total() {
        // Table 3's observation: VMSP predicts slightly fewer messages
        // (a whole vector must be seen once) but correctly predicts more
        // when reads re-order.
        let b = BlockAddr(1);
        let mut vmsp = Vmsp::new(1, 16);
        let mut msp = Msp::new(1, 16);
        for i in 0..60 {
            let order: [usize; 3] = match i % 3 {
                0 => [1, 2, 4],
                1 => [2, 4, 1],
                _ => [4, 1, 2],
            };
            let mut msgs = vec![DirMsg::upgrade(ProcId(3))];
            msgs.extend(order.iter().map(|&r| DirMsg::read(ProcId(r))));
            for m in msgs {
                vmsp.observe(b, m);
                msp.observe(b, m);
            }
        }
        let (v, m) = (vmsp.stats(), msp.stats());
        assert!(
            v.correct_fraction() > m.correct_fraction(),
            "VMSP correct fraction {} vs MSP {}",
            v.correct_fraction(),
            m.correct_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_panics() {
        let _ = Vmsp::new(0, 16);
    }

    #[test]
    fn slot_api_matches_address_api() {
        // The slot-addressed hot path and the address-based queries are
        // two views of the same state.
        let m = MachineConfig::paper_machine();
        let mut vmsp = Vmsp::with_geometry(1, 16, HomeGeometry::of_machine(&m));
        let b = m.page_on(NodeId(2), 1).offset(7);
        for _ in 0..5 {
            for msg in [
                DirMsg::upgrade(ProcId(3)),
                DirMsg::read(ProcId(1)),
                DirMsg::read(ProcId(2)),
            ] {
                let slot = vmsp.slot_of(b);
                vmsp.observe_at(slot, msg);
            }
        }
        let slot = vmsp.slot_of(b);
        vmsp.observe_at(slot, DirMsg::upgrade(ProcId(3)));
        assert_eq!(
            vmsp.predicted_readers_at(slot),
            vmsp.predicted_readers(b),
            "slot and address queries agree"
        );
        assert_eq!(vmsp.swi_allowed_at(slot), vmsp.swi_allowed(b));
        assert_eq!(vmsp.swi_ticket_at(slot), vmsp.swi_ticket(b));
        let (_, ticket) = vmsp.predicted_readers_at(slot).unwrap();
        assert!(vmsp.prune_reader_at(slot, ticket, ProcId(2)));
        let (readers, _) = vmsp.predicted_readers(b).unwrap();
        assert_eq!(readers, ReaderSet::single(ProcId(1)));
    }

    #[test]
    fn queries_for_foreign_homed_blocks_report_no_state() {
        // BlockAddr(128) is homed at node 1 on the paper machine; its
        // dense index *at node 0* would alias slot 0. Mirroring the
        // directory's aliasing rule, the address-based queries and the
        // guarded resolver must report no state for blocks homed
        // elsewhere, even after the aliased local slot has real state.
        let m = MachineConfig::paper_machine();
        let mut vmsp = Vmsp::with_geometry(1, 16, HomeGeometry::of_machine(&m));
        let local = BlockAddr(0);
        let foreign = BlockAddr(m.page_blocks); // first block of page 1
        assert_eq!(m.home_of(foreign), NodeId(1));
        // Train `local` so home 0, slot 0 has a prediction and a ticket
        // context.
        producer_consumer(&mut vmsp, local, 5, false);
        vmsp.observe(local, DirMsg::upgrade(ProcId(3)));
        assert!(vmsp.predicted_readers(local).is_some());

        assert!(vmsp.predicted_readers(foreign).is_none());
        assert!(vmsp.swi_ticket(foreign).is_none());
        assert!(vmsp.swi_allowed(foreign));
        let ticket = vmsp.swi_ticket(local).unwrap();
        vmsp.mark_swi_premature(foreign, ticket);
        assert!(vmsp.swi_allowed(local), "foreign mark must not leak");

        // The guarded resolver refuses to hand out a foreign slot.
        assert!(vmsp.resolve_at_home(NodeId(0), foreign).is_none());
        let slot = vmsp.resolve_at_home(NodeId(1), foreign).expect("homed");
        assert_eq!(slot.home(), NodeId(1));
    }

    #[test]
    fn ticket_slab_open_close_round_trip() {
        let mut vmsp = Vmsp::new(1, 16);
        let b = BlockAddr(3);
        producer_consumer(&mut vmsp, b, 5, false);
        vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        let slot = vmsp.slot_of(b);
        let (_, ticket) = vmsp.predicted_readers_at(slot).unwrap();

        assert_eq!(vmsp.close_ticket(slot, ProcId(2)), None, "nothing open");
        vmsp.open_ticket(slot, ProcId(2), ticket, SpecTrigger::Fr);
        assert_eq!(
            vmsp.close_ticket(slot, ProcId(2)),
            Some((ticket, SpecTrigger::Fr))
        );
        // Consumed: a second close is a no-op.
        assert_eq!(vmsp.close_ticket(slot, ProcId(2)), None);

        // Re-opening overwrites, like the (block, proc)-keyed map did.
        vmsp.open_ticket(slot, ProcId(5), ticket, SpecTrigger::Fr);
        vmsp.open_ticket(slot, ProcId(5), ticket, SpecTrigger::Swi);
        assert_eq!(
            vmsp.close_ticket(slot, ProcId(5)),
            Some((ticket, SpecTrigger::Swi))
        );
    }

    #[test]
    fn ticket_slab_grows_for_out_of_range_proc() {
        // The (block, proc)-keyed map accepted any processor id; the
        // slab must too (growing, not silently dropping the ticket).
        let mut vmsp = Vmsp::new(1, 4);
        let b = BlockAddr(3);
        vmsp.observe(b, DirMsg::write(ProcId(0)));
        let slot = vmsp.slot_of(b);
        let ticket = vmsp.swi_ticket_at(slot).unwrap();
        vmsp.open_ticket(slot, ProcId(20), ticket, SpecTrigger::Fr);
        assert_eq!(
            vmsp.close_ticket(slot, ProcId(20)),
            Some((ticket, SpecTrigger::Fr))
        );
    }

    #[test]
    fn wide_machine_storage_charges_spill_bytes() {
        // Regression for the >64-proc accounting bug: `sw_bytes_total`
        // used to ignore spilled reader-set heap words entirely, so a
        // 256-processor report was identical to what an inline-only
        // machine with the same slot/entry counts would show.
        let mut vmsp = Vmsp::new(1, 256);
        let readers = [1usize, 70, 130, 200, 255];
        for bi in 0..8u64 {
            let b = BlockAddr(bi);
            for _ in 0..4 {
                vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
                for r in readers {
                    vmsp.observe(b, DirMsg::read(ProcId(r)));
                }
            }
            // Close the final read phase so the last vector commits.
            vmsp.observe(b, DirMsg::upgrade(ProcId(3)));
        }
        let rep = vmsp.storage();
        let inline_only =
            rep.slots * rep.model.sw_history_bytes() + rep.entries * rep.model.sw_entry_bytes();
        assert!(rep.spill_bytes > 0, "wide vectors must be charged");
        assert!(
            rep.sw_bytes_total() > inline_only,
            "the report must grow past the inline-only figure"
        );
        // Every block re-learns the same wide pattern, so the arena
        // holds one canonical copy serving many retained references.
        assert_eq!(rep.spill_unique, 1);
        assert!(rep.spill_refs > rep.spill_unique);
        assert!(rep.dedup_ratio() > 1.0);
    }

    #[test]
    fn replay_block_releases_tables_but_keeps_storage() {
        let b = BlockAddr(5);
        let mut msgs = Vec::new();
        for _ in 0..4 {
            msgs.push(DirMsg::upgrade(ProcId(3)));
            msgs.extend([1, 70, 130].map(|r| DirMsg::read(ProcId(r))));
        }
        let mut observed = Vmsp::new(1, 256);
        for &m in &msgs {
            observed.observe(b, m);
        }
        let mut replayed = Vmsp::new(1, 256);
        replayed.replay_block(b, &msgs);
        assert_eq!(replayed.stats(), observed.stats());
        // The read phase left open at the end spills; its bytes are
        // still reported after the open vector itself was released.
        assert!(observed.storage().spill_bytes > replayed.sets.spill_bytes());
        assert_eq!(replayed.storage(), observed.storage());
        let slot = replayed.slot_of(b);
        let rec = replayed.at(slot);
        assert!(rec.active && rec.table.is_empty() && rec.open.is_empty());
        assert!(!rec.history.is_full());
        assert!(replayed.spare_table.is_empty() && !replayed.spare_history.is_full());
    }

    #[test]
    fn storage_counts_arena_slots_and_active_blocks() {
        let m = MachineConfig::paper_machine();
        let mut vmsp = Vmsp::with_geometry(1, 16, HomeGeometry::of_machine(&m));
        // Touch slot 9 of home 2's arena: the dense span 0..=9 is
        // committed but only one block is active.
        let b = m.page_on(NodeId(2), 0).offset(9);
        vmsp.observe(b, DirMsg::write(ProcId(0)));
        let rep = vmsp.storage();
        assert_eq!(rep.blocks, 1);
        assert_eq!(rep.slots, 10, "committed span counts toward slots");
        assert!(rep.sw_bytes_total() >= 10 * rep.model.sw_history_bytes());
    }
}
