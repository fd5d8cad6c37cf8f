//! Two-level tables: per-block history registers and pattern tables.
//!
//! # Storage layout (the O(1) keyed design)
//!
//! The paper's predictors are hardware tables: a fixed-width history
//! register feeds a pattern table indexed by a compact function of the
//! register, so a lookup or a speculation-feedback update is one
//! indexed access. This module mirrors that shape in software:
//!
//! * [`History`] is a **fixed ring buffer** of `depth` symbols. Shifting
//!   in a symbol overwrites the oldest slot (no `Vec::remove(0)`
//!   memmove) and maintains a **rolling [`HistoryKey`]** — a polynomial
//!   hash updated in O(1) per push (`key·B + in − out·B^d`), so
//!   obtaining the current window's key never re-hashes the window.
//! * [`PatternTable`] is a flat hash map **keyed by `HistoryKey`**
//!   (a `u64`) through the vendored FxHash-style hasher — the software
//!   analogue of the hardware's direct index. Each entry stores its
//!   owning window (`Box<[Symbol]>`) so a 64-bit key collision is
//!   *detected* rather than silently aliasing: a lookup whose stored
//!   window differs from the live history reports a miss, and a learn
//!   evicts the colliding entry, matching the way a hardware table
//!   would simply overwrite the slot.
//! * Because entries are keyed by the same `HistoryKey` the protocol
//!   carries in its [`SpecTicket`](crate::SpecTicket)s, speculation
//!   feedback ([`PatternTable::set_swi_premature`],
//!   [`PatternTable::prune_reader`]) is a direct O(1) lookup — the
//!   key map doubles as the reverse index from ticket to entry. The
//!   previous design scanned the whole table and re-hashed every
//!   entry's window per feedback event.
//!
//! Re-learning an existing pattern (the common case in steady state)
//! touches only the resident entry: no window re-hash, no
//! `Box<[Symbol]>` allocation. The box is allocated once, when the
//! entry is first inserted.

use crate::fxhash::FxHashMap;
use crate::symbol::{HistoryKey, Symbol};

/// One pattern-table entry: the observed immediate successor of a
/// history window, "the prediction ... when the sequence last occurred"
/// (paper §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEntry {
    /// Predicted next symbol.
    pub prediction: Symbol,
    /// SWI premature-invalidation bit: set when a speculative write
    /// invalidation triggered from this entry proved premature, which
    /// suppresses further SWI for this pattern (paper §4.2).
    pub swi_premature: bool,
    /// How many times this entry has been consulted for a prediction
    /// (reuse frequency; relates to the paper's `f` parameter).
    pub uses: u64,
}

impl PatternEntry {
    fn new(prediction: Symbol) -> Self {
        PatternEntry {
            prediction,
            swi_premature: false,
            uses: 0,
        }
    }
}

/// A pattern entry together with the window that owns it.
///
/// The window is the collision guard: `HistoryKey` is 64 bits, so two
/// distinct windows can (very rarely) share a key. Storing the owning
/// window lets every keyed access verify it hit the right pattern.
#[derive(Debug, Clone)]
struct KeyedEntry {
    window: Box<[Symbol]>,
    entry: PatternEntry,
}

/// A per-block pattern table keyed by the history window's
/// [`HistoryKey`].
///
/// See the `table` module source docs for the storage layout. All
/// operations
/// are O(1): lookups and learns index by the history's rolling key;
/// speculation feedback (`set_swi_premature`, `prune_reader`) indexes
/// by the key captured in the protocol's ticket.
#[derive(Debug, Clone, Default)]
pub struct PatternTable {
    entries: FxHashMap<HistoryKey, KeyedEntry>,
}

impl PatternTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the prediction for `history`'s current window, counting
    /// a use. A key collision (entry owned by a different window) is a
    /// miss.
    pub fn predict(&mut self, history: &History) -> Option<Symbol> {
        let keyed = self.entries.get_mut(&history.key())?;
        if !history.window_matches(&keyed.window) {
            return None;
        }
        keyed.entry.uses += 1;
        Some(keyed.entry.prediction)
    }

    /// Looks up the entry for `history`'s current window without
    /// counting a use.
    #[must_use]
    pub fn peek(&self, history: &History) -> Option<&PatternEntry> {
        let keyed = self.entries.get(&history.key())?;
        history
            .window_matches(&keyed.window)
            .then_some(&keyed.entry)
    }

    /// Last-occurrence update: records `successor` as the prediction
    /// for `history`'s current window, preserving the entry's SWI bit
    /// if the same window is already resident. A colliding entry (same
    /// key, different window) is evicted and replaced, like a hardware
    /// table slot being overwritten.
    ///
    /// Only a first-time insert allocates (the owning-window box); the
    /// steady-state re-learn path is allocation-free.
    pub fn learn(&mut self, history: &History, successor: Symbol) {
        if let Some(entry) = self.resident_or_insert(history, &successor) {
            entry.prediction = successor;
        }
    }

    /// Fused predict + learn for one observed symbol: returns what the
    /// table predicted for `history`'s window (counting a use, exactly
    /// like [`PatternTable::predict`]) and records `sym` as the
    /// window's new successor (exactly like [`PatternTable::learn`]) —
    /// in a **single** keyed map access instead of two. This is the
    /// per-symbol hot path of every predictor's observe loop.
    pub fn predict_and_learn(&mut self, history: &History, sym: &Symbol) -> Option<Symbol> {
        let entry = self.resident_or_insert(history, sym)?;
        entry.uses += 1;
        let predicted = std::mem::replace(&mut entry.prediction, *sym);
        Some(predicted)
    }

    /// The shared slot-resolution arm of [`PatternTable::learn`] and
    /// [`PatternTable::predict_and_learn`]: one keyed map access that
    /// either returns the **resident** entry for `history`'s window
    /// (the caller updates its prediction), or installs a fresh entry
    /// predicting `successor` and returns `None` — covering both the
    /// vacant slot and the 64-bit key collision, where the slot's
    /// owner is a different window and is overwritten wholesale (fresh
    /// SWI bit and use count — it is a different pattern), like a
    /// hardware table slot being reused.
    fn resident_or_insert(
        &mut self,
        history: &History,
        successor: &Symbol,
    ) -> Option<&mut PatternEntry> {
        match self.entries.entry(history.key()) {
            std::collections::hash_map::Entry::Occupied(o) => {
                let keyed = o.into_mut();
                if history.window_matches(&keyed.window) {
                    Some(&mut keyed.entry)
                } else {
                    keyed.window = history.window_boxed();
                    keyed.entry = PatternEntry::new(*successor);
                    None
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(KeyedEntry {
                    window: history.window_boxed(),
                    entry: PatternEntry::new(*successor),
                });
                None
            }
        }
    }

    /// Sets the SWI premature bit on the entry for `key`, creating
    /// nothing if the entry has disappeared. Returns whether an entry
    /// was marked.
    ///
    /// Matching by key lets the protocol refer to the entry without
    /// retaining the symbol sequence; the keyed map makes this a direct
    /// O(1) lookup (the old layout scanned and re-hashed the whole
    /// table).
    pub fn set_swi_premature(&mut self, key: HistoryKey) -> bool {
        match self.entries.get_mut(&key) {
            Some(keyed) => {
                keyed.entry.swi_premature = true;
                true
            }
            None => false,
        }
    }

    /// Whether SWI is suppressed for `history`'s current window.
    #[must_use]
    pub fn swi_suppressed(&self, history: &History) -> bool {
        self.peek(history).is_some_and(|e| e.swi_premature)
    }

    /// Whether SWI is suppressed for the pattern under `key` (the
    /// ticket-handle form of [`PatternTable::swi_suppressed`]).
    #[must_use]
    pub fn swi_suppressed_key(&self, key: HistoryKey) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|k| k.entry.swi_premature)
    }

    /// Removes a reader from a vector prediction (speculation
    /// verification: "removes mispredicted request sequences from the
    /// pattern tables", paper §4.2). Returns `true` if an entry
    /// changed. O(1) lookup: the ticket key indexes the entry
    /// directly.
    pub fn prune_reader(&mut self, key: HistoryKey, reader: specdsm_types::ProcId) -> bool {
        let Some(keyed) = self.entries.get_mut(&key) else {
            return false;
        };
        let Symbol::ReadVec(v) = &mut keyed.entry.prediction else {
            return false;
        };
        if !v.remove(reader) {
            return false;
        }
        if v.is_empty() {
            self.entries.remove(&key);
        }
        true
    }

    /// Removes every entry, keeping the allocated capacity so the
    /// table can be reused for another block without regrowing.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(history window, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Symbol], &PatternEntry)> {
        self.entries.values().map(|k| (&*k.window, &k.entry))
    }

    /// Test-only backdoor: inserts an entry under an arbitrary key,
    /// simulating a 64-bit key collision that honest inputs cannot
    /// produce on demand.
    #[cfg(test)]
    fn insert_forged(&mut self, key: HistoryKey, window: Box<[Symbol]>, successor: Symbol) {
        self.entries.insert(
            key,
            KeyedEntry {
                window,
                entry: PatternEntry::new(successor),
            },
        );
    }
}

/// A bounded history register (the per-block row of the first-level
/// history table).
///
/// Holds the most recent `depth` symbols in a fixed ring buffer;
/// predictions are only made once the register is full (warm-up),
/// mirroring hardware that initializes history before predicting.
///
/// The register maintains a rolling [`HistoryKey`] of its current
/// window: [`History::push`] and [`History::key`] are both O(1),
/// independent of depth.
#[derive(Debug, Clone)]
pub struct History {
    depth: usize,
    /// Ring storage; grows to `depth` during warm-up, then fixed.
    buf: Vec<Symbol>,
    /// Index of the oldest symbol once the ring is full.
    head: usize,
    /// Rolling key of the current window (== `HistoryKey::of(window)`).
    key: HistoryKey,
    /// `B^depth`, the constant consumed by the rolling shift.
    base_pow_depth: u64,
}

impl History {
    /// Creates an empty register of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "history depth must be at least 1");
        History {
            depth,
            // Deliberately no preallocation: a fresh register costs no
            // heap until its first push, so dense arenas can commit
            // spans of pristine registers for free. The ring reaches
            // `depth` capacity within the first few pushes.
            buf: Vec::new(),
            head: 0,
            key: HistoryKey::EMPTY,
            base_pow_depth: HistoryKey::base_pow(depth),
        }
    }

    /// Empties the register (back to warm-up), keeping the ring's
    /// allocation so the register can be reused for another block.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.key = HistoryKey::EMPTY;
    }

    /// Whether the register holds `depth` symbols.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.depth
    }

    /// Shifts in a new symbol, discarding the oldest once full. O(1):
    /// one ring-slot overwrite plus the rolling-key update.
    pub fn push(&mut self, sym: Symbol) {
        if self.buf.len() < self.depth {
            self.key = self.key.push(&sym);
            self.buf.push(sym);
        } else {
            let outgoing = std::mem::replace(&mut self.buf[self.head], sym);
            let incoming = &self.buf[self.head];
            self.key = self.key.shift(&outgoing, incoming, self.base_pow_depth);
            self.head = (self.head + 1) % self.depth;
        }
    }

    /// The configured depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Compact hash of the current window. O(1): maintained
    /// incrementally by [`History::push`].
    #[must_use]
    pub fn key(&self) -> HistoryKey {
        self.key
    }

    /// Iterates the current window, oldest symbol first.
    pub fn window(&self) -> impl Iterator<Item = &Symbol> + '_ {
        let (wrapped, straight) = self.buf.split_at(self.head);
        straight.iter().chain(wrapped)
    }

    /// Whether the current window equals `window` symbol-for-symbol.
    #[must_use]
    pub fn window_matches(&self, window: &[Symbol]) -> bool {
        self.buf.len() == window.len() && self.window().eq(window.iter())
    }

    /// The current window as an owned boxed slice (oldest first); used
    /// when a pattern entry takes ownership of its window.
    #[must_use]
    pub fn window_boxed(&self) -> Box<[Symbol]> {
        self.window().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdsm_types::{ProcId, ReaderSet, ReqKind};

    fn req(kind: ReqKind, p: usize) -> Symbol {
        Symbol::Req(kind, ProcId(p))
    }

    /// A full history register whose window is exactly `syms`.
    fn history_of(syms: &[Symbol]) -> History {
        let mut h = History::new(syms.len());
        for s in syms {
            h.push(*s);
        }
        h
    }

    #[test]
    fn history_warms_up_then_slides() {
        let mut h = History::new(2);
        assert!(!h.is_full());
        h.push(req(ReqKind::Read, 1));
        assert!(!h.is_full());
        h.push(req(ReqKind::Read, 2));
        assert!(h.is_full());
        assert_eq!(h.window().count(), 2);
        h.push(req(ReqKind::Write, 3));
        assert!(h.window_matches(&[req(ReqKind::Read, 2), req(ReqKind::Write, 3)]));
    }

    #[test]
    fn rolling_key_matches_batch_key_as_window_slides() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Write, 5),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 4),
            req(ReqKind::Write, 3),
        ];
        for depth in 1..=4usize {
            let mut h = History::new(depth);
            let mut reference: Vec<Symbol> = Vec::new();
            for s in &stream {
                h.push(*s);
                reference.push(*s);
                if reference.len() > depth {
                    reference.remove(0);
                }
                assert!(h.window_matches(&reference), "depth {depth}");
                assert_eq!(h.key(), HistoryKey::of(&reference), "depth {depth}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_depth_panics() {
        let _ = History::new(0);
    }

    #[test]
    fn cleared_register_behaves_like_a_fresh_one() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Write, 5),
        ];
        let mut reused = History::new(3);
        for s in &stream {
            reused.push(*s);
        }
        reused.clear();
        assert!(!reused.is_full());
        assert_eq!(reused.key(), HistoryKey::EMPTY);
        let mut fresh = History::new(3);
        for s in stream.iter().rev() {
            reused.push(*s);
            fresh.push(*s);
            assert_eq!(reused.key(), fresh.key());
            assert!(reused.window().eq(fresh.window()));
        }
    }

    #[test]
    fn table_learns_last_occurrence() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Upgrade, 3)]);
        assert_eq!(t.predict(&h), None);
        t.learn(&h, req(ReqKind::Read, 1));
        assert_eq!(t.predict(&h), Some(req(ReqKind::Read, 1)));
        // Last occurrence wins.
        t.learn(&h, req(ReqKind::Read, 2));
        assert_eq!(t.predict(&h), Some(req(ReqKind::Read, 2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn learn_preserves_swi_bit() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        t.learn(&h, req(ReqKind::Read, 2));
        assert!(t.set_swi_premature(h.key()));
        assert!(t.swi_suppressed(&h));
        assert!(t.swi_suppressed_key(h.key()));
        t.learn(&h, req(ReqKind::Read, 3));
        assert!(t.swi_suppressed(&h), "swi bit survives re-learning");
    }

    #[test]
    fn set_swi_premature_on_missing_entry_is_noop() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        assert!(!t.set_swi_premature(h.key()));
        assert!(t.is_empty());
    }

    #[test]
    fn prune_reader_shrinks_vector() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 3)]);
        let vec = ReaderSet::from_iter([ProcId(1), ProcId(2)]);
        t.learn(&h, Symbol::ReadVec(vec));
        let key = h.key();
        assert!(t.prune_reader(key, ProcId(2)));
        assert_eq!(
            t.peek(&h).unwrap().prediction,
            Symbol::ReadVec(ReaderSet::from_bits(1 << 1))
        );
        // Pruning a reader the vector does not hold changes nothing.
        assert!(!t.prune_reader(key, ProcId(2)));
        // Pruning the last reader removes the entry entirely.
        assert!(t.prune_reader(key, ProcId(1)));
        assert!(t.is_empty());
        // Pruning a missing entry is a no-op.
        assert!(!t.prune_reader(key, ProcId(1)));
    }

    #[test]
    fn prune_reader_ignores_non_vector_entries() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Read, 1)]);
        t.learn(&h, req(ReqKind::Write, 2));
        assert!(!t.prune_reader(h.key(), ProcId(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn uses_counted_on_predict_not_peek() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Read, 1)]);
        t.learn(&h, req(ReqKind::Read, 2));
        t.predict(&h);
        t.predict(&h);
        assert_eq!(t.peek(&h).unwrap().uses, 2);
    }

    #[test]
    fn predict_and_learn_equals_separate_calls() {
        let stream = [
            req(ReqKind::Upgrade, 3),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 2),
            req(ReqKind::Upgrade, 2),
            req(ReqKind::Read, 1),
            req(ReqKind::Read, 3),
        ];
        let mut fused = PatternTable::new();
        let mut split = PatternTable::new();
        let mut h = History::new(2);
        // Warm the history, then drive both tables in lockstep.
        h.push(stream[0]);
        h.push(stream[1]);
        for _ in 0..5 {
            for sym in &stream[2..] {
                let a = fused.predict_and_learn(&h, sym);
                let b = split.predict(&h);
                split.learn(&h, *sym);
                assert_eq!(a, b);
                h.push(*sym);
            }
        }
        assert_eq!(fused.len(), split.len());
        for (w, e) in fused.iter() {
            let mut probe = History::new(w.len());
            for s in w {
                probe.push(*s);
            }
            assert_eq!(split.peek(&probe), Some(e));
        }
    }

    #[test]
    fn predict_and_learn_preserves_swi_bit() {
        let mut t = PatternTable::new();
        let h = history_of(&[req(ReqKind::Write, 1)]);
        t.learn(&h, req(ReqKind::Read, 2));
        assert!(t.set_swi_premature(h.key()));
        assert_eq!(
            t.predict_and_learn(&h, &req(ReqKind::Read, 3)),
            Some(req(ReqKind::Read, 2))
        );
        assert!(t.swi_suppressed(&h), "swi bit survives the fused path");
    }

    #[test]
    fn key_collision_reads_miss_and_learns_evict() {
        // Forge an entry under the key of a *different* window — the
        // situation a 64-bit key collision would produce — and check
        // the fallback: reads treat it as a miss, a learn overwrites
        // the slot for the rightful window.
        let mut t = PatternTable::new();
        let live = history_of(&[req(ReqKind::Upgrade, 3)]);
        let foreign: Box<[Symbol]> = Box::new([req(ReqKind::Read, 7)]);
        t.insert_forged(live.key(), foreign, req(ReqKind::Write, 9));

        // Same key, different window: every verified lookup misses.
        assert_eq!(t.predict(&live), None);
        assert!(t.peek(&live).is_none());
        assert!(!t.swi_suppressed(&live));

        // The keyed (ticket-handle) paths intentionally skip window
        // verification — the ticket's key *is* the identity.
        assert!(t.set_swi_premature(live.key()));

        // Learning through the live history evicts the collider
        // wholesale: new window, new prediction, fresh SWI bit.
        t.learn(&live, req(ReqKind::Read, 1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.predict(&live), Some(req(ReqKind::Read, 1)));
        assert!(!t.peek(&live).unwrap().swi_premature);
    }

    #[test]
    fn relearn_does_not_grow_table_and_windows_survive() {
        let mut t = PatternTable::new();
        let a = history_of(&[req(ReqKind::Upgrade, 3), req(ReqKind::Read, 1)]);
        let b = history_of(&[req(ReqKind::Read, 1), req(ReqKind::Read, 2)]);
        for _ in 0..100 {
            t.learn(&a, req(ReqKind::Read, 1));
            t.learn(&b, req(ReqKind::Upgrade, 3));
        }
        assert_eq!(t.len(), 2);
        let windows: Vec<Vec<Symbol>> = t.iter().map(|(w, _)| w.to_vec()).collect();
        assert!(windows.iter().any(|w| a.window_matches(w)));
        assert!(windows.iter().any(|w| b.window_matches(w)));
    }
}
