//! The calendar-queue event scheduler.
//!
//! [`EventQueue`] is the heart of the simulation loop: every protocol
//! message delivery, processor resume, directory release and retry
//! timer passes through it once. See `docs/ARCHITECTURE.md` (repo root)
//! for how the scheduler fits into the message lifecycle and why it is
//! a calendar queue with a two-level occupancy scan.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::clock::Cycle;

/// Number of one-cycle buckets on the timing wheel. Must be a power of
/// two. 2048 cycles comfortably covers every protocol latency of the
/// paper's machine (the longest uncontended path, a three-hop
/// invalidate + writeback + grant, is under 800 cycles), so in steady
/// state almost every event lands on the wheel; long `Compute` phases
/// spill to the overflow heap.
const WHEEL_SLOTS: usize = 2048;
const WHEEL_MASK: u64 = (WHEEL_SLOTS - 1) as u64;
/// Occupancy-bitmap words (one bit per bucket).
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// A deterministic discrete-event queue: a calendar queue (bucketed
/// timing wheel) with an overflow heap for far-future events.
///
/// # Ordering invariant
///
/// Events are popped in increasing cycle order; events scheduled for
/// the **same cycle are popped in the order they were scheduled
/// (FIFO)**. This tie-break is a stated invariant of the simulator, not
/// an implementation accident: whole-machine runs are reproducible
/// bit-for-bit only because same-cycle events (e.g. two messages
/// arriving at one directory in the same cycle) are processed in a
/// deterministic order. Every entry carries the queue's own schedule
/// counter, and the two internal stores agree on `(cycle, seq)` as the
/// total order, so the guarantee holds even when same-cycle events
/// straddle the wheel/overflow boundary.
///
/// # Structure
///
/// * A **timing wheel** of 2048 (`WHEEL_SLOTS`) one-cycle buckets
///   holds every event scheduled within the horizon of the wheel
///   cursor. Scheduling is O(1): index by `cycle mod WHEEL_SLOTS`,
///   append (the counter only grows, so a bucket is always in `seq`
///   order).
/// * A **two-level occupancy bitmap** finds the earliest bucket: one
///   bit per bucket in 32 words, plus a summary word with one bit per
///   non-empty word. The scan is the cursor's own word first (masked
///   below the cursor), then one rotate and trailing-zero count over
///   the summary word — constant time, no word walk. It runs on every
///   pop, several million times per simulated suite.
/// * An **overflow heap** (`BinaryHeap`) absorbs events beyond the
///   wheel horizon (for this simulator: long `Compute` delays and
///   fault-plan retry timers) and events scheduled at or before an
///   already-popped cycle. `pop` compares the wheel's earliest
///   `(cycle, seq)` with the heap's top, so correctness never depends
///   on migrating events between the stores.
///
/// # Example
///
/// ```
/// use specdsm_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(3), 'x');
/// q.schedule(Cycle(1), 'y');
/// assert_eq!(q.pop(), Some((Cycle(1), 'y')));
/// assert_eq!(q.pop(), Some((Cycle(3), 'x')));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Same-cycle events stay FIFO even across the wheel/overflow split.
/// Here the empty wheel re-centers on cycle 5000, so `"first"` lands
/// on the wheel; `"resume"` at cycle 4000 is then *before* the wheel
/// window and takes the overflow path, yet still pops first; and
/// `"second"` joins `"first"`'s bucket in scheduling order:
///
/// ```
/// use specdsm_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(5000), "first");
/// q.schedule(Cycle(4000), "resume");
/// assert_eq!(q.pop(), Some((Cycle(4000), "resume")));
/// q.schedule(Cycle(5000), "second");
/// assert_eq!(q.pop(), Some((Cycle(5000), "first")));
/// assert_eq!(q.pop(), Some((Cycle(5000), "second")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `WHEEL_SLOTS` buckets; bucket `i` holds the events of the unique
    /// cycle `c` in `[cursor, cursor + WHEEL_SLOTS)` with
    /// `c % WHEEL_SLOTS == i`, in scheduling order.
    wheel: Vec<VecDeque<(u64, E)>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Second-level occupancy: bit `w` set iff `occupied[w] != 0`.
    summary: u32,
    /// Lower bound (inclusive) of the cycle window the wheel can hold.
    /// Only advances, except that an empty wheel may jump forward to
    /// re-center the window on the next scheduled event.
    cursor: u64,
    /// Events currently on the wheel.
    wheel_len: usize,
    /// Events beyond the wheel horizon (or scheduled in the past),
    /// ordered by `(cycle, seq)`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Next schedule sequence number; doubles as the all-time schedule
    /// count.
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at cycle `at`.
    #[inline]
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // An empty wheel can re-center its window so that isolated
        // far-future events (barrier stalls, long computes) still get
        // O(1) treatment instead of permanently falling behind.
        if self.wheel_len == 0 && at.0 > self.cursor {
            self.cursor = at.0;
        }
        if at.0 >= self.cursor && at.0 - self.cursor < WHEEL_SLOTS as u64 {
            let idx = (at.0 & WHEEL_MASK) as usize;
            self.wheel[idx].push_back((seq, event));
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.summary |= 1 << (idx >> 6);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// The earliest wheel event as `(cycle, seq, bucket index)`, or
    /// `None` when the wheel is empty. Because each occupied bucket
    /// maps to the unique in-window cycle of its residue class, the
    /// first occupied bucket at or after the cursor position is the
    /// wheel's minimum.
    #[inline]
    fn wheel_peek(&self) -> Option<(u64, u64, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cursor & WHEEL_MASK) as usize;
        let sw = start >> 6;
        let first = self.occupied[sw] & (!0u64 << (start & 63));
        let (word_idx, word) = if first != 0 {
            (sw, first)
        } else {
            // Wrapping scan from the next word; ends back at `sw`
            // unmasked (its below-cursor bits are wrapped cycles).
            let rotated = self
                .summary
                .rotate_right((sw as u32 + 1) % WHEEL_WORDS as u32);
            debug_assert_ne!(rotated, 0, "wheel_len > 0 but empty summary");
            let off = rotated.trailing_zeros() as usize;
            let w = (sw + 1 + off) & (WHEEL_WORDS - 1);
            (w, self.occupied[w])
        };
        let idx = (word_idx << 6) | word.trailing_zeros() as usize;
        let dist = (idx.wrapping_sub(start) & (WHEEL_SLOTS - 1)) as u64;
        let cycle = self.cursor + dist;
        let seq = self.wheel[idx].front().expect("occupied bit set").0;
        Some((cycle, seq, idx))
    }

    /// Removes and returns the earliest event, or `None` when empty.
    ///
    /// Ties between the wheel and the overflow heap are broken by the
    /// schedule counter, preserving FIFO order among same-cycle events
    /// regardless of which store they landed in.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let wheel = self.wheel_peek();
        let over = self.overflow.peek().map(|Reverse(e)| (e.at.0, e.seq));
        let take_wheel = match (wheel, over) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some((wc, ws, _)), Some(os)) => (wc, ws) <= os,
        };
        if take_wheel {
            let (c, _, idx) = wheel.expect("checked");
            Some(self.pop_wheel(c, idx))
        } else {
            self.pop_overflow()
        }
    }

    #[inline]
    fn pop_wheel(&mut self, cycle: u64, idx: usize) -> (Cycle, E) {
        self.cursor = cycle;
        let bucket = &mut self.wheel[idx];
        let (_, event) = bucket.pop_front().expect("occupied bucket");
        self.wheel_len -= 1;
        if bucket.is_empty() {
            self.occupied[idx >> 6] &= !(1 << (idx & 63));
            if self.occupied[idx >> 6] == 0 {
                self.summary &= !(1 << (idx >> 6));
            }
        }
        (Cycle(cycle), event)
    }

    fn pop_overflow(&mut self) -> Option<(Cycle, E)> {
        let Reverse(e) = self.overflow.pop()?;
        if self.wheel_len == 0 {
            // Drag the empty wheel's window forward so upcoming
            // near-future schedules use it.
            self.cursor = self.cursor.max(e.at.0);
        }
        Some((e.at, e.event))
    }

    /// The cycle of the earliest pending event.
    #[must_use]
    pub fn peek_cycle(&self) -> Option<Cycle> {
        let wheel = self.wheel_peek().map(|(c, _, _)| c);
        let over = self.overflow.peek().map(|Reverse(e)| e.at.0);
        match (wheel, over) {
            (None, None) => None,
            (Some(c), None) | (None, Some(c)) => Some(Cycle(c)),
            (Some(a), Some(b)) => Some(Cycle(a.min(b))),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_equal_cycles() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "first");
        assert_eq!(q.pop(), Some((Cycle(5), "first")));
        q.schedule(Cycle(3), "second");
        q.schedule(Cycle(3), "third");
        assert_eq!(q.pop(), Some((Cycle(3), "second")));
        assert_eq!(q.pop(), Some((Cycle(3), "third")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(9), ());
        assert_eq!(q.peek_cycle(), Some(Cycle(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scheduled_total_counts_all() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(1), ());
        q.pop();
        q.schedule(Cycle(2), ());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(0), "now");
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(Cycle(far), "far");
        q.schedule(Cycle(1), "soon");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(0), "now")));
        assert_eq!(q.pop(), Some((Cycle(1), "soon")));
        assert_eq!(q.peek_cycle(), Some(Cycle(far)));
        assert_eq!(q.pop(), Some((Cycle(far), "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_across_wheel_and_overflow() {
        // Same cycle, one event via the overflow heap (scheduled while
        // out of horizon), one via the wheel (scheduled after the
        // cursor advanced). Scheduling order must survive.
        let mut q = EventQueue::new();
        let c = WHEEL_SLOTS as u64 + 100;
        q.schedule(Cycle(0), 0);
        q.schedule(Cycle(c), 1); // overflow (horizon is WHEEL_SLOTS)
        assert_eq!(q.pop(), Some((Cycle(0), 0)));
        q.schedule(Cycle(c), 2); // wheel (empty wheel re-centers on c)
        q.schedule(Cycle(c), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn past_schedule_pops_before_present() {
        // Scheduling earlier than an already-popped cycle is legal; the
        // event pops next (it precedes everything still pending).
        let mut q = EventQueue::new();
        q.schedule(Cycle(100), "present");
        q.schedule(Cycle(200), "future");
        assert_eq!(q.pop(), Some((Cycle(100), "present")));
        q.schedule(Cycle(50), "late");
        assert_eq!(q.pop(), Some((Cycle(50), "late")));
        assert_eq!(q.pop(), Some((Cycle(200), "future")));
    }

    #[test]
    fn wheel_wraps_across_many_rotations() {
        // March time forward through several full wheel rotations with
        // a self-rescheduling event chain; ordering must stay exact.
        let mut q = EventQueue::new();
        q.schedule(Cycle(0), 0u64);
        let mut expected = 0;
        let step = 97; // co-prime with the wheel size: hits every bucket
        while let Some((at, e)) = q.pop() {
            assert_eq!(e, expected);
            assert_eq!(at.0, expected * step);
            expected += 1;
            if expected < 100 {
                q.schedule(at + step, expected);
            }
        }
        assert_eq!(expected, 100);
    }

    #[test]
    fn summary_scan_wraps_to_words_behind_the_cursor() {
        // Buckets in three different occupancy words, one of them at a
        // lower bucket index than the cursor's (a wrapped cycle): the
        // two-level scan must visit them in cycle order, not index order.
        let mut q = EventQueue::new();
        let base = WHEEL_SLOTS as u64 - 70; // cursor's word is the last
        q.schedule(Cycle(base), "a");
        q.schedule(Cycle(base + 200), "c"); // wraps to word 2
        q.schedule(Cycle(base + 65), "b"); // wraps to word 0
        q.schedule(Cycle(base + 1500), "d");
        assert_eq!(q.overflow.len(), 0, "all four fit the wheel window");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
        assert_eq!(q.summary, 0, "summary clears with the last bucket");
    }

    #[test]
    fn empty_wheel_recenters_on_far_schedule() {
        let mut q = EventQueue::new();
        let far = 1_000_000;
        q.schedule(Cycle(far), "a");
        q.schedule(Cycle(far + 1), "b");
        // Both land on the re-centered wheel; nothing overflows.
        assert_eq!(q.overflow.len(), 0);
        assert_eq!(q.pop(), Some((Cycle(far), "a")));
        assert_eq!(q.pop(), Some((Cycle(far + 1), "b")));
    }
}
