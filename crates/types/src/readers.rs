//! Bit-vector of reading processors.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Sub};

use crate::ids::{ProcId, MAX_PROCS};

/// A set of processors encoded as a bit-vector, one bit per processor.
///
/// This is the representation VMSP uses for a read sequence ("much as a
/// full-map directory maintains the identity of multiple readers of a
/// block", paper §3.1) and the representation the full-map directory uses
/// for its sharer list.
///
/// The set is one `u64` word: bit `i` is processor `Pi`, so it holds up
/// to [`MAX_PROCS`] (64) processors, and every operation is a single bit
/// operation on the word. The set is `Copy`, so the directory, the
/// predictor histories and the speculation tickets each hold their own
/// value with no arena or allocation behind it.
///
/// # Example
///
/// ```
/// use specdsm_types::{ProcId, ReaderSet};
///
/// let mut readers = ReaderSet::new();
/// readers.insert(ProcId(1));
/// readers.insert(ProcId(2));
/// assert_eq!(readers.len(), 2);
/// assert!(readers.contains(ProcId(1)));
/// assert_eq!(readers.to_string(), "{P1,P2}");
///
/// let others = ReaderSet::from_iter([ProcId(2), ProcId(3)]);
/// assert_eq!((readers | others).len(), 3);
/// assert_eq!((readers & others), ReaderSet::single(ProcId(2)));
/// assert_eq!((readers - others), ReaderSet::single(ProcId(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReaderSet(u64);

impl ReaderSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        ReaderSet(0)
    }

    /// A set containing exactly one processor.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 >= MAX_PROCS`.
    #[must_use]
    pub fn single(p: ProcId) -> Self {
        let mut s = ReaderSet::new();
        s.insert(p);
        s
    }

    /// The set of all processors `P0..Pn`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCS`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_PROCS, "at most {MAX_PROCS} processors supported");
        ReaderSet(if n == 0 {
            0
        } else {
            u64::MAX >> (MAX_PROCS - n)
        })
    }

    /// Adds `p`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p.0 >= MAX_PROCS`.
    #[inline]
    pub fn insert(&mut self, p: ProcId) -> bool {
        assert!(p.0 < MAX_PROCS, "processor id {} out of range", p.0);
        let bit = 1u64 << p.0;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `p`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, p: ProcId) -> bool {
        let present = self.contains(p);
        if present {
            self.0 &= !(1u64 << p.0);
        }
        present
    }

    /// Whether `p` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(self, p: ProcId) -> bool {
        p.0 < MAX_PROCS && self.0 & (1u64 << p.0) != 0
    }

    /// Removes and returns the smallest member, or `None` if empty:
    /// destructive ascending iteration, the step [`ReaderSet::iter`]
    /// takes on its own copy of the set.
    #[inline]
    pub fn pop_first(&mut self) -> Option<ProcId> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(ProcId(i))
    }

    /// Number of processors in the set.
    #[must_use]
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `other` is a subset of `self`.
    #[must_use]
    #[inline]
    pub fn is_superset(self, other: ReaderSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Iterates processors in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = ProcId> {
        let mut rest = self;
        std::iter::from_fn(move || rest.pop_first())
    }

    /// The raw bit-vector (bit `i` set iff `ProcId(i)` is a member).
    /// Predictor pattern keys hash this word directly.
    #[must_use]
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Builds a set from a raw bit-vector.
    #[must_use]
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        ReaderSet(bits)
    }
}

impl BitOr for ReaderSet {
    type Output = ReaderSet;
    fn bitor(self, rhs: ReaderSet) -> ReaderSet {
        ReaderSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for ReaderSet {
    fn bitor_assign(&mut self, rhs: ReaderSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for ReaderSet {
    type Output = ReaderSet;
    fn bitand(self, rhs: ReaderSet) -> ReaderSet {
        ReaderSet(self.0 & rhs.0)
    }
}

impl Sub for ReaderSet {
    type Output = ReaderSet;
    /// Set difference.
    fn sub(self, rhs: ReaderSet) -> ReaderSet {
        ReaderSet(self.0 & !rhs.0)
    }
}

impl FromIterator<ProcId> for ReaderSet {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut s = ReaderSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<ProcId> for ReaderSet {
    fn extend<I: IntoIterator<Item = ProcId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Display for ReaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ReaderSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcId(3)));
        assert!(!s.insert(ProcId(3)), "second insert is not fresh");
        assert!(s.contains(ProcId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcId(3)));
        assert!(!s.remove(ProcId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn all_covers_range() {
        let s = ReaderSet::all(16);
        assert_eq!(s.len(), 16);
        assert!(s.contains(ProcId(0)));
        assert!(s.contains(ProcId(15)));
        assert!(!s.contains(ProcId(16)));
        assert_eq!(ReaderSet::all(MAX_PROCS).len(), MAX_PROCS);
        assert!(ReaderSet::all(0).is_empty());
        for n in [1usize, 2, 33, 63, 64] {
            let s = ReaderSet::all(n);
            assert_eq!(s.len(), n, "all({n})");
            assert!(s.contains(ProcId(n - 1)));
            assert!(!s.contains(ProcId(n)));
        }
    }

    #[test]
    fn set_algebra() {
        let a = ReaderSet::from_iter([ProcId(0), ProcId(1)]);
        let b = ReaderSet::from_iter([ProcId(1), ProcId(2)]);
        assert_eq!((a | b).len(), 3);
        assert_eq!(a & b, ReaderSet::single(ProcId(1)));
        assert_eq!(a - b, ReaderSet::single(ProcId(0)));
        assert!((a | b).is_superset(a));
        assert!(!a.is_superset(b));
    }

    #[test]
    fn iter_ascending() {
        let s = ReaderSet::from_iter([ProcId(9), ProcId(2), ProcId(5), ProcId(63)]);
        let got: Vec<usize> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![2, 5, 9, 63]);
    }

    #[test]
    fn display_format() {
        let s = ReaderSet::from_iter([ProcId(1), ProcId(2)]);
        assert_eq!(s.to_string(), "{P1,P2}");
        assert_eq!(ReaderSet::new().to_string(), "{}");
    }

    #[test]
    fn bits_round_trip() {
        let s = ReaderSet::from_iter([ProcId(0), ProcId(63)]);
        assert_eq!(ReaderSet::from_bits(s.bits()), s);
        assert_eq!(s.bits(), 1 | 1 << 63);
    }

    #[test]
    fn ordering_matches_u64_order_for_inline_sets() {
        let a = ReaderSet::from_bits(0b0110);
        let b = ReaderSet::from_bits(0b1001);
        assert!(a < b, "set order is the raw u64 order");
        assert!(b < ReaderSet::single(ProcId(63)));
    }

    #[test]
    fn one_copy_word() {
        fn is_copy<T: Copy>() {}
        is_copy::<ReaderSet>();
        assert_eq!(std::mem::size_of::<ReaderSet>(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        ReaderSet::new().insert(ProcId(MAX_PROCS));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let mut all = ReaderSet::all(MAX_PROCS);
        assert!(!all.contains(ProcId(MAX_PROCS)));
        assert!(!all.remove(ProcId(MAX_PROCS)));
        assert!(!ReaderSet::all(16).contains(ProcId(16)));
    }

    #[test]
    fn extend_and_or_assign() {
        let mut s = ReaderSet::new();
        s.extend([ProcId(1), ProcId(4)]);
        s |= ReaderSet::single(ProcId(2));
        assert_eq!(s.len(), 3);
        s |= ReaderSet::single(ProcId(63));
        assert_eq!(s.len(), 4);
        assert!(s.contains(ProcId(63)));
    }
}
