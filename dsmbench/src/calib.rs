//! A host-speed reference owned by the benchmark.
//!
//! Other tenants of the host slow it by 30-50% for seconds to minutes at
//! a time, and that drift, not the program, set most of the run-to-run
//! spread of raw host times. So after every timed step the benchmark
//! runs a short, fixed chunk of work of its own and scales the step's
//! host time by `REF_CHUNK_S / k`, where `k` is the mean host time of
//! the chunks just before and just after the step: the step reads as on
//! a host where a chunk takes `REF_CHUNK_S`. The chunk replays a fixed
//! synthetic directory trace through a miniature two-level predictor
//! (per-block history, a fresh hashed pattern table per block), the
//! access pattern of both the predictors and the directories in small.
//! It uses only `std` and never changes, so a change to the program
//! moves scaled time exactly as it moves host time.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Blocks in the synthetic trace.
const BLOCKS: usize = 4096;
/// Messages per block.
const MSGS_PER_BLOCK: usize = 96;
/// Distinct message values.
const SYMBOLS: u64 = 48;
/// History depth of the miniature predictor.
const DEPTH: usize = 4;
/// Blocks one chunk replays.
const CHUNK_BLOCKS: usize = 1024;

/// The chunk time scaled host times are referred to: a round figure
/// near the chunk's time on a quiet 2-CPU container.
pub const REF_CHUNK_S: f64 = 0.004;

/// Multiplicative hash of `u64` keys.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type PatternTable = HashMap<u64, (Box<[u32]>, u32), BuildHasherDefault<MulHasher>>;

/// Host seconds of one timed step, raw and at reference speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Host seconds.
    pub raw: f64,
    /// Host seconds scaled to reference host speed.
    pub scaled: f64,
}

impl Lap {
    /// Adds `other` to this lap.
    pub fn add(&mut self, other: Lap) {
        self.raw += other.raw;
        self.scaled += other.scaled;
    }
}

/// Times steps against the reference chunk.
pub struct Calibrator {
    trace: Vec<Vec<u32>>,
    next: usize,
    enabled: bool,
    /// Host seconds of the latest chunk.
    last: f64,
    /// Host seconds of every chunk run by [`Calibrator::lap`].
    chunks: Vec<f64>,
}

impl Calibrator {
    /// Builds the synthetic trace (fixed seed) and runs one chunk.
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Each block repeats a short pattern, with one message in ten
        // replaced by noise.
        let trace = (0..BLOCKS)
            .map(|_| {
                let period = 2 + (rng() % 6) as usize;
                let pattern: Vec<u32> = (0..period).map(|_| (rng() % SYMBOLS) as u32).collect();
                (0..MSGS_PER_BLOCK)
                    .map(|i| {
                        if rng() % 10 == 0 {
                            (rng() % SYMBOLS) as u32
                        } else {
                            pattern[i % period]
                        }
                    })
                    .collect()
            })
            .collect();
        let mut c = Calibrator {
            trace,
            next: 0,
            enabled: true,
            last: 0.0,
            chunks: Vec::new(),
        };
        c.last = c.chunk();
        c
    }

    /// Runs one chunk and returns its host seconds.
    fn chunk(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..CHUNK_BLOCKS {
            let msgs = &self.trace[self.next];
            self.next = (self.next + 1) % BLOCKS;
            let mut table = PatternTable::default();
            let mut history = [0u32; DEPTH];
            for (i, &m) in msgs.iter().enumerate() {
                if i >= DEPTH {
                    let key = history.iter().fold(0u64, |k, &s| {
                        k.wrapping_mul(1_000_003).wrapping_add(u64::from(s))
                    });
                    match table.entry(key) {
                        Entry::Occupied(mut o) => {
                            let (window, prediction) = o.get_mut();
                            if **window == history {
                                acc += u64::from(*prediction == m);
                                *prediction = m;
                            } else {
                                *window = history[..].into();
                                *prediction = m;
                            }
                        }
                        Entry::Vacant(v) => {
                            v.insert((history[..].into(), m));
                        }
                    }
                }
                history.rotate_left(1);
                history[DEPTH - 1] = m;
            }
            acc = acc.wrapping_add(table.len() as u64);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Turns the chunks on or off. While off, [`Calibrator::lap`] runs
    /// no chunk and reports raw time as scaled; turning them back on
    /// runs a fresh chunk to scale the next step against.
    pub fn set_enabled(&mut self, on: bool) {
        if on && !self.enabled {
            self.last = self.chunk();
        }
        self.enabled = on;
    }

    /// Ends a step that started at `start`: takes its host time, then
    /// runs one chunk and scales the step by the mean of that chunk and
    /// the one before the step.
    pub fn lap(&mut self, start: Instant) -> Lap {
        let raw = start.elapsed().as_secs_f64();
        if !self.enabled {
            return Lap { raw, scaled: raw };
        }
        let k = self.chunk();
        let scaled = raw * REF_CHUNK_S / ((self.last + k) / 2.0);
        self.last = k;
        self.chunks.push(k);
        Lap { raw, scaled }
    }

    /// Host seconds of every chunk run by [`Calibrator::lap`].
    pub fn chunks(&self) -> &[f64] {
        &self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_scaled_only_while_enabled() {
        let mut c = Calibrator::new();
        let lap = c.lap(Instant::now());
        assert_eq!(c.chunks().len(), 1);
        assert!(lap.raw >= 0.0 && lap.scaled.is_finite());

        c.set_enabled(false);
        let lap = c.lap(Instant::now());
        assert_eq!(lap.raw, lap.scaled);
        assert_eq!(c.chunks().len(), 1, "a disabled calibrator runs no chunk");

        c.set_enabled(true);
        c.lap(Instant::now());
        assert_eq!(c.chunks().len(), 2);
        assert!(c.chunks().iter().all(|&k| k > 0.0));
    }
}
