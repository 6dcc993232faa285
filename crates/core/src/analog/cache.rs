//! A bounded cache of compiled [`Tape`]s, keyed by graph shape.
//!
//! A builder graph's structure, time constants, decays and offsets depend
//! only on the function, the sequence lengths, its parameters and the
//! error model's seed: [`crate::analog::ErrorModel::offset_for`] draws in
//! node order whatever the voltages. So one compiled tape serves every
//! request of its shape once its input sources are re-programmed
//! ([`Tape::set_inputs`]).
//!
//! The cache belongs to one fabric configuration (which fixes the seed)
//! and holds at most [`TAPE_CACHE_NODES`] nodes, evicting the least
//! recently used shapes first. A tape is checked out for the duration of a
//! run, so concurrent requests never share one; two concurrent requests of
//! the same shape each get a tape, and the later check-in replaces the
//! earlier.

use std::collections::HashMap;
use std::sync::Mutex;

use mda_distance::dtw::Band;
use mda_distance::DistanceKind;

use crate::analog::Tape;
use crate::config::AcceleratorConfig;

/// Total tape nodes a [`TapeCache`] keeps resident (about 60 bytes each,
/// so at most about 16 MB). Every DTW and Hausdorff shape at lengths
/// 16–32 fits four times over (34 shapes, 62 900 nodes, 3.8 MB); a single
/// tape above the budget is never cached.
pub const TAPE_CACHE_NODES: usize = 1 << 18;

/// Everything a builder graph's structure depends on besides the fabric
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ShapeKey {
    pub(crate) kind: DistanceKind,
    pub(crate) m: usize,
    pub(crate) n: usize,
    /// The Sakoe–Chiba band (DTW only; `Band::Full` otherwise).
    pub(crate) band: Band,
    /// Bits of the match threshold, V (thresholded kinds only; 0
    /// otherwise).
    pub(crate) threshold_bits: u64,
    pub(crate) weight_bits: u64,
}

/// Counters of a [`TapeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeCacheStats {
    /// Check-outs that found a compiled tape.
    pub hits: u64,
    /// Check-outs that had to compile.
    pub misses: u64,
    /// Tapes resident now.
    pub tapes: usize,
    /// Nodes resident now.
    pub nodes: usize,
    /// Approximate heap bytes resident now.
    pub bytes: usize,
}

#[derive(Debug, Default)]
struct Entries {
    map: HashMap<ShapeKey, (u64, Tape)>,
    tick: u64,
    nodes: usize,
    hits: u64,
    misses: u64,
}

/// Compiled tapes of recently served shapes for one fabric configuration.
#[derive(Debug)]
pub struct TapeCache {
    config: AcceleratorConfig,
    entries: Mutex<Entries>,
}

impl TapeCache {
    /// An empty cache for accelerators built over `config`.
    pub fn new(config: AcceleratorConfig) -> TapeCache {
        TapeCache {
            config,
            entries: Mutex::default(),
        }
    }

    /// The fabric configuration the cached tapes were compiled for.
    pub(crate) fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries
            .lock()
            .expect("tape cache poisoned: a thread panicked while holding it")
    }

    /// Takes the tape for `key` out of the cache, or compiles one with
    /// `compile`; hand it back with [`Self::check_in`].
    pub(crate) fn check_out(&self, key: &ShapeKey, compile: impl FnOnce() -> Tape) -> Tape {
        let found = {
            let mut e = self.lock();
            let found = e.map.remove(key);
            match &found {
                Some((_, tape)) => {
                    e.hits += 1;
                    e.nodes -= tape.len();
                }
                None => e.misses += 1,
            }
            found
        };
        match found {
            Some((_, tape)) => tape,
            None => compile(),
        }
    }

    /// Returns a tape to the cache as the most recently used, evicting the
    /// least recently used tapes until the node budget holds.
    pub(crate) fn check_in(&self, key: ShapeKey, tape: Tape) {
        if tape.len() > TAPE_CACHE_NODES {
            return;
        }
        let mut e = self.lock();
        e.tick += 1;
        e.nodes += tape.len();
        let tick = e.tick;
        if let Some((_, old)) = e.map.insert(key, (tick, tape)) {
            e.nodes -= old.len();
        }
        while e.nodes > TAPE_CACHE_NODES {
            let oldest = *e
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .expect("over budget implies an entry")
                .0;
            let (_, evicted) = e.map.remove(&oldest).expect("key just found");
            e.nodes -= evicted.len();
        }
    }

    /// The cache's counters and resident size.
    pub fn stats(&self) -> TapeCacheStats {
        let e = self.lock();
        TapeCacheStats {
            hits: e.hits,
            misses: e.misses,
            tapes: e.map.len(),
            nodes: e.nodes,
            bytes: e.map.values().map(|(_, t)| t.resident_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analog::graph::builders;
    use crate::analog::ErrorModel;

    /// A Manhattan tape of `len` elements: `3·len + 1` nodes.
    fn tape(len: usize) -> Tape {
        let config = AcceleratorConfig::paper_defaults();
        let zeros = vec![0.0; len];
        Tape::compile(&builders::manhattan(
            &config,
            &zeros,
            &zeros,
            &zeros,
            &mut ErrorModel::ideal(),
        ))
    }

    fn key(m: usize) -> ShapeKey {
        ShapeKey {
            kind: DistanceKind::Manhattan,
            m,
            n: m,
            band: Band::Full,
            threshold_bits: 0,
            weight_bits: 1.0f64.to_bits(),
        }
    }

    #[test]
    fn check_out_hits_after_check_in() {
        let cache = TapeCache::new(AcceleratorConfig::paper_defaults());
        let t = cache.check_out(&key(4), || tape(4));
        cache.check_in(key(4), t);
        let t = cache.check_out(&key(4), || unreachable!("cached"));
        assert_eq!(cache.stats().tapes, 0, "checked out");
        cache.check_in(key(4), t);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.tapes, s.nodes), (1, 1, 1, 13));
    }

    #[test]
    fn node_budget_evicts_least_recently_used() {
        let cache = TapeCache::new(AcceleratorConfig::paper_defaults());
        // Three of these fit the budget, four do not.
        let len = TAPE_CACHE_NODES / 10;
        for m in [len, len + 1, len + 2] {
            cache.check_in(key(m), tape(m));
        }
        // Touch the oldest, so the next insertion evicts the second.
        let t = cache.check_out(&key(len), || unreachable!("cached"));
        cache.check_in(key(len), t);
        cache.check_in(key(len + 3), tape(len + 3));
        assert!(cache.stats().nodes <= TAPE_CACHE_NODES);
        assert_eq!(cache.stats().tapes, 3);
        cache.check_out(&key(len + 1), || tape(1));
        assert_eq!(cache.stats().misses, 1, "second shape was evicted");
        // A tape above the whole budget is never kept.
        cache.check_in(key(TAPE_CACHE_NODES), tape(TAPE_CACHE_NODES / 3 + 1));
        assert_eq!(cache.stats().tapes, 3);
    }
}
