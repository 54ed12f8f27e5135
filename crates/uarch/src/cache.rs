//! Set-associative caches with true-LRU replacement.

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative cache model (tags only — data lives in the functional
/// memory). True-LRU replacement, write-allocate.
///
/// # Examples
///
/// ```
/// use emod_uarch::Cache;
///
/// let mut c = Cache::new(1024, 2, 64);
/// assert!(!c.access(0x40));  // cold miss
/// assert!(c.access(0x40));   // now resident
/// assert!(c.access(0x44));   // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × assoc` tag slots, one contiguous slice per set in LRU order
    /// (front = MRU). A slot stores `tag + 1`, so the zero-initialised
    /// array starts empty and no real tag ever matches an empty way.
    tags: Vec<u64>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    line_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size` bytes, `assoc` ways and `line` byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line count).
    pub fn new(size: u64, assoc: u32, line: u64) -> Self {
        assert!(size > 0 && assoc > 0 && line > 0, "degenerate geometry");
        let lines = size / line;
        let sets = (lines / assoc as u64).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            tags: vec![0; (sets * assoc as u64) as usize],
            assoc: assoc as usize,
            set_shift: line.trailing_zeros(),
            set_mask: sets - 1,
            line_shift: line.trailing_zeros() + sets.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The set's slot slice start and the stored (`tag + 1`) form of
    /// `addr`'s tag. Tags are at most 58 bits wide, so `+ 1` never wraps.
    fn slot_and_tag(&self, addr: u64) -> (usize, u64) {
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        (set * self.assoc, (addr >> self.line_shift) + 1)
    }

    /// Accesses `addr`; returns whether it hit. Updates LRU state and
    /// allocates on miss.
    pub fn access(&mut self, addr: u64) -> bool {
        let (start, tag) = self.slot_and_tag(addr);
        let ways = &mut self.tags[start..start + self.assoc];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            // Empty slots sit behind the resident tags, so the last slot
            // is either free or the LRU victim.
            ways.rotate_right(1);
            ways[0] = tag;
            self.stats.misses += 1;
            false
        }
    }

    /// Whether `addr` is resident, without updating any state.
    pub fn probe(&self, addr: u64) -> bool {
        let (start, tag) = self.slot_and_tag(addr);
        self.tags[start..start + self.assoc].contains(&tag)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (state is kept — used at sampling-window
    /// boundaries).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_hot() {
        let mut c = Cache::new(4096, 1, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 KiB direct mapped, 64 B lines -> 64 sets; addresses 4 KiB apart
        // conflict.
        let mut c = Cache::new(4096, 1, 64);
        assert!(!c.access(0));
        assert!(!c.access(4096));
        assert!(!c.access(0), "must have been evicted");
    }

    #[test]
    fn two_way_avoids_single_conflict() {
        let mut c = Cache::new(4096, 2, 64);
        assert!(!c.access(0));
        assert!(!c.access(4096)); // same set, other way
        assert!(c.access(0), "2-way keeps both");
        assert!(c.access(4096));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(2 * 64, 2, 64); // one set, two ways
        c.access(0); // A
        c.access(64); // B
        c.access(0); // touch A -> B is LRU
        c.access(128); // C evicts B
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = Cache::new(2 * 64, 2, 64);
        c.access(0);
        c.access(64);
        assert!(c.probe(0));
        // Probing 0 must not refresh it: 0 is still LRU? No — access order
        // was 0 then 64, so 0 is LRU; adding a new line evicts 0.
        c.access(128);
        assert!(!c.probe(0));
    }

    #[test]
    fn larger_cache_fits_working_set() {
        let mut small = Cache::new(8 * 1024, 1, 64);
        let mut large = Cache::new(128 * 1024, 1, 64);
        // Stream over 64 KiB twice.
        for round in 0..2 {
            for addr in (0..64 * 1024u64).step_by(64) {
                small.access(addr);
                large.access(addr);
                let _ = round;
            }
        }
        assert!(large.stats().hits > small.stats().hits);
        assert!(small.stats().miss_rate() > 0.9);
        assert!(large.stats().miss_rate() < 0.6);
    }

    /// The reference model: one `Vec` per set holding tags in LRU order.
    struct NaiveLru {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        line: u64,
    }

    impl NaiveLru {
        fn new(size: u64, assoc: u32, line: u64) -> Self {
            let sets = (size / line / assoc as u64).max(1) as usize;
            NaiveLru {
                sets: vec![Vec::new(); sets],
                assoc: assoc as usize,
                line,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let block = addr / self.line;
            let n = self.sets.len() as u64;
            let (set, tag) = ((block % n) as usize, block / n);
            let ways = &mut self.sets[set];
            let hit = match ways.iter().position(|&t| t == tag) {
                Some(pos) => {
                    ways.remove(pos);
                    true
                }
                None => {
                    ways.truncate(self.assoc - 1);
                    false
                }
            };
            ways.insert(0, tag);
            hit
        }
    }

    fn assert_matches_naive(size: u64, assoc: u32, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flat = Cache::new(size, assoc, 64);
        let mut naive = NaiveLru::new(size, assoc, 64);
        // A footprint of four cache capacities keeps both hits and
        // evictions frequent.
        for i in 0..20_000 {
            let addr = rng.gen_range(0..4 * size);
            assert_eq!(
                flat.access(addr),
                naive.access(addr),
                "access {} to {:#x} (size {}, assoc {})",
                i,
                addr,
                size,
                assoc
            );
            let other = rng.gen_range(0..4 * size);
            let block = other / 64;
            let n = naive.sets.len() as u64;
            let resident = naive.sets[(block % n) as usize].contains(&(block / n));
            assert_eq!(flat.probe(other), resident);
        }
        let s = flat.stats();
        assert!(s.hits > 0 && s.misses > 0, "{:?}", s);
    }

    #[test]
    fn flat_lru_matches_naive_model() {
        for (assoc, seed) in [(1, 11), (2, 12), (8, 13)] {
            assert_matches_naive(8 * 1024, assoc, seed);
        }
        // One fully associative set.
        assert_matches_naive(16 * 64, 16, 14);
    }

    #[test]
    fn cold_access_to_address_zero_misses() {
        for assoc in [1, 2, 8] {
            let mut c = Cache::new(4096, assoc, 64);
            assert!(!c.probe(0), "an empty way must not hold tag 0");
            assert!(!c.access(0), "cold access to 0 must miss");
            assert!(c.access(0));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = Cache::new(3 * 64, 1, 64);
    }
}
