//! Replacement policies for set-associative caches.

/// Which line within a full set is evicted on a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least recently used (default — matches the RISCY L1 behaviour the
    /// paper's platforms use).
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Pseudo-random (deterministic xorshift, so simulations are
    /// reproducible).
    Random,
}

/// Per-set replacement state: the clock model of the three policies.
///
/// The state hands out one `u64` of metadata per way (an LRU timestamp, a
/// FIFO insertion counter) and picks the victim from the metadata of a full
/// set. [`crate::Cache`] does not run this clock: it keeps each set's ways
/// in replacement order instead, which is equivalent, and uses this state
/// only for the `Random` victim draw ([`ReplacementState::random_way`]).
/// The clock methods remain the reference the cache is replayed against
/// (`tests/eviction_replay.rs`).
#[derive(Clone, Debug)]
pub struct ReplacementState {
    policy: ReplacementPolicy,
    /// Monotonic counter shared by LRU touches and FIFO fills.
    clock: u64,
    /// xorshift state for `Random`.
    rng: u64,
}

impl ReplacementState {
    /// Creates replacement state for one set. `seed` perturbs the random
    /// policy so different sets do not evict in lockstep.
    pub fn new(policy: ReplacementPolicy, seed: u64) -> Self {
        Self {
            policy,
            clock: 0,
            rng: seed | 1,
        }
    }

    /// The policy this state drives.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Records a hit on a way, returning the metadata value to store.
    pub fn on_hit(&mut self, current: u64) -> u64 {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.clock
            }
            // FIFO and Random ignore reuse.
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => current,
        }
    }

    /// Records a fill of a way, returning the metadata value to store.
    pub fn on_fill(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Chooses a victim way index given the metadata of every way in the
    /// (full) set.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is empty.
    pub fn choose_victim(&mut self, meta: &[u64]) -> usize {
        assert!(!meta.is_empty(), "cannot choose a victim in an empty set");
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => meta
                .iter()
                .enumerate()
                .min_by_key(|&(_, &m)| m)
                .map(|(i, _)| i)
                .expect("set is non-empty"),
            ReplacementPolicy::Random => self.random_way(meta.len()),
        }
    }

    /// Draws a pseudo-random way index below `ways` (xorshift64) —
    /// the `Random` policy's victim in a full range of `ways` ways.
    pub fn random_way(&mut self, ways: usize) -> usize {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % ways as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 0);
        let mut meta = [st.on_fill(), st.on_fill(), st.on_fill()];
        // Touch way 0, making way 1 the LRU.
        meta[0] = st.on_hit(meta[0]);
        assert_eq!(st.choose_victim(&meta), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 0);
        let mut meta = [st.on_fill(), st.on_fill(), st.on_fill()];
        meta[0] = st.on_hit(meta[0]); // no effect under FIFO
        assert_eq!(st.choose_victim(&meta), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 42);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 42);
        let meta = [0u64; 16];
        for _ in 0..100 {
            let va = a.choose_victim(&meta);
            assert_eq!(va, b.choose_victim(&meta));
            assert!(va < 16);
        }
    }

    #[test]
    fn random_seeds_differ() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 1);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 999);
        let meta = [0u64; 16];
        let seq_a: Vec<usize> = (0..32).map(|_| a.choose_victim(&meta)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| b.choose_victim(&meta)).collect();
        assert_ne!(seq_a, seq_b);
    }
}
