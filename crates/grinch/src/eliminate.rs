//! Step 3 — candidate elimination.
//!
//! Each target segment has four round-key-bit hypotheses `(v, u)`. Every
//! observation is a *soundness filter*: the line predicted by the true
//! hypothesis is always present (the crafted access really happened), so a
//! hypothesis whose predicted line is **absent** from an observation is
//! definitively wrong. Noise (other segments, later rounds, missing flush)
//! only ever adds presence, never absence — which is why elimination slows
//! down but never mis-eliminates as the probing round and line size grow.

use crate::oracle::{ObservedLines, VictimOracle};
use crate::stage::StageVictim;
use crate::target::TargetSpec;

/// The four `(v_bit, u_bit)` hypotheses in survivor order. Hypothesis `h`
/// is `(h & 1 != 0, h & 2 != 0)`, i.e. `v | u << 1`.
const HYPOTHESES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// `SURVIVORS[mask]`: the hypotheses whose bits are set in `mask`, in
/// [`HYPOTHESES`] order (the first `n` entries), and their count `n`.
static SURVIVORS: [([(bool, bool); 4], usize); 16] = {
    let mut table = [([(false, false); 4], 0); 16];
    let mut mask = 0;
    while mask < 16 {
        let mut h = 0;
        while h < 4 {
            if mask >> h & 1 != 0 {
                let n = table[mask].1;
                table[mask].0[n] = HYPOTHESES[h];
                table[mask].1 = n + 1;
            }
            h += 1;
        }
        mask += 1;
    }
    table
};

/// The bit of hypothesis `(v, u)` in a [`CandidateSet`] mask.
fn bit_of(hypothesis: (bool, bool)) -> u8 {
    1 << (u8::from(hypothesis.0) | u8::from(hypothesis.1) << 1)
}

/// The surviving `(v_bit, u_bit)` hypotheses for one target segment: a
/// 4-bit mask, one bit per hypothesis (see [`HYPOTHESES`]), so a stage's
/// sixteen sets are plain `Copy` values.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CandidateSet {
    mask: u8,
}

impl CandidateSet {
    /// All four hypotheses, nothing eliminated yet.
    pub fn full() -> Self {
        Self { mask: 0b1111 }
    }

    /// The surviving hypotheses, always in the order (false, false),
    /// (true, false), (false, true), (true, true).
    pub fn survivors(&self) -> &'static [(bool, bool)] {
        let (list, n) = &SURVIVORS[usize::from(self.mask)];
        &list[..*n]
    }

    /// Whether exactly one hypothesis survives.
    pub fn is_resolved(&self) -> bool {
        self.mask.count_ones() == 1
    }

    /// The unique survivor, if resolved.
    pub fn resolved(&self) -> Option<(bool, bool)> {
        self.is_resolved().then(|| self.survivors()[0])
    }

    /// Number of surviving hypotheses.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether every hypothesis has been eliminated (indicates a broken
    /// observation channel — cannot happen with a sound oracle).
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Removes a specific hypothesis. Returns whether it was present.
    pub fn remove(&mut self, hypothesis: (bool, bool)) -> bool {
        let bit = bit_of(hypothesis);
        let present = self.mask & bit != 0;
        self.mask &= !bit;
        present
    }

    /// Keeps only the hypotheses `(v, u)` for which `keep(v, u)` returns
    /// `true` (the stage loop passes each victim's line test, see
    /// [`crate::stage::StageVictim::hypothesis_consistent`]). Returns how
    /// many were eliminated.
    pub fn retain(&mut self, mut keep: impl FnMut(bool, bool) -> bool) -> usize {
        let before = self.len();
        for &(v, u) in self.survivors() {
            if !keep(v, u) {
                self.mask &= !bit_of((v, u));
            }
        }
        before - self.len()
    }

    /// Applies one observation under the campaign `spec`: eliminates every
    /// hypothesis whose predicted line is absent. Returns how many
    /// hypotheses were eliminated.
    pub fn eliminate(
        &mut self,
        oracle: &VictimOracle,
        spec: &TargetSpec,
        observed: &ObservedLines,
    ) -> usize {
        self.retain(|v, u| oracle.hypothesis_consistent(spec, observed, v, u))
    }
}

impl std::fmt::Debug for CandidateSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateSet")
            .field("survivors", &self.survivors())
            .finish()
    }
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::craft::craft_plaintext;
    use crate::oracle::ObservationConfig;
    use gift_cipher::bitwise::Gift64;
    use gift_cipher::Key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_set_has_four_candidates() {
        let set = CandidateSet::full();
        assert_eq!(set.len(), 4);
        assert!(!set.is_resolved());
        assert!(!set.is_empty());
        assert_eq!(set.resolved(), None);
    }

    #[test]
    fn elimination_converges_to_true_key_bits() {
        let key = Key::from_u128(0x1234_5678_9abc_def0_0fed_cba9_8765_4321);
        let mut oracle = VictimOracle::new(key, ObservationConfig::ideal());
        let segment = 9;
        let spec = TargetSpec::new(1, segment);
        let rk = Gift64::new(key).round_keys()[0];
        let truth = ((rk.v >> segment) & 1 == 1, (rk.u >> segment) & 1 == 1);

        let mut set = CandidateSet::full();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..64 {
            let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
            let observed = oracle.observe(pt);
            set.eliminate(&oracle, &spec, &observed);
            assert!(
                set.survivors().contains(&truth),
                "true hypothesis must never be eliminated"
            );
            if set.is_resolved() {
                break;
            }
        }
        assert_eq!(set.resolved(), Some(truth));
    }

    #[test]
    fn elimination_never_removes_truth_even_without_flush() {
        let key = Key::from_u128(0xaaaa_bbbb_cccc_dddd_eeee_ffff_0000_1111);
        let cfg = ObservationConfig::ideal()
            .with_flush(false)
            .with_probing_round(4);
        let mut oracle = VictimOracle::new(key, cfg);
        let segment = 3;
        let spec = TargetSpec::new(1, segment);
        let rk = Gift64::new(key).round_keys()[0];
        let truth = ((rk.v >> segment) & 1 == 1, (rk.u >> segment) & 1 == 1);
        let mut set = CandidateSet::full();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
            let observed = oracle.observe(pt);
            set.eliminate(&oracle, &spec, &observed);
        }
        assert!(set.survivors().contains(&truth));
    }
}
