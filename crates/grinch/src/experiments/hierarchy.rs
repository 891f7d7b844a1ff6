//! Memory-hierarchy experiment — the paper's stated future work ("further
//! explore the effect of the memory hierarchy on the effectiveness of the
//! attack"), realised on the two-level model from `cache-sim`.
//!
//! Three configurations of the same GRINCH stage-1 campaign:
//!
//! 1. **Flat shared L1** — the paper's setup (baseline).
//! 2. **Private L1 over shared L2, coherent flush** — the attacker's flush
//!    invalidates both levels (a `clflush`-style instruction). The attack
//!    still works, but the probe surface is the L2's wider lines, so the
//!    effort rises exactly like Table I's wide-line rows.
//! 3. **Private L1 over shared L2, L2-only flush** — a cross-core attacker
//!    with no coherent flush can only evict the shared level. Victim
//!    re-accesses then hit its private L1 and never refill L2, so the
//!    probe suffers *structural false absences*: the hard-elimination rule
//!    erases the true hypothesis and the stage fails — a hierarchy, not a
//!    countermeasure, closing the channel.

use crate::craft::craft_plaintext;
use crate::eliminate::CandidateSet;
use crate::target::{disjoint_batches, TargetSpec};
use cache_sim::multilevel::TwoLevelHierarchy;
use gift_cipher::observer::{Access, MemoryObserver};
use gift_cipher::{Key, TableGift64, TableLayout, GIFT64_SEGMENTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which hierarchy/flush capability a run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchySetting {
    /// Flat shared L1 (the paper's platform).
    FlatSharedL1,
    /// Private L1 + shared L2, attacker flush reaches both levels.
    TwoLevelCoherentFlush,
    /// Private L1 + shared L2, attacker can only flush/probe L2.
    TwoLevelL2OnlyFlush,
}

impl core::fmt::Display for HierarchySetting {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::FlatSharedL1 => "flat shared L1",
            Self::TwoLevelCoherentFlush => "L1+L2, coherent flush",
            Self::TwoLevelL2OnlyFlush => "L1+L2, L2-only flush",
        };
        f.write_str(s)
    }
}

/// One row of the hierarchy experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyRow {
    /// The modelled setting.
    pub setting: HierarchySetting,
    /// Whether the stage-1 (32-bit) recovery succeeded.
    pub recovered: bool,
    /// Encryptions consumed.
    pub encryptions: u64,
}

struct VictimSideObserver<'a> {
    hierarchy: &'a mut TwoLevelHierarchy,
}

impl MemoryObserver for VictimSideObserver<'_> {
    fn on_read(&mut self, access: Access) {
        self.hierarchy.victim_read(access.addr);
    }
}

/// L2 probe line base addresses covering the S-box.
fn l2_probe_addrs(layout: &TableLayout, l2_line: usize) -> Vec<u64> {
    let lb = l2_line as u64;
    let first = layout.sbox_base / lb;
    let last = (layout.sbox_base + 15) / lb;
    (first..=last).map(|l| l * lb).collect()
}

/// Runs a stage-1 recovery under the given hierarchy setting.
pub fn measure(setting: HierarchySetting, key: Key, max_encryptions: u64) -> HierarchyRow {
    measure_traced(
        setting,
        key,
        max_encryptions,
        grinch_telemetry::Telemetry::disabled(),
    )
}

/// Like [`measure`], but wraps the row in an `experiment.hierarchy.cell`
/// span and publishes the cache/hierarchy metrics into `telemetry`.
pub fn measure_traced(
    setting: HierarchySetting,
    key: Key,
    max_encryptions: u64,
    telemetry: grinch_telemetry::Telemetry,
) -> HierarchyRow {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.hierarchy.cell",
        setting = setting.to_string()
    );
    match setting {
        HierarchySetting::FlatSharedL1 => {
            let mut oracle =
                crate::oracle::VictimOracle::new(key, crate::oracle::ObservationConfig::ideal());
            oracle.set_telemetry(telemetry);
            let mut rng = StdRng::seed_from_u64(0x11e7);
            let cfg = crate::stage::StageConfig::new().with_max_encryptions(max_encryptions);
            let result = crate::stage::run_stage(&mut oracle, &[], 1, &cfg, &mut rng);
            let truth = gift_cipher::Gift64::new(key).round_keys()[0];
            HierarchyRow {
                setting,
                recovered: result.round_key() == Some(truth),
                encryptions: result.encryptions,
            }
        }
        HierarchySetting::TwoLevelCoherentFlush | HierarchySetting::TwoLevelL2OnlyFlush => {
            measure_two_level(setting, key, max_encryptions, telemetry)
        }
    }
}

fn measure_two_level(
    setting: HierarchySetting,
    key: Key,
    max_encryptions: u64,
    telemetry: grinch_telemetry::Telemetry,
) -> HierarchyRow {
    let layout = TableLayout::default();
    let cipher = TableGift64::new(key, layout);
    let l2_line = 8usize;
    let mut hierarchy = TwoLevelHierarchy::grinch_default();
    hierarchy.set_telemetry(telemetry.clone());
    let probe_addrs = l2_probe_addrs(&layout, l2_line);
    let coherent = setting == HierarchySetting::TwoLevelCoherentFlush;

    let mut rng = StdRng::seed_from_u64(0x11e8);
    let mut encryptions = 0u64;
    let mut candidates = [CandidateSet::full(); GIFT64_SEGMENTS];
    let truth = gift_cipher::Gift64::new(key).round_keys()[0];

    'batches: for batch in disjoint_batches(1) {
        let mut stall_limit = 24u64;
        loop {
            for rotation in 0..16usize {
                if batch.iter().all(|&s| candidates[s].is_resolved()) {
                    break;
                }
                let specs: Vec<TargetSpec> = batch
                    .iter()
                    .map(|&s| {
                        let pattern = if rotation == 0 {
                            0b1111
                        } else {
                            rng.gen_range(0..16u8)
                        };
                        TargetSpec::with_forced_pattern(1, s, pattern)
                    })
                    .collect();
                let mut stall = 0u64;
                while stall < stall_limit {
                    if encryptions >= max_encryptions {
                        break 'batches;
                    }
                    if batch.iter().all(|&s| candidates[s].is_resolved()) {
                        break;
                    }
                    let pt = craft_plaintext(&specs, &[], &mut rng).expect("disjoint batch");
                    encryptions += 1;
                    telemetry.counter_inc("attack.encryptions");
                    // Attacker flush phase.
                    for &a in &probe_addrs {
                        if coherent {
                            hierarchy.flush_line(a);
                        } else {
                            hierarchy.l2_mut().flush_line(a);
                        }
                    }
                    // Victim runs rounds 1..=2; attacker's flush after
                    // round 1 follows the same capability.
                    let mut state = pt;
                    for round in 0..2usize {
                        if round == 1 {
                            if coherent {
                                hierarchy.flush_all();
                            } else {
                                hierarchy.flush_l2_only();
                            }
                        }
                        let mut obs = VictimSideObserver {
                            hierarchy: &mut hierarchy,
                        };
                        state = cipher.run_single_round(state, round, &mut obs);
                    }
                    // Probe the shared L2.
                    let mut observed = std::collections::BTreeSet::new();
                    for &a in &probe_addrs {
                        if hierarchy.attacker_probe_l2(a) {
                            observed.insert(a);
                        }
                        if coherent {
                            hierarchy.flush_line(a);
                        } else {
                            hierarchy.l2_mut().flush_line(a);
                        }
                    }
                    // Eliminate on L2-line granularity.
                    let mut progressed = 0usize;
                    for spec in &specs {
                        let set = &mut candidates[spec.segment];
                        progressed += set.retain(|v, u| {
                            let addr = layout.sbox_entry_addr(spec.expected_index(v, u));
                            observed.contains(&(addr / l2_line as u64 * l2_line as u64))
                        });
                        if set.is_empty() {
                            // True hypothesis erased: channel broken.
                            break 'batches;
                        }
                    }
                    if progressed == 0 {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                }
            }
            if batch.iter().all(|&s| candidates[s].is_resolved()) {
                break;
            }
            stall_limit = stall_limit.saturating_mul(8);
        }
    }

    let recovered = candidates.iter().all(CandidateSet::is_resolved) && {
        let mut v = 0u16;
        let mut u = 0u16;
        for (s, set) in candidates.iter().enumerate() {
            let (vb, ub) = set.resolved().expect("resolved");
            v |= u16::from(vb) << s;
            u |= u16::from(ub) << s;
        }
        v == truth.v && u == truth.u
    };
    HierarchyRow {
        setting,
        recovered,
        encryptions,
    }
}

/// Runs all three settings.
pub fn run(key: Key, max_encryptions: u64) -> Vec<HierarchyRow> {
    run_traced(
        key,
        max_encryptions,
        grinch_telemetry::Telemetry::disabled(),
    )
}

/// Like [`run`], but nests every setting's span under an
/// `experiment.hierarchy` root span in `telemetry`.
pub fn run_traced(
    key: Key,
    max_encryptions: u64,
    telemetry: grinch_telemetry::Telemetry,
) -> Vec<HierarchyRow> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.hierarchy");
    [
        HierarchySetting::FlatSharedL1,
        HierarchySetting::TwoLevelCoherentFlush,
        HierarchySetting::TwoLevelL2OnlyFlush,
    ]
    .into_iter()
    .map(|s| measure_traced(s, key, max_encryptions, telemetry.clone()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0)
    }

    #[test]
    fn flat_l1_recovers() {
        let row = measure(HierarchySetting::FlatSharedL1, key(), 100_000);
        assert!(row.recovered);
    }

    #[test]
    fn coherent_flush_recovers_at_higher_cost_than_flat() {
        // The coherent-flush recovery rides on rare all-miss encryptions,
        // so its cost is RNG-stream dependent; the cap is sized with head
        // room (observed ~620k with the vendored xoshiro stream).
        let flat = measure(HierarchySetting::FlatSharedL1, key(), 1_000_000);
        let two = measure(HierarchySetting::TwoLevelCoherentFlush, key(), 1_000_000);
        assert!(two.recovered, "coherent flush keeps the channel open");
        assert!(
            two.encryptions > flat.encryptions,
            "L2-line granularity ({}) must cost more than flat L1 ({})",
            two.encryptions,
            flat.encryptions
        );
    }

    #[test]
    fn l2_only_flush_breaks_the_channel() {
        let row = measure(HierarchySetting::TwoLevelL2OnlyFlush, key(), 50_000);
        assert!(!row.recovered, "private L1 hides repeats from the L2 probe");
    }
}
