//! Closed-form effort model for GRINCH campaigns.
//!
//! The elimination step waits for *absence events*: a wrong hypothesis is
//! discarded when its predicted cache line is missed by every access in the
//! observation window. With `a` effectively-random accesses per observation
//! and a line covering `w` of the 16 S-box entries, a given line is absent
//! with probability
//!
//! ```text
//! p_absent(w, a) = (1 − w/16)^a
//! ```
//!
//! The window for probing round `k` contains the 16 crafted/noise accesses
//! of the signal round plus `16·(k − 1)` accesses from deeper rounds (plus
//! 16 more without flush). Eliminating the rival hypotheses of a batch is
//! then a coupon-collector over geometric waiting times; the expected
//! number of encryptions for a batch with `m` pending eliminations is
//! approximately `H(m) / p_absent` (harmonic-number-weighted), and a stage
//! is four consecutive batches.
//!
//! The model is deliberately simple — its purpose is to explain the *shape*
//! of Fig. 3 (exponential in `k`) and Table I (explosive in `w`), and tests
//! check it against the measured simulator within generous factors.
//!
//! The same absence probability, taken over a crafted batch's unforced
//! accesses, bounds how long a working channel can stay silent
//! ([`forced_batch_absence_bound`]); the stage loop stops a blind stage on
//! it ([`crate::stage::silence_window`]).

/// Probability that a line covering `entries_per_line` S-box entries is
/// absent from an observation window of `accesses` near-uniform accesses.
///
/// # Panics
///
/// Panics if `entries_per_line` is 0 or greater than 16.
pub fn absence_probability(entries_per_line: usize, accesses: usize) -> f64 {
    assert!(
        (1..=16).contains(&entries_per_line),
        "a line covers 1..=16 S-box entries"
    );
    (1.0 - entries_per_line as f64 / 16.0).powi(accesses as i32)
}

/// Number of accesses in the observation window of probing round
/// `probing_round`, with or without the flush after the attacked round.
pub fn window_accesses(probing_round: usize, flush: bool) -> usize {
    let rounds = if flush {
        probing_round
    } else {
        probing_round + 1
    };
    16 * rounds
}

/// A lower bound on the probability that a working, leaky channel shows at
/// least one absent line in one observation of a stage-`stage_round`
/// forced batch — the silence test's `q`.
///
/// The window holds `a = 16·probing_round` accesses with the flush and
/// `16·(stage_round + probing_round)` without it, since the unflushed
/// window also holds the earlier rounds. Each of the batch's `forced`
/// accesses covers at most one of the `monitored_lines`, so when
/// `forced < monitored_lines` some line is uncovered, and it is absent
/// with probability at least `(1 − w/16)^(a − forced)` for a line of
/// `w = entries_per_line` entries. When the forced accesses can cover
/// every monitored line the bound is 0.
///
/// # Panics
///
/// Panics if `entries_per_line` is 0 or greater than 16.
pub fn forced_batch_absence_bound(
    stage_round: usize,
    probing_round: usize,
    flush: bool,
    entries_per_line: usize,
    monitored_lines: usize,
    forced: usize,
) -> f64 {
    if forced >= monitored_lines {
        return 0.0;
    }
    let rounds = if flush {
        probing_round
    } else {
        stage_round + probing_round
    };
    absence_probability(entries_per_line, (16 * rounds).saturating_sub(forced))
}

/// `n`-th harmonic number.
fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

/// Expected encryptions for one full 32-bit stage (four batches, three
/// rival hypotheses per segment, four segments per batch) at the given
/// probing round, flush setting and line coverage.
///
/// Returns `f64::INFINITY` when a rival's line can never be absent
/// (`entries_per_line == 16`, the wide-line countermeasure).
pub fn expected_stage_encryptions(
    probing_round: usize,
    flush: bool,
    entries_per_line: usize,
) -> f64 {
    if entries_per_line >= 16 {
        return f64::INFINITY;
    }
    let accesses = window_accesses(probing_round, flush);
    // The signal access itself always hits its own line; rivals wait on the
    // remaining accesses missing theirs.
    let p = absence_probability(entries_per_line, accesses.saturating_sub(1));
    if p <= 0.0 {
        return f64::INFINITY;
    }
    // Per batch: four segments, three rivals each → up to 12 pending
    // eliminations sharing every observation.
    let per_batch = harmonic(12) / p;
    4.0 * per_batch
}

/// The model's Fig. 3 growth factor between two probing rounds: the ratio
/// of expected stage costs.
pub fn growth_factor(from_round: usize, to_round: usize, flush: bool) -> f64 {
    expected_stage_encryptions(to_round, flush, 1)
        / expected_stage_encryptions(from_round, flush, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ObservationConfig, VictimOracle};
    use crate::stage::{run_stage, StageConfig};
    use gift_cipher::Key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn absence_probability_boundaries() {
        assert_eq!(absence_probability(16, 1), 0.0);
        assert!((absence_probability(1, 0) - 1.0).abs() < 1e-12);
        let p = absence_probability(1, 15);
        assert!((p - (15.0f64 / 16.0).powi(15)).abs() < 1e-12);
    }

    #[test]
    fn forced_batch_bound_counts_the_window_and_the_forced_accesses() {
        // Probing round 1 with flush: 16 accesses, 4 of them forced.
        let q = forced_batch_absence_bound(1, 1, true, 1, 16, 4);
        assert!((q - (15.0f64 / 16.0).powi(12)).abs() < 1e-12);
        // Without the flush the earlier rounds join the window.
        let q = forced_batch_absence_bound(3, 2, false, 2, 9, 4);
        assert!((q - (14.0f64 / 16.0).powi(76)).abs() < 1e-15);
        // Forced accesses that can cover every monitored line leave no
        // line uncovered.
        assert_eq!(forced_batch_absence_bound(1, 1, true, 8, 3, 4), 0.0);
        assert_eq!(forced_batch_absence_bound(1, 1, true, 16, 1, 4), 0.0);
    }

    #[test]
    fn window_accounting_matches_convention() {
        assert_eq!(window_accesses(1, true), 16); // round 2 only
        assert_eq!(window_accesses(1, false), 32); // rounds 1..=2
        assert_eq!(window_accesses(5, true), 80); // rounds 2..=6
    }

    #[test]
    fn model_is_monotone_in_probing_round_and_line_width() {
        for k in 1..9 {
            assert!(
                expected_stage_encryptions(k + 1, true, 1) > expected_stage_encryptions(k, true, 1)
            );
        }
        for w in 1..8 {
            assert!(
                expected_stage_encryptions(1, true, w + 1) > expected_stage_encryptions(1, true, w)
            );
        }
        assert!(expected_stage_encryptions(1, true, 16).is_infinite());
    }

    #[test]
    fn flush_is_cheaper_in_the_model() {
        for k in 1..6 {
            assert!(
                expected_stage_encryptions(k, false, 1) > expected_stage_encryptions(k, true, 1)
            );
        }
    }

    #[test]
    fn model_tracks_measurement_within_an_order_of_magnitude() {
        let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
        for (k, flush) in [(1usize, true), (2, true), (1, false)] {
            let predicted = expected_stage_encryptions(k, flush, 1);
            let obs = ObservationConfig::ideal()
                .with_probing_round(k)
                .with_flush(flush);
            let mut oracle = VictimOracle::new(key, obs);
            let mut rng = StdRng::seed_from_u64(77);
            let result = run_stage(
                &mut oracle,
                &[],
                1,
                &StageConfig::new().with_max_encryptions(200_000),
                &mut rng,
            );
            assert!(result.is_resolved(), "k={k} flush={flush}");
            let measured = result.encryptions as f64;
            let ratio = measured / predicted;
            assert!(
                (0.1..10.0).contains(&ratio),
                "k={k} flush={flush}: predicted {predicted:.0}, measured {measured}, ratio {ratio:.2}"
            );
        }
    }
}
