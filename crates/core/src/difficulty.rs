//! Mapping credit to PoW difficulty (`Cr ∝ 1/D`, paper §IV-B).
//!
//! The paper states the proportionality but not the exact function; the
//! default [`InverseProportionalPolicy`] realizes it with clamping to the
//! paper's difficulty range and separate gains for reward and punishment.
//! A [`LinearPolicy`] and [`FixedPolicy`] exist for the ablation bench
//! (DESIGN.md experiment A2) and the "original PoW" control of Fig 9.

use crate::pow::Difficulty;
use std::fmt;

/// Maps a node's current credit to its PoW difficulty.
pub trait DifficultyPolicy: fmt::Debug {
    /// The difficulty a node with credit `credit` must meet.
    fn difficulty_for(&self, credit: f64) -> Difficulty;
}

/// The paper-faithful policy: `Cr ∝ 1/D`, anchored at `base` for `Cr = 0`.
///
/// * `Cr ≥ 0`: `D = round(base / (1 + gain_reward·Cr))` — active honest
///   nodes mine with fewer zero bits.
/// * `Cr < 0`: `D = round(base · (1 + gain_punish·|Cr|))` — misbehaving
///   nodes face rapidly growing work.
///
/// Both arms clamp to `[min, max]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InverseProportionalPolicy {
    /// Difficulty at zero credit (paper: 11).
    pub base: u32,
    /// Lower clamp (paper: 1).
    pub min: u32,
    /// Upper clamp (paper: 14).
    pub max: u32,
    /// Gain applied to positive credit.
    pub gain_reward: f64,
    /// Gain applied to negative credit.
    pub gain_punish: f64,
}

impl Default for InverseProportionalPolicy {
    /// The calibration used throughout the experiments: `base = 11`,
    /// range 1–14, reward gain 1.0, punish gain 0.65.
    ///
    /// With the default [`biot_credit::CreditParams`], an honest node
    /// issuing ~3 weighted transactions per ΔT holds `Cr ≈ 0.2–0.5` and
    /// mines at difficulty 7–9 (vs 11), while a fresh double-spend drives
    /// `Cr` to ≈ −150 and the difficulty to the clamp at 14 — matching the
    /// qualitative behaviour of the paper's Figs 8–9.
    fn default() -> Self {
        Self {
            base: Difficulty::INITIAL.bits(),
            min: Difficulty::MIN.bits(),
            max: Difficulty::MAX.bits(),
            gain_reward: 1.0,
            gain_punish: 0.65,
        }
    }
}

impl DifficultyPolicy for InverseProportionalPolicy {
    fn difficulty_for(&self, credit: f64) -> Difficulty {
        let raw = if credit >= 0.0 {
            self.base as f64 / (1.0 + self.gain_reward * credit)
        } else {
            self.base as f64 * (1.0 + self.gain_punish * credit.abs())
        };
        let clamped = raw.round().clamp(self.min as f64, self.max as f64);
        Difficulty::unclamped(clamped as u32)
    }
}

/// A linear alternative for the ablation: `D = base − slope·Cr`, clamped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearPolicy {
    /// Difficulty at zero credit.
    pub base: u32,
    /// Lower clamp.
    pub min: u32,
    /// Upper clamp.
    pub max: u32,
    /// Difficulty bits removed per unit of credit.
    pub slope: f64,
}

impl Default for LinearPolicy {
    fn default() -> Self {
        Self {
            base: Difficulty::INITIAL.bits(),
            min: Difficulty::MIN.bits(),
            max: Difficulty::MAX.bits(),
            slope: 6.0,
        }
    }
}

impl DifficultyPolicy for LinearPolicy {
    fn difficulty_for(&self, credit: f64) -> Difficulty {
        let raw = self.base as f64 - self.slope * credit;
        let clamped = raw.round().clamp(self.min as f64, self.max as f64);
        Difficulty::unclamped(clamped as u32)
    }
}

/// Ignores credit entirely — the "original PoW" control in Fig 9.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedPolicy(
    /// The constant difficulty.
    pub Difficulty,
);

impl DifficultyPolicy for FixedPolicy {
    fn difficulty_for(&self, _credit: f64) -> Difficulty {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_credit_gives_base() {
        let p = InverseProportionalPolicy::default();
        assert_eq!(p.difficulty_for(0.0).bits(), 11);
        let l = LinearPolicy::default();
        assert_eq!(l.difficulty_for(0.0).bits(), 11);
    }

    #[test]
    fn positive_credit_lowers_difficulty() {
        let p = InverseProportionalPolicy::default();
        let d0 = p.difficulty_for(0.0);
        let d1 = p.difficulty_for(0.3);
        let d2 = p.difficulty_for(1.0);
        assert!(d1 < d0);
        assert!(d2 < d1);
        // Honest steady state from the doc comment: Cr ≈ 0.2–0.5 → D 7–9.
        let honest = p.difficulty_for(0.3).bits();
        assert!((7..=9).contains(&honest), "honest D = {honest}");
    }

    #[test]
    fn negative_credit_raises_difficulty_to_clamp() {
        let p = InverseProportionalPolicy::default();
        assert!(p.difficulty_for(-1.0) > p.difficulty_for(0.0));
        // Fresh double-spend: Cr ≈ −150 → clamp at 14.
        assert_eq!(p.difficulty_for(-150.0).bits(), 14);
        // Extreme values stay clamped.
        assert_eq!(p.difficulty_for(-1e12).bits(), 14);
    }

    #[test]
    fn huge_positive_credit_clamps_at_min() {
        let p = InverseProportionalPolicy::default();
        assert_eq!(p.difficulty_for(1e12).bits(), 1);
        let l = LinearPolicy::default();
        assert_eq!(l.difficulty_for(1e12).bits(), 1);
    }

    #[test]
    fn monotonicity_over_credit_range() {
        let p = InverseProportionalPolicy::default();
        let mut last = p.difficulty_for(-200.0);
        let mut credit = -200.0;
        while credit <= 5.0 {
            let d = p.difficulty_for(credit);
            assert!(d <= last, "difficulty must not increase with credit");
            last = d;
            credit += 0.1;
        }
    }

    #[test]
    fn linear_policy_slope() {
        let l = LinearPolicy::default();
        // slope 6: Cr = 0.5 → D = 11 − 3 = 8.
        assert_eq!(l.difficulty_for(0.5).bits(), 8);
        assert_eq!(l.difficulty_for(-0.5).bits(), 14);
    }

    #[test]
    fn fixed_policy_is_constant() {
        let f = FixedPolicy(Difficulty::INITIAL);
        for cr in [-100.0, 0.0, 100.0] {
            assert_eq!(f.difficulty_for(cr), Difficulty::INITIAL);
        }
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn DifficultyPolicy>> = vec![
            Box::new(InverseProportionalPolicy::default()),
            Box::new(LinearPolicy::default()),
            Box::new(FixedPolicy(Difficulty::new(5))),
        ];
        for p in &policies {
            let _ = p.difficulty_for(0.0);
        }
    }
}
