//! Hash-prefix proof-of-work (paper Eqn 6).
//!
//! A node bundles a new transaction with its two chosen tips by searching
//! for a nonce such that
//! `SHA-256(preimage || nonce)` has at least `D` leading zero bits, where
//! `D` is the node's current difficulty from the credit-based mechanism.
//!
//! Two execution modes exist:
//!
//! * [`solve`] — a deterministic single-threaded nonce search on the
//!   host CPU, used by light nodes and managers to mine and by the
//!   shape-validation benches (Fig 7).
//! * [`sample_trials`] — draws how many hash attempts a search *would*
//!   take from the geometric distribution, for virtual-time experiments.
//!
//! The real search hashes through a SHA-256 **midstate**: the fixed
//! bundle preimage is compressed once, and each trial only absorbs the
//! 8-byte nonce plus padding (one or two compressions instead of
//! `⌈(len+8)/64⌉+1`).

use biot_crypto::sha256::{leading_zero_bits, Midstate, Sha256};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A proof-of-work difficulty: required number of leading zero bits.
///
/// The paper's prototype uses difficulties 1–14 on a Raspberry Pi 3B with
/// an initial value of 11 (§VI-A).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct Difficulty(u32);

impl Difficulty {
    /// Paper's minimum difficulty.
    pub const MIN: Difficulty = Difficulty(1);
    /// Paper's maximum difficulty for the Pi experiments.
    pub const MAX: Difficulty = Difficulty(14);
    /// Paper's initial difficulty (§VI-A).
    pub const INITIAL: Difficulty = Difficulty(11);

    /// Creates a difficulty clamped to `[MIN, MAX]`.
    pub fn new(bits: u32) -> Self {
        Difficulty(bits.clamp(Self::MIN.0, Self::MAX.0))
    }

    /// Creates a difficulty without clamping (for benches exploring the
    /// full range).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 255 (the SHA-256 digest length).
    pub fn unclamped(bits: u32) -> Self {
        assert!((1..=255).contains(&bits), "difficulty out of hash range");
        Difficulty(bits)
    }

    /// Required leading zero bits.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Expected number of hash evaluations to find a valid nonce: `2^D`.
    pub fn expected_trials(self) -> f64 {
        (self.0 as f64).exp2()
    }
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// The outcome of a successful nonce search.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowSolution {
    /// The found nonce.
    pub nonce: u64,
    /// The qualifying digest.
    pub hash: [u8; 32],
    /// Number of hash evaluations performed (for calibration).
    pub trials: u64,
}

/// Searches for a nonce satisfying `difficulty`, starting from
/// `start_nonce` and scanning upward.
///
/// # Examples
///
/// ```
/// use biot_core::pow::{meets, pow_hash, solve, Difficulty};
///
/// let d = Difficulty::new(8);
/// let solution = solve(b"tx-bundle", d, 0);
/// assert!(meets(&pow_hash(b"tx-bundle", solution.nonce), d));
/// ```
pub fn solve(preimage: &[u8], difficulty: Difficulty, start_nonce: u64) -> PowSolution {
    let hasher = PowHasher::new(preimage);
    let mut nonce = start_nonce;
    let mut trials = 0u64;
    loop {
        let hash = hasher.hash(nonce);
        trials += 1;
        if meets(&hash, difficulty) {
            return PowSolution { nonce, hash, trials };
        }
        nonce = nonce.wrapping_add(1);
    }
}

/// True when the PoW digest `hash` (see [`pow_hash`]) has the leading
/// zero bits `difficulty` demands. A transaction's id is its PoW digest,
/// so a holder of the id checks its PoW without hashing again.
pub fn meets(hash: &[u8; 32], difficulty: Difficulty) -> bool {
    leading_zero_bits(hash) >= difficulty.bits()
}

/// A reusable PoW hasher that compresses `preimage` once and replays
/// only the nonce suffix per trial (SHA-256 midstate mining).
#[derive(Clone, Debug)]
pub struct PowHasher {
    midstate: Midstate,
}

impl PowHasher {
    /// Absorbs the fixed preimage prefix.
    pub fn new(preimage: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(preimage);
        Self { midstate: h.midstate() }
    }

    /// The PoW digest for one nonce trial.
    pub fn hash(&self, nonce: u64) -> [u8; 32] {
        let mut h = Sha256::from_midstate(&self.midstate);
        h.update(&nonce.to_be_bytes());
        h.finalize()
    }
}

/// The PoW digest: `SHA-256(preimage || nonce_be)` (Eqn 6 with the two
/// parent hashes folded into `preimage`).
///
/// One-shot form for verification paths; streams the nonce into the
/// hasher rather than concatenating buffers. Mining loops should prefer
/// [`PowHasher`], which re-compresses the preimage only once.
pub fn pow_hash(preimage: &[u8], nonce: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(preimage);
    h.update(&nonce.to_be_bytes());
    h.finalize()
}

/// Samples how many hash attempts a search at `difficulty` would take —
/// geometric distribution with success probability `2^-D` — without doing
/// the work. Used by virtual-time simulation.
///
/// The result is at least 1.
pub fn sample_trials<R: Rng + ?Sized>(difficulty: Difficulty, rng: &mut R) -> u64 {
    let p = 1.0 / difficulty.expected_trials();
    // Inverse-CDF of the geometric distribution.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let trials = (u.ln() / (1.0 - p).ln()).ceil();
    trials.max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn difficulty_clamping() {
        assert_eq!(Difficulty::new(0), Difficulty::MIN);
        assert_eq!(Difficulty::new(99), Difficulty::MAX);
        assert_eq!(Difficulty::new(11), Difficulty::INITIAL);
        assert_eq!(Difficulty::unclamped(64).bits(), 64);
    }

    #[test]
    #[should_panic]
    fn unclamped_zero_panics() {
        Difficulty::unclamped(0);
    }

    #[test]
    fn expected_trials_doubles_per_bit() {
        assert_eq!(Difficulty::new(1).expected_trials(), 2.0);
        assert_eq!(Difficulty::new(11).expected_trials(), 2048.0);
    }

    #[test]
    fn solve_finds_valid_nonce() {
        for d in [1u32, 4, 8, 12] {
            let diff = Difficulty::new(d);
            let sol = solve(b"test preimage", diff, 0);
            assert!(meets(&sol.hash, diff), "D={d}");
            assert!(sol.trials >= 1);
            assert_eq!(sol.hash, pow_hash(b"test preimage", sol.nonce));
        }
    }

    #[test]
    fn harder_difficulty_also_satisfies_easier() {
        let sol = solve(b"x", Difficulty::new(10), 0);
        assert!(meets(&sol.hash, Difficulty::new(5)));
    }

    #[test]
    fn verify_rejects_bad_nonce() {
        let diff = Difficulty::new(12);
        let sol = solve(b"y", diff, 0);
        // The nonce immediately before the solution cannot also be a
        // solution (solve scans upward from 0 and returns the first hit),
        // unless the solution was nonce 0 itself.
        if sol.nonce > 0 {
            assert!(!meets(&pow_hash(b"y", sol.nonce - 1), diff));
        }
        assert!(!meets(&pow_hash(b"different preimage", sol.nonce), diff));
    }

    #[test]
    fn start_nonce_is_respected() {
        let sol = solve(b"z", Difficulty::new(4), 1_000_000);
        assert!(sol.nonce >= 1_000_000);
    }

    #[test]
    fn trials_scale_with_difficulty() {
        // Average over several preimages: D=10 should need roughly 2^10
        // trials, far more than D=2.
        let mut easy = 0u64;
        let mut hard = 0u64;
        for i in 0..20u32 {
            let pre = i.to_be_bytes();
            easy += solve(&pre, Difficulty::new(2), 0).trials;
            hard += solve(&pre, Difficulty::new(10), 0).trials;
        }
        assert!(hard > easy * 10, "hard {hard} vs easy {easy}");
    }

    #[test]
    fn sampled_trials_mean_close_to_expected() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Difficulty::new(10); // expected 1024
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sample_trials(d, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1024.0).abs() < 60.0,
            "sampled mean {mean} far from 1024"
        );
    }

    #[test]
    fn sampled_trials_at_least_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(sample_trials(Difficulty::new(1), &mut rng) >= 1);
        }
    }

    #[test]
    fn display_form() {
        assert_eq!(Difficulty::new(11).to_string(), "D11");
    }

    #[test]
    fn pow_hasher_matches_pow_hash() {
        // Preimage lengths straddling the 56- and 64-byte padding
        // boundaries, where the midstate buffering is trickiest.
        for len in [0usize, 1, 7, 8, 55, 56, 57, 63, 64, 65, 127, 128, 200] {
            let preimage = vec![0x5Au8; len];
            let hasher = PowHasher::new(&preimage);
            for nonce in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
                assert_eq!(
                    hasher.hash(nonce),
                    pow_hash(&preimage, nonce),
                    "len {len} nonce {nonce}"
                );
            }
        }
    }
}
