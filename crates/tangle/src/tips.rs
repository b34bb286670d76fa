//! Tip selection strategies.
//!
//! Before issuing a transaction, a node must choose two tips to approve
//! (paper §II-B). The strategy matters for security: uniform random
//! selection is cheap; the weighted MCMC walk (IOTA's strategy) biases
//! toward heavy subtangles, which starves lazy tips of approvals.
//!
//! ## Cost model
//!
//! Tip selection is the per-transaction hot path of the DAG substrate:
//! every submission runs it. Selections here cost **O(walk length)** —
//! walkers read [`Tangle::cumulative_weight`] (the O(1) maintained index)
//! step by step, transition sampling reuses one scratch buffer with
//! log-sum-exp normalization (no per-step allocation, no `exp` underflow
//! at large `alpha`), and depth-constrained starts come from the tangle's
//! attach order in O(window). The legacy path — rebuild a
//! full weight map and sort every attach time per selection, O(n log n) —
//! survives as `select_tips_recount` on each selector: it is the oracle
//! randomized tests compare against (same seed ⇒ identical tip pair) and
//! the baseline the `tip_selection` bench measures the speedup over.

use crate::graph::Tangle;
use crate::tx::TxId;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Selects two parents for the next transaction.
///
/// Implementations are objects so nodes can be configured with a boxed
/// strategy at runtime.
pub trait TipSelector: std::fmt::Debug {
    /// Returns a (trunk, branch) pair, or `None` when the tangle has no
    /// selectable tips (e.g. before genesis).
    ///
    /// The two tips may coincide when only one tip exists.
    fn select_tips(&self, tangle: &Tangle, rng: &mut dyn RngCore) -> Option<(TxId, TxId)>;
}

/// Draws a uniform index in `0..n` by rejection sampling — unlike
/// `next_u64() % n`, indices whose residue class overflows 2⁶⁴ are not
/// favoured. The bias being corrected is ~n/2⁶⁴ per draw, so in practice
/// the first draw is accepted and seeded streams match the old operator.
///
/// # Panics
///
/// Panics if `n` is zero.
fn uniform_index(rng: &mut dyn RngCore, n: usize) -> usize {
    assert!(n > 0, "cannot sample an empty range");
    let n = n as u64;
    // Largest multiple of n that fits in u64: 2^64 - (2^64 mod n).
    let overhang = (u64::MAX % n + 1) % n; // 2^64 mod n
    loop {
        let v = rng.next_u64();
        if overhang == 0 || v <= u64::MAX - overhang {
            return (v % n) as usize;
        }
    }
}

/// Uniform random selection over the current tip set.
///
/// # Examples
///
/// ```
/// use biot_tangle::graph::Tangle;
/// use biot_tangle::tips::{TipSelector, UniformRandomSelector};
/// use biot_tangle::tx::NodeId;
///
/// let mut tangle = Tangle::new();
/// let g = tangle.attach_genesis(NodeId([0; 32]), 0);
/// let mut rng = rand::thread_rng();
/// let (trunk, branch) = UniformRandomSelector.select_tips(&tangle, &mut rng).unwrap();
/// assert_eq!((trunk, branch), (g, g));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRandomSelector;

impl TipSelector for UniformRandomSelector {
    fn select_tips(&self, tangle: &Tangle, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        // Borrow the ordered tip set — no per-selection Vec clone. The
        // RNG draws are identical to the old index-a-cloned-Vec path, so
        // seeded traces are unchanged.
        let tips = tangle.tips_set();
        match tips.len() {
            0 => None,
            1 => tips.iter().next().map(|t| (*t, *t)),
            n => {
                let i = uniform_index(rng, n);
                let mut j = uniform_index(rng, n - 1);
                if j >= i {
                    j += 1;
                }
                let (lo, hi) = (i.min(j), i.max(j));
                let mut it = tips.iter();
                let first = *it.nth(lo).expect("lo < n");
                let second = *it.nth(hi - lo - 1).expect("hi < n");
                if i < j {
                    Some((first, second))
                } else {
                    Some((second, first))
                }
            }
        }
    }
}

/// One weighted MCMC step sequence from `start` to a tip.
///
/// The transition probability from `u` to approver `v` is proportional to
/// `exp(-alpha · (W(u) - W(v)))`. Exponents are normalized by their
/// maximum (log-sum-exp) before `exp`, so the heaviest approver always
/// contributes `exp(0) = 1` and the total never underflows to zero — at
/// large `alpha` the unnormalized form rounds every term to 0 and
/// degenerates into "always take the last approver".
///
/// `weight_of` abstracts the weight source: the fast path reads the
/// tangle's O(1) index, the recount oracle reads a materialized map. Both
/// run this exact float code, which is what makes them bit-for-bit
/// comparable under a shared RNG stream.
///
/// `scratch` is reused across steps and walks: one selection performs no
/// per-step allocation.
fn weighted_walk(
    tangle: &Tangle,
    weight_of: &dyn Fn(&TxId) -> u64,
    alpha: f64,
    start: TxId,
    rng: &mut dyn RngCore,
    scratch: &mut Vec<f64>,
) -> TxId {
    let mut current = start;
    loop {
        let approvers = tangle.approvers(&current);
        if approvers.is_empty() {
            return current; // reached a tip
        }
        let w_cur = weight_of(&current) as f64;
        scratch.clear();
        let mut max_e = f64::NEG_INFINITY;
        for a in approvers {
            let e = alpha * (weight_of(a) as f64 - w_cur);
            max_e = max_e.max(e);
            scratch.push(e);
        }
        let mut total = 0.0;
        for e in scratch.iter_mut() {
            *e = (*e - max_e).exp();
            total += *e;
        }
        let mut target = (rng.next_u64() as f64 / u64::MAX as f64) * total;
        let mut chosen = approvers[approvers.len() - 1];
        for (a, p) in approvers.iter().zip(scratch.iter()) {
            if target < *p {
                chosen = *a;
                break;
            }
            target -= p;
        }
        current = chosen;
    }
}

/// Materializes the full weight map — the legacy per-selection O(n)
/// rebuild kept for the `select_tips_recount` oracles.
fn weight_map(tangle: &Tangle) -> HashMap<TxId, u64> {
    tangle
        .iter()
        .map(|tx| {
            let id = tx.id();
            (id, tangle.cumulative_weight(&id))
        })
        .collect()
}

/// Weighted Markov-chain Monte Carlo walk (IOTA's tip selection).
///
/// Two independent walkers start at the genesis and step from a transaction to one of its
/// approvers with probability proportional to `exp(-alpha * (W(v) - W(u)))`
/// where `W` is cumulative weight. A walker stops at a tip.
///
/// Larger `alpha` makes the walk greedier toward heavy branches; `alpha = 0`
/// degenerates to an unweighted random walk.
///
/// A selection costs O(walk length): weights come from the tangle's
/// maintained index, not a per-selection map.
#[derive(Debug, Clone, Copy)]
pub struct WeightedMcmcSelector {
    /// Greediness parameter (typical range 0.001 – 1.0).
    pub alpha: f64,
}

impl WeightedMcmcSelector {
    /// Creates a selector with the given `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be ≥ 0");
        Self { alpha }
    }

    /// The legacy selection path: rebuilds the full weight map (O(n)) and
    /// walks against it. Bit-for-bit identical to
    /// [`select_tips`](TipSelector::select_tips) under the same RNG
    /// stream — the oracle for the indexed fast path, and the baseline
    /// the `tip_selection` bench compares against.
    #[doc(hidden)]
    pub fn select_tips_recount(
        &self,
        tangle: &Tangle,
        rng: &mut dyn RngCore,
    ) -> Option<(TxId, TxId)> {
        let start = tangle.genesis()?;
        let weights = weight_map(tangle);
        let weight_of = move |id: &TxId| *weights.get(id).unwrap_or(&1);
        let mut scratch = Vec::new();
        let a = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        let b = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        Some((a, b))
    }
}

impl TipSelector for WeightedMcmcSelector {
    fn select_tips(&self, tangle: &Tangle, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        let start = tangle.genesis()?;
        let weight_of = |id: &TxId| tangle.cumulative_weight(id);
        let mut scratch = Vec::new();
        let a = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        let b = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        Some((a, b))
    }
}

/// A depth-constrained weighted walk: like [`WeightedMcmcSelector`] but
/// the walkers start from a recent transaction instead of the genesis,
/// bounding selection cost on a large tangle (IOTA's practical variant).
///
/// The start is drawn uniformly from the `window` most recently attached
/// non-tip transactions; each walker then climbs toward the tips with the
/// same weighted transition rule. Candidates come from the tangle's
/// attach order, so picking the start is O(window) — the
/// collect-and-sort over every attach time that used to happen per
/// selection is gone (it survives in `select_tips_recount`).
#[derive(Debug, Clone, Copy)]
pub struct DepthConstrainedSelector {
    /// Walk greediness (see [`WeightedMcmcSelector::alpha`]).
    pub alpha: f64,
    /// How many recent transactions are eligible as walk starts.
    pub window: usize,
}

impl DepthConstrainedSelector {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative/not finite or `window` is zero.
    pub fn new(alpha: f64, window: usize) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be ≥ 0");
        assert!(window > 0, "window must be positive");
        Self { alpha, window }
    }

    /// The legacy selection path: full weight-map rebuild plus a
    /// collect-and-sort of every stored transaction to find the window.
    /// Bit-for-bit identical to [`select_tips`](TipSelector::select_tips)
    /// under the same RNG stream.
    #[doc(hidden)]
    pub fn select_tips_recount(
        &self,
        tangle: &Tangle,
        rng: &mut dyn RngCore,
    ) -> Option<(TxId, TxId)> {
        // Candidates: recent non-tips (tips cannot be walk starts — the
        // walk would terminate immediately, defeating weighting), ordered
        // by true attach sequence.
        let mut recent: Vec<(u64, TxId)> = tangle
            .iter()
            .map(|tx| tx.id())
            .filter(|id| !tangle.approvers(id).is_empty())
            .map(|id| (tangle.attach_seq(&id).unwrap_or(0), id))
            .collect();
        if recent.is_empty() {
            // Degenerate tangle (only tips): fall back to uniform.
            return UniformRandomSelector.select_tips(tangle, rng);
        }
        recent.sort();
        let window = self.window.min(recent.len());
        let slice = &recent[recent.len() - window..];
        let start = slice[uniform_index(rng, window)].1;

        let weights = weight_map(tangle);
        let weight_of = move |id: &TxId| *weights.get(id).unwrap_or(&1);
        let mut scratch = Vec::new();
        let a = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        let b = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        Some((a, b))
    }
}

impl TipSelector for DepthConstrainedSelector {
    fn select_tips(&self, tangle: &Tangle, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        let recent = tangle.recent_non_tips(self.window);
        if recent.is_empty() {
            // Degenerate tangle (only tips): fall back to uniform.
            return UniformRandomSelector.select_tips(tangle, rng);
        }
        let start = recent[uniform_index(rng, recent.len())];
        let weight_of = |id: &TxId| tangle.cumulative_weight(id);
        let mut scratch = Vec::new();
        let a = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        let b = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        Some((a, b))
    }
}

/// Cloneable, serializable description of a tip-selection strategy — the
/// configuration knob gateways and simulations carry.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SelectorConfig {
    /// [`UniformRandomSelector`].
    Uniform,
    /// [`WeightedMcmcSelector`].
    Weighted {
        /// Walk greediness.
        alpha: f64,
    },
    /// [`DepthConstrainedSelector`].
    DepthConstrained {
        /// Walk greediness.
        alpha: f64,
        /// Recent-transaction window for walk starts.
        window: usize,
    },
}

impl Default for SelectorConfig {
    /// Uniform selection: the cheapest strategy and the historical
    /// default of every harness.
    fn default() -> Self {
        SelectorConfig::Uniform
    }
}

impl SelectorConfig {
    /// Builds the boxed strategy this configuration describes.
    pub fn build(self) -> Box<dyn TipSelector + Send + Sync> {
        match self {
            SelectorConfig::Uniform => Box::new(UniformRandomSelector),
            SelectorConfig::Weighted { alpha } => Box::new(WeightedMcmcSelector::new(alpha)),
            SelectorConfig::DepthConstrained { alpha, window } => {
                Box::new(DepthConstrainedSelector::new(alpha, window))
            }
        }
    }
}

/// Always returns the same fixed pair — the *lazy tips* attack of the
/// threat model (§III): a malicious node keeps approving a stale pair
/// instead of fresh tips.
#[derive(Debug, Clone, Copy)]
pub struct FixedPairSelector {
    /// The stale pair the attacker keeps verifying.
    pub pair: (TxId, TxId),
}

impl TipSelector for FixedPairSelector {
    fn select_tips(&self, tangle: &Tangle, _rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        // Only return the pair once it is attached.
        tangle.contains(&self.pair.0).then_some(self.pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{NodeId, Payload, TransactionBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grow_chain(tangle: &mut Tangle, from: TxId, n: usize, tag: u8) -> Vec<TxId> {
        let mut ids = vec![from];
        for i in 0..n {
            let tx = TransactionBuilder::new(NodeId([tag; 32]))
                .parents(*ids.last().unwrap(), *ids.last().unwrap())
                .payload(Payload::Data(vec![tag, i as u8]))
                .timestamp_ms(i as u64)
                .build();
            ids.push(tangle.attach(tx, i as u64).unwrap());
        }
        ids
    }

    #[test]
    fn uniform_returns_none_on_empty() {
        let tangle = Tangle::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(UniformRandomSelector.select_tips(&tangle, &mut rng).is_none());
    }

    #[test]
    fn uniform_single_tip_duplicates() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            UniformRandomSelector.select_tips(&tangle, &mut rng),
            Some((g, g))
        );
    }

    #[test]
    fn uniform_two_tips_are_distinct() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        for i in 1..=4u8 {
            let tx = TransactionBuilder::new(NodeId([i; 32]))
                .parents(g, g)
                .payload(Payload::Data(vec![i]))
                .build();
            tangle.attach(tx, 1).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let (a, b) = UniformRandomSelector.select_tips(&tangle, &mut rng).unwrap();
            assert_ne!(a, b);
            assert!(tangle.tips().contains(&a));
            assert!(tangle.tips().contains(&b));
        }
    }

    #[test]
    fn uniform_index_is_unbiased_over_small_sets() {
        // Chi-squared sanity check: 5 tips, 20k trunk draws. With a fair
        // die the statistic (df = 4) sits below 9.49 at p = 0.05; the
        // seeded stream is deterministic, so a loose bound cannot flake.
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut tips = Vec::new();
        for i in 1..=5u8 {
            let tx = TransactionBuilder::new(NodeId([i; 32]))
                .parents(g, g)
                .payload(Payload::Data(vec![i]))
                .build();
            tips.push(tangle.attach(tx, 1).unwrap());
        }
        let mut rng = StdRng::seed_from_u64(12);
        let mut counts: HashMap<TxId, u64> = HashMap::new();
        let draws = 20_000u64;
        for _ in 0..draws {
            let (trunk, _) = UniformRandomSelector.select_tips(&tangle, &mut rng).unwrap();
            *counts.entry(trunk).or_insert(0) += 1;
        }
        let expected = draws as f64 / tips.len() as f64;
        let chi2: f64 = tips
            .iter()
            .map(|t| {
                let o = *counts.get(t).unwrap_or(&0) as f64;
                (o - expected).powi(2) / expected
            })
            .sum();
        assert!(chi2 < 16.0, "chi-squared {chi2} too high: {counts:?}");
    }

    #[test]
    fn uniform_index_covers_full_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[uniform_index(&mut rng, 7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices reachable: {seen:?}");
        assert_eq!(uniform_index(&mut rng, 1), 0);
    }

    #[test]
    fn mcmc_walk_reaches_a_tip() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        grow_chain(&mut tangle, g, 10, 1);
        let sel = WeightedMcmcSelector::new(0.5);
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b) = sel.select_tips(&tangle, &mut rng).unwrap();
        let tips = tangle.tips();
        assert!(tips.contains(&a));
        assert!(tips.contains(&b));
    }

    #[test]
    fn mcmc_prefers_heavy_branch() {
        // Build a fork: one heavy branch (20 txs), one light (1 tx).
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let heavy = grow_chain(&mut tangle, g, 20, 1);
        let lone = TransactionBuilder::new(NodeId([2; 32]))
            .parents(g, g)
            .payload(Payload::Data(b"light".to_vec()))
            .build();
        let light_tip = tangle.attach(lone, 1).unwrap();
        let heavy_tip = *heavy.last().unwrap();

        let sel = WeightedMcmcSelector::new(1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut heavy_hits = 0;
        for _ in 0..50 {
            let (a, b) = sel.select_tips(&tangle, &mut rng).unwrap();
            for t in [a, b] {
                if t == heavy_tip {
                    heavy_hits += 1;
                }
                assert!(t == heavy_tip || t == light_tip);
            }
        }
        assert!(heavy_hits > 70, "heavy branch hit only {heavy_hits}/100");
    }

    #[test]
    fn mcmc_large_alpha_does_not_underflow_to_last_approver() {
        // Regression: at alpha = 50 every unnormalized exp(-alpha·ΔW)
        // rounds to 0 once ΔW ≥ 15, the total collapsed to 0, and the
        // walk silently always took the *last* approver — here the light
        // branch, attached after the heavy one. Log-sum-exp keeps the
        // heavy approver at exp(0) = 1, so walks follow the weight.
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let heavy = grow_chain(&mut tangle, g, 40, 1);
        let lone = TransactionBuilder::new(NodeId([2; 32]))
            .parents(g, g)
            .payload(Payload::Data(b"light-last".to_vec()))
            .build();
        let light_tip = tangle.attach(lone, 1).unwrap();
        let heavy_tip = *heavy.last().unwrap();
        // ΔW at the fork: W(g) = 42, W(heavy child) = 40, W(light) = 1 —
        // both exponents (-100, -2050) underflow pre-normalization.
        let sel = WeightedMcmcSelector::new(50.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let (a, b) = sel.select_tips(&tangle, &mut rng).unwrap();
            assert_eq!(a, heavy_tip, "alpha=50 walk must follow weight");
            assert_eq!(b, heavy_tip);
            assert_ne!(a, light_tip);
        }
    }

    #[test]
    fn mcmc_alpha_zero_still_terminates() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        grow_chain(&mut tangle, g, 5, 1);
        let sel = WeightedMcmcSelector::new(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(sel.select_tips(&tangle, &mut rng).is_some());
    }

    #[test]
    #[should_panic]
    fn mcmc_negative_alpha_panics() {
        WeightedMcmcSelector::new(-1.0);
    }

    #[test]
    fn fixed_pair_returns_stale_pair() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let ids = grow_chain(&mut tangle, g, 5, 1);
        let stale = (ids[1], ids[2]);
        let sel = FixedPairSelector { pair: stale };
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(sel.select_tips(&tangle, &mut rng), Some(stale));
        // Unknown pair yields None.
        let sel2 = FixedPairSelector {
            pair: (TxId([9; 32]), TxId([9; 32])),
        };
        assert!(sel2.select_tips(&tangle, &mut rng).is_none());
    }

    #[test]
    fn depth_constrained_reaches_tips() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        grow_chain(&mut tangle, g, 30, 1);
        let sel = DepthConstrainedSelector::new(0.5, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let (a, b) = sel.select_tips(&tangle, &mut rng).unwrap();
            assert!(tangle.tips().contains(&a));
            assert!(tangle.tips().contains(&b));
        }
    }

    #[test]
    fn depth_constrained_on_tiny_tangle_falls_back() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let sel = DepthConstrainedSelector::new(0.5, 8);
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(sel.select_tips(&tangle, &mut rng), Some((g, g)));
    }

    #[test]
    #[should_panic]
    fn depth_constrained_zero_window_panics() {
        DepthConstrainedSelector::new(0.5, 0);
    }

    #[test]
    fn selector_config_builds_every_strategy() {
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut rng = StdRng::seed_from_u64(8);
        for cfg in [
            SelectorConfig::Uniform,
            SelectorConfig::Weighted { alpha: 0.2 },
            SelectorConfig::DepthConstrained { alpha: 0.2, window: 4 },
        ] {
            let sel = cfg.build();
            assert!(sel.select_tips(&tangle, &mut rng).is_some(), "{cfg:?}");
        }
        assert_eq!(SelectorConfig::default(), SelectorConfig::Uniform);
    }

    #[test]
    fn selector_is_object_safe() {
        let selectors: Vec<Box<dyn TipSelector>> = vec![
            Box::new(UniformRandomSelector),
            Box::new(WeightedMcmcSelector::new(0.1)),
            Box::new(DepthConstrainedSelector::new(0.1, 4)),
        ];
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut rng = StdRng::seed_from_u64(7);
        for s in &selectors {
            assert!(s.select_tips(&tangle, &mut rng).is_some());
        }
    }
}
