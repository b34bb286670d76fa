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
//! attach-order recency index in O(window). The legacy path — rebuild a
//! full weight map and sort every attach time per selection, O(n log n) —
//! survives as `select_tips_recount` on each selector: it is the oracle
//! randomized tests compare against (same seed ⇒ identical tip pair) and
//! the baseline the `tip_selection` bench measures the speedup over.

use crate::graph::Tangle;
use crate::tx::TxId;
use crate::view::TangleRead;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Selects two parents for the next transaction.
///
/// Implementations are objects so nodes can be configured with a boxed
/// strategy at runtime. Selection reads through [`TangleRead`], so the
/// same strategy runs against the live [`Tangle`] (a `&Tangle` coerces)
/// or a concurrent [`crate::view::TangleView`] snapshot.
pub trait TipSelector: std::fmt::Debug {
    /// Returns a (trunk, branch) pair, or `None` when the tangle has no
    /// selectable tips (e.g. before genesis).
    ///
    /// The two tips may coincide when only one tip exists.
    fn select_tips(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<(TxId, TxId)>;
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
    fn select_tips(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
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
    tangle: &dyn TangleRead,
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

/// Walk start for genesis-anchored walks: the genesis if it survives,
/// otherwise the heaviest remaining transaction, ties broken toward the
/// smallest [`TxId`] so post-snapshot starts never depend on hash-map
/// iteration order.
fn genesis_walk_start(tangle: &dyn TangleRead) -> Option<TxId> {
    if let Some(g) = tangle.genesis() {
        if tangle.contains(&g) {
            return Some(g);
        }
    }
    tangle.heaviest_id()
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
/// Two independent walkers start at the genesis (or the heaviest remaining
/// transaction after a snapshot) and step from a transaction to one of its
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

    /// Where this selector's walkers start: the genesis if it survives,
    /// otherwise the heaviest remaining transaction, ties broken toward
    /// the smallest [`TxId`]. Exposed so tests can pin the post-snapshot
    /// tie-break.
    pub fn walk_start(&self, tangle: &dyn TangleRead) -> Option<TxId> {
        genesis_walk_start(tangle)
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
        let start = genesis_walk_start(tangle)?;
        let weights = weight_map(tangle);
        let weight_of = move |id: &TxId| *weights.get(id).unwrap_or(&1);
        let mut scratch = Vec::new();
        let a = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        let b = weighted_walk(tangle, &weight_of, self.alpha, start, rng, &mut scratch);
        Some((a, b))
    }
}

impl TipSelector for WeightedMcmcSelector {
    fn select_tips(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        let start = genesis_walk_start(tangle)?;
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
/// attach-order recency index, so picking the start is O(window) — the
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
    fn select_tips(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
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

/// Runs `k` independent weighted walkers — optionally across threads —
/// and returns the two tips with the most walker endorsements.
///
/// This is the many-walker variant of IOTA's selection: each walker is an
/// independent MCMC walk from the same start, and the tips walkers
/// converge on most often are the best-attested ones. The knob mirrors
/// [`MiningConfig`](https://docs.rs/) / `VerifyConfig`: `threads ≤ 1`
/// runs the walkers serially on the calling thread.
///
/// **Determinism.** Walker `i` gets its own [`StdRng`] seeded from the
/// caller's RNG *before* any walking begins, so every walker's path is a
/// pure function of the caller's stream and the tangle — results are
/// bit-for-bit identical for any `threads` value. The vote reduction
/// (most endorsements, ties toward the smallest [`TxId`]) is likewise
/// order-free.
#[derive(Debug, Clone, Copy)]
pub struct ParallelWalkSelector {
    /// Walk greediness (see [`WeightedMcmcSelector::alpha`]).
    pub alpha: f64,
    /// `Some(w)`: start like [`DepthConstrainedSelector`] with window `w`;
    /// `None`: start at the genesis like [`WeightedMcmcSelector`].
    pub window: Option<usize>,
    /// Number of independent walkers (clamped to ≥ 2: a trunk/branch pair
    /// needs at least two endorsements).
    pub walkers: usize,
    /// Worker threads; `0`/`1` runs the walkers serially.
    pub threads: usize,
}

impl ParallelWalkSelector {
    /// Creates a selector with `walkers` genesis-anchored walkers running
    /// serially; use [`with_window`](Self::with_window) /
    /// [`with_threads`](Self::with_threads) to adjust.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn new(alpha: f64, walkers: usize) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be ≥ 0");
        Self {
            alpha,
            window: None,
            walkers,
            threads: 1,
        }
    }

    /// Depth-constrains the walk starts (see [`DepthConstrainedSelector`]).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = Some(window);
        self
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Picks the shared walk start, consuming the caller's RNG exactly as
    /// the sequential selectors do.
    fn pick_start(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<Result<TxId, ()>> {
        match self.window {
            None => genesis_walk_start(tangle).map(Ok),
            Some(w) => {
                let recent = tangle.recent_non_tips(w);
                if recent.is_empty() {
                    // Degenerate tangle (only tips): signal uniform fallback.
                    Some(Err(()))
                } else {
                    Some(Ok(recent[uniform_index(rng, recent.len())]))
                }
            }
        }
    }

    /// Reduces walker endorsements to a (trunk, branch) pair: the two most
    /// endorsed tips, ties toward the smallest id. With a single distinct
    /// tip the pair coincides.
    fn reduce(tips: &[TxId]) -> (TxId, TxId) {
        let mut votes: HashMap<TxId, usize> = HashMap::new();
        for t in tips {
            *votes.entry(*t).or_insert(0) += 1;
        }
        let best = |exclude: Option<TxId>| -> Option<TxId> {
            votes
                .iter()
                .filter(|(id, _)| Some(**id) != exclude)
                .max_by_key(|(id, n)| (**n, std::cmp::Reverse(**id)))
                .map(|(id, _)| *id)
        };
        let trunk = best(None).expect("at least one walker ran");
        let branch = best(Some(trunk)).unwrap_or(trunk);
        (trunk, branch)
    }
}

impl TipSelector for ParallelWalkSelector {
    fn select_tips(&self, tangle: &dyn TangleRead, rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        let start = match self.pick_start(tangle, rng)? {
            Ok(s) => s,
            Err(()) => return UniformRandomSelector.select_tips(tangle, rng),
        };
        let k = self.walkers.max(2);
        // Seed every walker from the caller's stream up front: the walks
        // are then independent of scheduling, so threads can race freely.
        let seeds: Vec<u64> = (0..k).map(|_| rng.next_u64()).collect();
        let alpha = self.alpha;
        let run_walker = |seed: u64| {
            let mut walker_rng = StdRng::seed_from_u64(seed);
            let mut scratch = Vec::new();
            weighted_walk(
                tangle,
                &|id: &TxId| tangle.cumulative_weight(id),
                alpha,
                start,
                &mut walker_rng,
                &mut scratch,
            )
        };
        let threads = self.threads.max(1).min(k);
        let tips: Vec<TxId> = if threads <= 1 {
            seeds.iter().map(|&s| run_walker(s)).collect()
        } else {
            let mut slots: Vec<Option<TxId>> = vec![None; k];
            let chunk = k.div_ceil(threads);
            std::thread::scope(|scope| {
                for (seed_chunk, slot_chunk) in seeds.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(|| {
                        for (seed, slot) in seed_chunk.iter().zip(slot_chunk.iter_mut()) {
                            *slot = Some(run_walker(*seed));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|t| t.expect("every chunk worker fills its slots"))
                .collect()
        };
        Some(Self::reduce(&tips))
    }
}

/// Cloneable, serializable description of a tip-selection strategy — the
/// configuration knob gateways and simulations carry (the tip-selection
/// analogue of `MiningConfig` / `VerifyConfig`).
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
    /// [`ParallelWalkSelector`].
    ParallelWalk {
        /// Walk greediness.
        alpha: f64,
        /// `Some(w)` depth-constrains starts; `None` anchors at genesis.
        window: Option<usize>,
        /// Independent walkers per selection.
        walkers: usize,
        /// Worker threads (`0`/`1` = serial).
        threads: usize,
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
            SelectorConfig::ParallelWalk {
                alpha,
                window,
                walkers,
                threads,
            } => {
                let mut s = ParallelWalkSelector::new(alpha, walkers).with_threads(threads);
                if let Some(w) = window {
                    s = s.with_window(w);
                }
                Box::new(s)
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
    fn select_tips(&self, tangle: &dyn TangleRead, _rng: &mut dyn RngCore) -> Option<(TxId, TxId)> {
        // Only return the pair while it is still attached (or pruned-known).
        if tangle.contains(&self.pair.0) || tangle.is_pruned(&self.pair.0) {
            Some(self.pair)
        } else {
            None
        }
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
    fn post_snapshot_walk_start_breaks_weight_ties_by_id() {
        // After a snapshot the genesis is gone and the walk starts at the
        // heaviest survivor; equal weights must resolve to the smallest
        // TxId, not whatever the entry map iterates first.
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        // Two independent chains off the genesis with equal length.
        let mut forks = Vec::new();
        for tag in 1..=3u8 {
            let root = TransactionBuilder::new(NodeId([tag; 32]))
                .parents(g, g)
                .payload(Payload::Data(vec![tag]))
                .timestamp_ms(1)
                .build();
            let root_id = tangle.attach(root, 1).unwrap();
            let tip = TransactionBuilder::new(NodeId([tag; 32]))
                .parents(root_id, root_id)
                .payload(Payload::Data(vec![tag, tag]))
                .timestamp_ms(2)
                .build();
            tangle.attach(tip, 2).unwrap();
            forks.push(root_id);
        }
        tangle.confirm_with_threshold(2); // confirms genesis + the roots
        tangle.snapshot(2); // prunes genesis and the three roots
        assert!(tangle.genesis().map(|g| !tangle.contains(&g)).unwrap());
        // Survivors: three equal-weight (W = 1) tips... all tips, so walk
        // start = smallest id among them.
        let sel = WeightedMcmcSelector::new(0.5);
        let expected = tangle
            .iter()
            .map(|tx| tx.id())
            .filter(|id| {
                tangle.cumulative_weight(id)
                    == tangle
                        .iter()
                        .map(|t| tangle.cumulative_weight(&t.id()))
                        .max()
                        .unwrap()
            })
            .min()
            .unwrap();
        for _ in 0..5 {
            assert_eq!(sel.walk_start(&tangle), Some(expected));
        }
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
    fn parallel_walk_reaches_tips_and_is_thread_invariant() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        grow_chain(&mut tangle, g, 25, 1);
        grow_chain(&mut tangle, g, 10, 2);
        let serial = ParallelWalkSelector::new(0.3, 6);
        let threaded = serial.with_threads(4);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let a = serial.select_tips(&tangle, &mut rng_a).unwrap();
            let b = threaded.select_tips(&tangle, &mut rng_b).unwrap();
            assert_eq!(a, b, "thread count must not change the selection");
            assert!(tangle.tips().contains(&a.0));
            assert!(tangle.tips().contains(&a.1));
        }
    }

    #[test]
    fn parallel_walk_windowed_falls_back_on_tiny_tangle() {
        let mut tangle = Tangle::new();
        let g = tangle.attach_genesis(NodeId([0; 32]), 0);
        let sel = ParallelWalkSelector::new(0.3, 4).with_window(8);
        let mut rng = StdRng::seed_from_u64(22);
        assert_eq!(sel.select_tips(&tangle, &mut rng), Some((g, g)));
        assert!(sel
            .select_tips(&Tangle::new(), &mut rng)
            .is_none());
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
            SelectorConfig::ParallelWalk {
                alpha: 0.2,
                window: Some(4),
                walkers: 3,
                threads: 2,
            },
            SelectorConfig::ParallelWalk {
                alpha: 0.2,
                window: None,
                walkers: 2,
                threads: 1,
            },
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
            Box::new(ParallelWalkSelector::new(0.1, 3)),
        ];
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut rng = StdRng::seed_from_u64(7);
        for s in &selectors {
            assert!(s.select_tips(&tangle, &mut rng).is_some());
        }
    }
}
