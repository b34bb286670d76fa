//! The credit projection: [`CreditLedger`] folds a [`CreditEvent`] stream
//! into per-node state and answers Eqns 2–5 incrementally.
//!
//! ## Index vs oracle
//!
//! [`CreditLedger::credit_of`] answers through an index: per-node
//! time-sorted records with **prefix sums** of validation weights (a CrP
//! window query is two binary searches and one subtraction instead of a
//! scan of the full history) and a one-entry **epoch cache** for CrN
//! (batch admissions all query the same `now`, so the misbehaviour scan
//! runs once per (node, now) epoch). [`CreditLedger::credit_of_recount`]
//! recomputes the same quantities with the naive full-history scan of the
//! original mutable credit registry and is the bit-for-bit oracle, mirroring the
//! tangle's `cumulative_weight`/`cumulative_weight_recount` pattern.
//!
//! Exactness note: the prefix-sum difference is bit-identical to the
//! sequential window sum whenever every partial sum is exactly
//! representable, which holds for the whole-number weights the gateway
//! grants (attach weight 1, integer cumulative weights ≪ 2⁵³). The CrN
//! paths iterate the identical subsequence in the identical order, so
//! they agree for *any* weights.
//!
//! ## Batch dedup
//!
//! Consecutive validations of the same node at the same instant (a batch
//! submit admitted at one `now`) are **merged into one record** by adding
//! weights, so a burst of N accepted transactions grows the node's
//! history by one record, not N — the old registry's per-query scan over
//! an N-record burst made batch admission quadratic in N.

use crate::event::CreditEvent;
use crate::params::{CreditBreakdown, CreditParams, Misbehavior};
use biot_net::time::SimTime;
use biot_tangle::tx::NodeId;
use std::collections::BTreeMap;
use std::cell::Cell;

/// Per-node projection state.
///
/// `tx_at`/`tx_weight` are parallel arrays sorted by time; `tx_prefix`
/// holds `tx_prefix[i] = Σ tx_weight[..i]` (length `len + 1`).
#[derive(Clone, Debug)]
struct NodeState {
    tx_at: Vec<u64>,
    tx_weight: Vec<f64>,
    tx_prefix: Vec<f64>,
    mis: Vec<(u64, Misbehavior)>,
    /// `(now_ms, mis.len(), value)` — valid while both match.
    crn_cache: Cell<Option<(u64, usize, f64)>>,
}

impl Default for NodeState {
    /// Not derived: `tx_prefix` starts with its `0.0` sentinel.
    fn default() -> Self {
        Self {
            tx_at: Vec::new(),
            tx_weight: Vec::new(),
            tx_prefix: vec![0.0],
            mis: Vec::new(),
            crn_cache: Cell::new(None),
        }
    }
}

impl NodeState {
    fn rebuild_prefix_from(&mut self, start: usize) {
        self.tx_prefix.truncate(start + 1);
        let mut acc = self.tx_prefix[start];
        for &w in &self.tx_weight[start..] {
            acc += w;
            self.tx_prefix.push(acc);
        }
    }

    fn record_tx(&mut self, at_ms: u64, weight: f64) {
        match self.tx_at.last().copied() {
            // Batch dedup: same node, same instant — accumulate in place.
            Some(last) if last == at_ms => {
                let n = self.tx_weight.len();
                self.tx_weight[n - 1] += weight;
                self.tx_prefix[n] = self.tx_prefix[n - 1] + self.tx_weight[n - 1];
            }
            Some(last) if last <= at_ms => {
                let acc = *self.tx_prefix.last().unwrap() + weight;
                self.tx_at.push(at_ms);
                self.tx_weight.push(weight);
                self.tx_prefix.push(acc);
            }
            None => {
                self.tx_at.push(at_ms);
                self.tx_weight.push(weight);
                self.tx_prefix.push(weight);
            }
            // Out-of-order arrival (reordered gossip): sorted insert and
            // a prefix rebuild from the insertion point.
            Some(_) => {
                let pos = self.tx_at.partition_point(|&a| a <= at_ms);
                self.tx_at.insert(pos, at_ms);
                self.tx_weight.insert(pos, weight);
                self.rebuild_prefix_from(pos);
            }
        }
    }

    fn record_mis(&mut self, at_ms: u64, kind: Misbehavior) {
        match self.mis.last() {
            Some(&(last, _)) if last > at_ms => {
                let pos = self.mis.partition_point(|&(a, _)| a <= at_ms);
                self.mis.insert(pos, (at_ms, kind));
            }
            _ => self.mis.push((at_ms, kind)),
        }
        self.crn_cache.set(None);
    }
}

/// The event-sourced credit ledger: a deterministic projection over an
/// append-only [`CreditEvent`] stream.
///
/// Node state lives in a `BTreeMap`, so [`CreditLedger::known_nodes`] and
/// every report iterating it are byte-stable across runs (the old
/// registry's `HashMap` order was not).
///
/// # Examples
///
/// ```
/// use biot_credit::{CreditEvent, CreditLedger, CreditParams, Misbehavior};
/// use biot_net::time::SimTime;
/// use biot_tangle::tx::NodeId;
///
/// let mut ledger = CreditLedger::new(CreditParams::default());
/// let node = NodeId([1; 32]);
/// ledger.record_transaction(node, 2.0, SimTime::from_secs(1));
/// let good = ledger.credit_of(node, SimTime::from_secs(2)).combined;
/// ledger.record_misbehavior(node, Misbehavior::DoubleSpend, SimTime::from_secs(3));
/// let bad = ledger.credit_of(node, SimTime::from_secs(4)).combined;
/// assert!(bad < good);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CreditLedger {
    params: CreditParams,
    nodes: BTreeMap<NodeId, NodeState>,
    events_applied: u64,
}

impl CreditLedger {
    /// Creates an empty ledger with the given parameters.
    pub fn new(params: CreditParams) -> Self {
        Self {
            params,
            nodes: BTreeMap::new(),
            events_applied: 0,
        }
    }

    /// Builds a ledger by replaying an event stream in order.
    pub fn from_events<'a, I>(params: CreditParams, events: I) -> Self
    where
        I: IntoIterator<Item = &'a CreditEvent>,
    {
        let mut ledger = Self::new(params);
        for ev in events {
            ledger.apply(ev);
        }
        ledger
    }

    /// Rebuilds a ledger from [`CreditLedger::snapshot_events`]'s merged
    /// events, which stand for `applied` events in all.
    pub fn from_merged_events(params: CreditParams, events: &[CreditEvent], applied: u64) -> Self {
        let mut ledger = Self::from_events(params, events);
        ledger.events_applied = applied;
        ledger
    }

    /// The parameters in force.
    pub fn params(&self) -> &CreditParams {
        &self.params
    }

    /// Folds one event into the projection.
    pub fn apply(&mut self, event: &CreditEvent) {
        match *event {
            CreditEvent::Validated { node, weight, at } => self
                .nodes
                .entry(node)
                .or_default()
                .record_tx(at.as_millis(), weight),
            CreditEvent::Misbehaved { node, kind, at } => self
                .nodes
                .entry(node)
                .or_default()
                .record_mis(at.as_millis(), kind),
        }
        self.events_applied += 1;
    }

    /// Records a validated transaction of `weight` issued by `node` at
    /// `at` (equivalent to applying a [`CreditEvent::Validated`]).
    pub fn record_transaction(&mut self, node: NodeId, weight: f64, at: SimTime) {
        self.apply(&CreditEvent::validated(node, weight, at));
    }

    /// Records a detected misbehaviour by `node` at `at` (equivalent to
    /// applying a [`CreditEvent::Misbehaved`]).
    pub fn record_misbehavior(&mut self, node: NodeId, kind: Misbehavior, at: SimTime) {
        self.apply(&CreditEvent::misbehaved(node, kind, at));
    }

    /// Number of misbehaviours on record for `node`.
    pub fn misbehavior_count(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map(|s| s.mis.len()).unwrap_or(0)
    }

    /// Total events folded into this projection (merged records still
    /// count every applied event).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Validation records currently held for `node` (after batch dedup
    /// and [`CreditLedger::compact`]); the benchmark's dedup metric.
    pub fn tx_record_count(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map(|s| s.tx_at.len()).unwrap_or(0)
    }

    /// Computes CrP at `now` (Eqn 3) from the prefix-sum index:
    /// transactions inside the latest ΔT window, weights summed, divided
    /// by ΔT in seconds.
    ///
    /// An inactive node (no transactions in the window) scores 0 — the
    /// paper treats it as "not yet trusted" rather than negative.
    pub fn positive_credit(&self, node: NodeId, now: SimTime) -> f64 {
        let Some(state) = self.nodes.get(&node) else {
            return 0.0;
        };
        let now_ms = now.as_millis();
        let window_start = now_ms.saturating_sub(self.params.delta_t_ms);
        let delta_t_secs = self.params.delta_t_ms as f64 / 1000.0;
        let lo = state.tx_at.partition_point(|&a| a < window_start);
        let hi = state.tx_at.partition_point(|&a| a <= now_ms);
        (state.tx_prefix[hi] - state.tx_prefix[lo]) / delta_t_secs
    }

    /// Computes CrN at `now` (Eqn 4): each misbehaviour contributes
    /// `−α(B)·ΔT/(t − t_k)`, with elapsed time floored at
    /// [`CreditParams::min_elapsed_ms`]. The contribution decays but never
    /// disappears. A one-entry per-node cache short-circuits repeated
    /// queries at the same `now` (the batch-admission pattern).
    pub fn negative_credit(&self, node: NodeId, now: SimTime) -> f64 {
        let Some(state) = self.nodes.get(&node) else {
            return 0.0;
        };
        let now_ms = now.as_millis();
        if let Some((cached_now, cached_len, value)) = state.crn_cache.get() {
            if cached_now == now_ms && cached_len == state.mis.len() {
                return value;
            }
        }
        let value = self.negative_credit_scan(state, now);
        state.crn_cache.set(Some((now_ms, state.mis.len(), value)));
        value
    }

    fn negative_credit_scan(&self, state: &NodeState, now: SimTime) -> f64 {
        let delta_t_secs = self.params.delta_t_ms as f64 / 1000.0;
        -state
            .mis
            .iter()
            .filter(|&&(at_ms, _)| at_ms <= now.as_millis())
            .map(|&(at_ms, kind)| {
                let elapsed_ms = now
                    .millis_since(SimTime::from_millis(at_ms))
                    .max(self.params.min_elapsed_ms);
                let elapsed_secs = elapsed_ms as f64 / 1000.0;
                self.params.alpha(kind) * delta_t_secs / elapsed_secs
            })
            .sum::<f64>()
    }

    /// Computes the full credit breakdown at `now` (Eqn 2) through the
    /// incremental index.
    pub fn credit_of(&self, node: NodeId, now: SimTime) -> CreditBreakdown {
        let positive = self.positive_credit(node, now);
        let negative = self.negative_credit(node, now);
        CreditBreakdown {
            positive,
            negative,
            combined: self.params.lambda1 * positive + self.params.lambda2 * negative,
        }
    }

    /// The naive Eqn 2–5 recompute: scans the node's full stored history
    /// with no prefix sums and no cache, exactly like the pre-refactor
    /// mutable registry. This is the test oracle — `credit_of` must match
    /// it bit for bit.
    pub fn credit_of_recount(&self, node: NodeId, now: SimTime) -> CreditBreakdown {
        let positive = match self.nodes.get(&node) {
            None => 0.0,
            Some(state) => {
                let window_start = now.as_millis().saturating_sub(self.params.delta_t_ms);
                let delta_t_secs = self.params.delta_t_ms as f64 / 1000.0;
                state
                    .tx_at
                    .iter()
                    .zip(&state.tx_weight)
                    .filter(|&(&at_ms, _)| at_ms >= window_start && at_ms <= now.as_millis())
                    .map(|(_, &w)| w)
                    .sum::<f64>()
                    / delta_t_secs
            }
        };
        let negative = match self.nodes.get(&node) {
            None => 0.0,
            Some(state) => self.negative_credit_scan(state, now),
        };
        CreditBreakdown {
            positive,
            negative,
            combined: self.params.lambda1 * positive + self.params.lambda2 * negative,
        }
    }

    /// Discards validation records that can no longer influence CrP at or
    /// after `now` (older than ΔT before `now`). Misbehaviour records are
    /// never discarded — their influence never fully decays (§IV-B).
    pub fn compact(&mut self, now: SimTime) {
        let cutoff = now.as_millis().saturating_sub(self.params.delta_t_ms);
        for state in self.nodes.values_mut() {
            let drop = state.tx_at.partition_point(|&a| a < cutoff);
            if drop > 0 {
                state.tx_at.drain(..drop);
                state.tx_weight.drain(..drop);
                // Invariant: tx_prefix[0] is always 0.0, so rebuilding
                // from index 0 re-accumulates the surviving weights.
                state.rebuild_prefix_from(0);
            }
        }
    }

    /// Nodes with any recorded history, in stable (sorted) order.
    pub fn known_nodes(&self) -> impl Iterator<Item = &NodeId> {
        self.nodes.keys()
    }

    /// Reconstructs an event stream equivalent to the current projection:
    /// replaying the returned events into a fresh ledger yields identical
    /// credit for every node at every `now`. Used to re-seed the WAL at a
    /// store checkpoint (bounded by ΔT of validation activity plus the
    /// never-discarded misbehaviour evidence).
    pub fn snapshot_events(&self) -> Vec<CreditEvent> {
        let mut out = Vec::new();
        for (&node, state) in &self.nodes {
            for (&at_ms, &weight) in state.tx_at.iter().zip(&state.tx_weight) {
                out.push(CreditEvent::validated(
                    node,
                    weight,
                    SimTime::from_millis(at_ms),
                ));
            }
            for &(at_ms, kind) in &state.mis {
                out.push(CreditEvent::misbehaved(
                    node,
                    kind,
                    SimTime::from_millis(at_ms),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node(n: u8) -> NodeId {
        NodeId([n; 32])
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Asserts indexed == recount for every probe the test cares about.
    fn check(ledger: &CreditLedger, n: NodeId, now: SimTime) -> CreditBreakdown {
        let indexed = ledger.credit_of(n, now);
        let recount = ledger.credit_of_recount(n, now);
        assert_eq!(indexed, recount, "index diverged from oracle at {now:?}");
        indexed
    }

    #[test]
    fn unknown_node_has_zero_credit() {
        let ledger = CreditLedger::new(CreditParams::default());
        let c = check(&ledger, node(1), t(10));
        assert_eq!(c.positive, 0.0);
        assert_eq!(c.negative, 0.0);
        assert_eq!(c.combined, 0.0);
    }

    #[test]
    fn positive_credit_is_weight_over_delta_t() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_transaction(node(1), 3.0, t(5));
        ledger.record_transaction(node(1), 3.0, t(10));
        // CrP = (3+3)/30 = 0.2
        let c = check(&ledger, node(1), t(20));
        assert!((c.positive - 0.2).abs() < 1e-9);
        assert_eq!(c.combined, c.positive); // λ1 = 1, no misbehaviour
    }

    #[test]
    fn transactions_age_out_of_the_window() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_transaction(node(1), 3.0, t(5));
        assert!(ledger.positive_credit(node(1), t(10)) > 0.0);
        // ΔT = 30 s; by t = 36 s the record at 5 s is outside the window.
        assert_eq!(ledger.positive_credit(node(1), t(36)), 0.0);
        check(&ledger, node(1), t(36));
    }

    #[test]
    fn future_records_do_not_count_yet() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_transaction(node(1), 1.0, t(50));
        ledger.record_misbehavior(node(1), Misbehavior::LazyTips, t(60));
        assert_eq!(ledger.positive_credit(node(1), t(10)), 0.0);
        assert_eq!(ledger.negative_credit(node(1), t(10)), 0.0);
        check(&ledger, node(1), t(10));
    }

    #[test]
    fn negative_credit_formula_matches_eqn4() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        // At t = 40 s: elapsed = 30 s, CrN = −1·30/30 = −1.
        let n = ledger.negative_credit(node(1), t(40));
        assert!((n + 1.0).abs() < 1e-9, "got {n}");
        // Combined uses λ2 = 0.5.
        let c = check(&ledger, node(1), t(40));
        assert!((c.combined + 0.5).abs() < 1e-9);
    }

    #[test]
    fn lazy_tips_punished_half_as_much_as_double_spend() {
        let params = CreditParams::default();
        let mut ledger_lazy = CreditLedger::new(params);
        let mut ledger_ds = CreditLedger::new(params);
        ledger_lazy.record_misbehavior(node(1), Misbehavior::LazyTips, t(10));
        ledger_ds.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        let l = ledger_lazy.negative_credit(node(1), t(40));
        let d = ledger_ds.negative_credit(node(1), t(40));
        assert!((l - d / 2.0).abs() < 1e-9, "lazy {l}, double {d}");
    }

    #[test]
    fn fresh_misbehavior_is_severely_punished() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        // Immediately after (elapsed floored at 100 ms): CrN = −1·30/0.1 = −300.
        let n = ledger.negative_credit(node(1), SimTime::from_millis(10_000));
        assert!((n + 300.0).abs() < 1e-6, "got {n}");
    }

    #[test]
    fn punishment_decays_but_never_vanishes() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(0));
        let at_30 = ledger.negative_credit(node(1), t(30));
        let at_300 = ledger.negative_credit(node(1), t(300));
        let at_3000 = ledger.negative_credit(node(1), t(3000));
        assert!(at_30 < at_300 && at_300 < at_3000, "decay is monotone");
        assert!(at_3000 < 0.0, "never reaches zero");
    }

    #[test]
    fn repeated_attacks_accumulate() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        let one = ledger.negative_credit(node(1), t(40));
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(40));
        let two = ledger.negative_credit(node(1), t(70));
        assert!(two < one, "second attack deepens the penalty: {two} vs {one}");
    }

    #[test]
    fn lambda_weights_apply() {
        let params = CreditParams {
            lambda1: 2.0,
            lambda2: 4.0,
            ..CreditParams::default()
        };
        let mut ledger = CreditLedger::new(params);
        ledger.record_transaction(node(1), 3.0, t(10));
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        let c = check(&ledger, node(1), t(40));
        let expect = 2.0 * c.positive + 4.0 * c.negative;
        assert!((c.combined - expect).abs() < 1e-9);
    }

    #[test]
    fn compact_preserves_credit_semantics() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_transaction(node(1), 3.0, t(5));
        ledger.record_transaction(node(1), 3.0, t(50));
        ledger.record_misbehavior(node(1), Misbehavior::LazyTips, t(5));
        let before = check(&ledger, node(1), t(60));
        ledger.compact(t(60));
        let after = check(&ledger, node(1), t(60));
        assert_eq!(before, after);
        // The old tx record is gone, the misbehaviour remains.
        assert_eq!(ledger.misbehavior_count(node(1)), 1);
        assert_eq!(ledger.tx_record_count(node(1)), 1);
    }

    #[test]
    fn nodes_are_independent() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(10));
        ledger.record_transaction(node(2), 5.0, t(10));
        assert!(check(&ledger, node(1), t(20)).combined < 0.0);
        assert!(check(&ledger, node(2), t(20)).combined > 0.0);
        assert_eq!(ledger.known_nodes().count(), 2);
    }

    #[test]
    fn known_nodes_iterate_in_sorted_order() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        for n in [9u8, 3, 7, 1] {
            ledger.record_transaction(node(n), 1.0, t(1));
        }
        let order: Vec<NodeId> = ledger.known_nodes().copied().collect();
        assert_eq!(order, vec![node(1), node(3), node(7), node(9)]);
    }

    #[test]
    fn same_instant_validations_merge_into_one_record() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        for _ in 0..100 {
            ledger.record_transaction(node(1), 1.0, t(5));
        }
        assert_eq!(ledger.tx_record_count(node(1)), 1);
        assert_eq!(ledger.events_applied(), 100);
        // Semantics unchanged: CrP = 100/30.
        let c = check(&ledger, node(1), t(10));
        assert!((c.positive - 100.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_events_converge_to_the_same_credit() {
        let params = CreditParams::default();
        let events = vec![
            CreditEvent::validated(node(1), 2.0, t(3)),
            CreditEvent::validated(node(1), 1.0, t(9)),
            CreditEvent::misbehaved(node(1), Misbehavior::DoubleSpend, t(6)),
            CreditEvent::validated(node(1), 4.0, t(6)),
        ];
        let forward = CreditLedger::from_events(params, &events);
        let mut reversed = events.clone();
        reversed.reverse();
        let backward = CreditLedger::from_events(params, &reversed);
        for probe in [t(5), t(10), t(20), t(40)] {
            assert_eq!(check(&forward, node(1), probe), check(&backward, node(1), probe));
        }
    }

    #[test]
    fn snapshot_events_replay_to_identical_credit() {
        let mut ledger = CreditLedger::new(CreditParams::default());
        ledger.record_transaction(node(1), 3.0, t(5));
        ledger.record_transaction(node(1), 3.0, t(5));
        ledger.record_transaction(node(2), 7.0, t(12));
        ledger.record_misbehavior(node(1), Misbehavior::DoubleSpend, t(8));
        ledger.compact(t(40));
        let replayed = CreditLedger::from_events(CreditParams::default(), &ledger.snapshot_events());
        for n in [node(1), node(2)] {
            for probe in [t(10), t(40), t(100)] {
                assert_eq!(ledger.credit_of(n, probe), replayed.credit_of(n, probe));
            }
            assert_eq!(ledger.misbehavior_count(n), replayed.misbehavior_count(n));
        }
    }

    // Property test: random event streams interleaved with compact and
    // snapshot/restore cycles; the incremental index must match the
    // naive recount bit for bit at every probe.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_matches_recount_under_churn(
            ops in proptest::collection::vec(
                (0u8..6, 0u8..4, 0u64..120, 1u32..50),
                1..120,
            ),
        ) {
            let mut ledger = CreditLedger::new(CreditParams::default());
            let mut clock = 0u64;
            for (op, who, dt, weight) in ops {
                clock += dt; // non-decreasing, occasionally repeated instants
                let at = SimTime::from_millis(clock);
                let n = node(who);
                match op {
                    // Weights are whole numbers, as granted by the gateway
                    // (attach weight 1 / integer cumulative weights), so
                    // prefix sums are exact — see the module docs.
                    0 | 1 => ledger.record_transaction(n, weight as f64, at),
                    2 => ledger.record_misbehavior(n, Misbehavior::LazyTips, at),
                    3 => ledger.record_misbehavior(n, Misbehavior::DoubleSpend, at),
                    4 => ledger.compact(at),
                    _ => {
                        // Snapshot/restore cycle: the restored projection
                        // must answer identically from here on.
                        let restored = CreditLedger::from_events(
                            *ledger.params(),
                            &ledger.snapshot_events(),
                        );
                        for m in ledger.known_nodes() {
                            prop_assert_eq!(
                                ledger.credit_of(*m, at),
                                restored.credit_of(*m, at)
                            );
                        }
                        ledger = restored;
                    }
                }
                // Probe present, past, and future instants.
                for probe_ms in [clock, clock.saturating_sub(40_000), clock + 15_000] {
                    let probe = SimTime::from_millis(probe_ms);
                    for m in [node(0), node(1), node(2), node(3)] {
                        let indexed = ledger.credit_of(m, probe);
                        let recount = ledger.credit_of_recount(m, probe);
                        prop_assert_eq!(indexed, recount);
                    }
                }
            }
        }
    }
}
