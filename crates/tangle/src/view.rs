//! Read-lock-free views of the tangle for concurrent tip selection.
//!
//! The tangle splits into an immutable **sealed epoch** (an `Arc`-shared
//! map of the confirmed cone, see [`crate::graph::SealedEpoch`]) and a
//! small mutable **frontier**. A [`TangleView`] captures both at one
//! instant: the epoch is shared by reference (O(1)), only the frontier,
//! tip set and a recency tail are copied (O(frontier)). Readers — tip
//! selectors, weight/credit queries, gossip — then run entirely on the
//! view while the writer keeps attaching: the writer never mutates the
//! shared epoch in place (it goes copy-on-write through
//! [`std::sync::Arc::make_mut`]), so a view is a true point-in-time
//! snapshot and every read against it equals the same read against the
//! tangle at publish time — the serialized schedule.
//!
//! [`SharedView`] is the swap cell for the writer→readers handoff: the
//! writer calls [`SharedView::publish`] after a batch of attaches, readers
//! call [`SharedView::load`] and keep the returned `Arc` for as long as
//! they need a consistent snapshot.

use crate::graph::{Entry, SealedEpoch, Tangle, TxStatus};
use crate::tx::TxId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The read surface tip selection needs, implemented by both the live
/// [`Tangle`] (single-threaded path, zero overhead) and the point-in-time
/// [`TangleView`] (concurrent path).
///
/// `Sync` is a supertrait so `&dyn TangleRead` can be shared across the
/// scoped worker threads of `ParallelWalkSelector`.
pub trait TangleRead: Sync {
    /// The genesis id, if one was attached.
    fn genesis(&self) -> Option<TxId>;
    /// Returns true if `id` is stored (pruned ids return false).
    fn contains(&self, id: &TxId) -> bool;
    /// Returns true if `id` was removed by a snapshot.
    fn is_pruned(&self, id: &TxId) -> bool;
    /// The current tip set in deterministic (id) order, borrowed.
    fn tips_set(&self) -> &BTreeSet<TxId>;
    /// Direct approvers of `id`.
    fn approvers(&self, id: &TxId) -> &[TxId];
    /// Cumulative weight of `id` (0 for unknown ids).
    fn cumulative_weight(&self, id: &TxId) -> u64;
    /// The `window` most recently attached non-tips, oldest first.
    fn recent_non_tips(&self, window: usize) -> Vec<TxId>;
    /// The heaviest stored id, ties broken toward the smallest id — the
    /// post-snapshot walk start.
    fn heaviest_id(&self) -> Option<TxId>;
    /// Number of current tips.
    fn tip_count(&self) -> usize {
        self.tips_set().len()
    }
}

fn heaviest_of(ids: impl Iterator<Item = TxId>, weight: impl Fn(&TxId) -> u64) -> Option<TxId> {
    ids.max_by_key(|id| (weight(id), std::cmp::Reverse(*id)))
}

impl TangleRead for Tangle {
    fn genesis(&self) -> Option<TxId> {
        Tangle::genesis(self)
    }
    fn contains(&self, id: &TxId) -> bool {
        Tangle::contains(self, id)
    }
    fn is_pruned(&self, id: &TxId) -> bool {
        Tangle::is_pruned(self, id)
    }
    fn tips_set(&self) -> &BTreeSet<TxId> {
        Tangle::tips_set(self)
    }
    fn approvers(&self, id: &TxId) -> &[TxId] {
        Tangle::approvers(self, id)
    }
    fn cumulative_weight(&self, id: &TxId) -> u64 {
        Tangle::cumulative_weight(self, id)
    }
    fn recent_non_tips(&self, window: usize) -> Vec<TxId> {
        Tangle::recent_non_tips(self, window)
    }
    fn heaviest_id(&self) -> Option<TxId> {
        let ids: Vec<TxId> = self.iter().map(|tx| tx.id()).collect();
        heaviest_of(ids.into_iter(), |id| Tangle::cumulative_weight(self, id))
    }
    fn tip_count(&self) -> usize {
        Tangle::tip_count(self)
    }
}

/// A point-in-time, read-only snapshot of a [`Tangle`].
///
/// Cheap to build — the sealed epoch and pruned set are `Arc`-shared, only
/// the frontier, tips and a recency tail are cloned — and completely
/// independent of later writes: every [`TangleRead`] answer equals the
/// live tangle's answer at capture time.
#[derive(Clone, Debug)]
pub struct TangleView {
    frontier: HashMap<TxId, Box<Entry>>,
    sealed: Option<Arc<SealedEpoch>>,
    seal_pass: u64,
    tips: BTreeSet<TxId>,
    pruned: Arc<HashSet<TxId>>,
    genesis: Option<TxId>,
    /// Newest suffix of the recency index (attach order, oldest first).
    recency_tail: Vec<TxId>,
    /// True when `recency_tail` covers the whole recency index, making
    /// [`TangleRead::recent_non_tips`] exact for every window.
    recency_full: bool,
    generation: u64,
}

impl TangleView {
    /// Monotone capture generation (the tangle's total-attached counter at
    /// capture time). Lets readers order views and tests prove serialized
    /// equivalence.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of transactions visible in this view.
    pub fn len(&self) -> usize {
        self.frontier.len() + self.sealed.as_ref().map_or(0, |ep| ep.entries.len())
    }

    /// Returns true when the view holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry(&self, id: &TxId) -> Option<&Entry> {
        self.frontier
            .get(id)
            .or_else(|| self.sealed.as_ref().and_then(|ep| ep.entries.get(id)))
            .map(|e| &**e)
    }

    /// Status of `id` as of capture time.
    pub fn status(&self, id: &TxId) -> Option<TxStatus> {
        self.entry(id).map(|e| e.status)
    }
}

impl TangleRead for TangleView {
    fn genesis(&self) -> Option<TxId> {
        self.genesis
    }
    fn contains(&self, id: &TxId) -> bool {
        self.entry(id).is_some()
    }
    fn is_pruned(&self, id: &TxId) -> bool {
        self.pruned.contains(id)
    }
    fn tips_set(&self) -> &BTreeSet<TxId> {
        &self.tips
    }
    fn approvers(&self, id: &TxId) -> &[TxId] {
        self.entry(id).map(|e| e.approvers.as_slice()).unwrap_or(&[])
    }
    fn cumulative_weight(&self, id: &TxId) -> u64 {
        if let Some(e) = self.frontier.get(id) {
            return e.weight;
        }
        if let Some(e) = self.sealed.as_ref().and_then(|ep| ep.entries.get(id)) {
            return e.weight + (self.seal_pass - e.pass_base);
        }
        0
    }
    fn recent_non_tips(&self, window: usize) -> Vec<TxId> {
        let mut picked: Vec<TxId> = self
            .recency_tail
            .iter()
            .rev()
            .filter(|id| !self.approvers(id).is_empty())
            .take(window)
            .copied()
            .collect();
        debug_assert!(
            picked.len() == window || self.recency_full,
            "recency tail too short for window {window}: capture the view \
             with a larger tail"
        );
        picked.reverse();
        picked
    }
    fn heaviest_id(&self) -> Option<TxId> {
        let frontier_ids = self.frontier.keys().copied();
        let sealed_ids = self
            .sealed
            .iter()
            .flat_map(|ep| ep.entries.keys().copied());
        heaviest_of(frontier_ids.chain(sealed_ids), |id| {
            self.cumulative_weight(id)
        })
    }
}

impl Tangle {
    /// Captures a read-only [`TangleView`] of the current state.
    ///
    /// `recency_tail` bounds how much of the attach-order index the view
    /// carries: depth-constrained selectors need a tail comfortably larger
    /// than their window (tips in the tail are skipped when picking walk
    /// starts). The sealed epoch and pruned set are shared, not copied, so
    /// the cost is O(frontier + tail).
    pub fn view(&self, recency_tail: usize) -> TangleView {
        let tail_start = self.recency.len().saturating_sub(recency_tail);
        let mut frontier = self.frontier.clone();
        for e in frontier.values_mut() {
            e.weight = self.slots.weight(e.slot);
        }
        TangleView {
            frontier,
            sealed: self.sealed.clone(),
            seal_pass: self.seal_pass,
            tips: self.tips.clone(),
            pruned: self.pruned.clone(),
            genesis: self.genesis,
            recency_tail: self.recency[tail_start..].to_vec(),
            recency_full: tail_start == 0,
            generation: self.total_attached,
        }
    }

    /// Captures a view carrying the **full** recency index — exact for any
    /// depth window, at O(stored) capture cost.
    pub fn view_full(&self) -> TangleView {
        self.view(self.recency.len())
    }
}

/// A swap cell carrying the latest published [`TangleView`].
///
/// The writer thread publishes a fresh view after each attach batch;
/// reader threads load the current `Arc` and keep it for as long as they
/// need one consistent snapshot. Loads and publishes only swap an `Arc`
/// under a mutex held for the duration of a pointer copy — readers never
/// block attaches and attaches never block readers mid-selection.
#[derive(Clone, Debug)]
pub struct SharedView {
    inner: Arc<Mutex<Arc<TangleView>>>,
}

impl SharedView {
    /// Creates the cell with an initial view.
    pub fn new(view: TangleView) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Arc::new(view))),
        }
    }

    /// Swaps in a newer view (writer side).
    pub fn publish(&self, view: TangleView) {
        *self.inner.lock().expect("view cell poisoned") = Arc::new(view);
    }

    /// Returns the latest published view (reader side).
    pub fn load(&self) -> Arc<TangleView> {
        self.inner.lock().expect("view cell poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tips::{
        DepthConstrainedSelector, ParallelWalkSelector, TipSelector, UniformRandomSelector,
        WeightedMcmcSelector,
    };
    use crate::tx::{NodeId, Payload, TransactionBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grow(t: &mut Tangle, rng: &mut StdRng, n: usize, t0: u64) {
        for i in 0..n {
            let tips = t.tips();
            let a = tips[rng.gen_range(0..tips.len())];
            let b = tips[rng.gen_range(0..tips.len())];
            let ts = t0 + i as u64 + 1;
            let tx = TransactionBuilder::new(NodeId([(i % 251) as u8; 32]))
                .parents(a, b)
                .payload(Payload::Data(ts.to_be_bytes().to_vec()))
                .timestamp_ms(ts)
                .build();
            t.attach(tx, ts).unwrap();
        }
    }

    fn seeded_tangle(seed: u64, n: usize) -> Tangle {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Tangle::new();
        t.attach_genesis(NodeId([0; 32]), 0);
        grow(&mut t, &mut rng, n, 0);
        t.confirm_with_threshold(3);
        t.seal_frontier(8);
        t
    }

    /// Every TangleRead answer on a view must equal the live tangle's
    /// answer at capture time.
    #[test]
    fn view_mirrors_tangle_at_capture() {
        let t = seeded_tangle(1, 60);
        let v = t.view_full();
        assert_eq!(v.generation(), t.total_attached());
        assert_eq!(v.len(), t.len());
        assert_eq!(v.tips_set(), t.tips_set());
        assert_eq!(TangleRead::genesis(&v), t.genesis());
        assert_eq!(v.heaviest_id(), TangleRead::heaviest_id(&t));
        for tx in t.iter() {
            let id = tx.id();
            assert!(TangleRead::contains(&v, &id));
            assert_eq!(
                TangleRead::cumulative_weight(&v, &id),
                t.cumulative_weight(&id)
            );
            assert_eq!(TangleRead::approvers(&v, &id), t.approvers(&id));
            assert_eq!(v.status(&id), t.status(&id));
        }
        for w in [1usize, 4, 16, 1000] {
            assert_eq!(TangleRead::recent_non_tips(&v, w), t.recent_non_tips(w));
        }
    }

    /// A view is immune to writer progress: attaches (passes, strays,
    /// seals, snapshots) after capture never change what it reports.
    #[test]
    fn view_is_point_in_time_under_writes() {
        let mut t = seeded_tangle(2, 50);
        let v = t.view_full();
        let ids: Vec<TxId> = t.iter().map(|tx| tx.id()).collect();
        let before: Vec<u64> = ids.iter().map(|id| v.cumulative_weight(id)).collect();
        let tips_before = v.tips_set().clone();

        let mut rng = StdRng::seed_from_u64(99);
        grow(&mut t, &mut rng, 80, 1_000);
        t.confirm_with_threshold(3);
        t.seal_frontier(8);
        t.snapshot(40);

        let after: Vec<u64> = ids.iter().map(|id| v.cumulative_weight(id)).collect();
        assert_eq!(before, after, "writer progress leaked into the view");
        assert_eq!(&tips_before, v.tips_set());
    }

    /// Selections against a published view are bit-for-bit the selections
    /// the live tangle produced at publish time (serialized schedule).
    #[test]
    fn view_selection_equals_serialized_schedule() {
        let t = seeded_tangle(3, 70);
        let v = t.view_full();
        let selectors: Vec<Box<dyn TipSelector + Send + Sync>> = vec![
            Box::new(UniformRandomSelector),
            Box::new(WeightedMcmcSelector::new(0.4)),
            Box::new(DepthConstrainedSelector::new(0.4, 6)),
            Box::new(ParallelWalkSelector::new(0.3, 5).with_window(6)),
        ];
        for (i, sel) in selectors.iter().enumerate() {
            let mut rng_live = StdRng::seed_from_u64(7 + i as u64);
            let mut rng_view = StdRng::seed_from_u64(7 + i as u64);
            for _ in 0..12 {
                let live = sel.select_tips(&t, &mut rng_live);
                let viewed = sel.select_tips(&v, &mut rng_view);
                assert_eq!(live, viewed, "selector {i} diverged on the view");
            }
        }
    }

    /// Concurrent readers on a SharedView while the writer attaches and
    /// republishes: every selection must match the serialized schedule of
    /// the generation it was made against.
    #[test]
    fn shared_view_concurrent_reads_match_serialized_schedule() {
        let mut t = seeded_tangle(4, 40);
        let cell = SharedView::new(t.view_full());

        // Serialized oracle: selection per (generation, round, reader),
        // computed single-threaded on cloned tangles as the writer goes.
        let mut oracle: std::collections::HashMap<(u64, u64, u64), Option<(TxId, TxId)>> =
            std::collections::HashMap::new();
        let mut frozen: Vec<Tangle> = vec![t.clone()];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..4 {
            grow(&mut t, &mut rng, 25, 10_000);
            t.confirm_with_threshold(3);
            t.seal_frontier(8);
            frozen.push(t.clone());
        }
        let sel = WeightedMcmcSelector::new(0.3);
        for snap in &frozen {
            for reader in 0..3u64 {
                for round in 0..6u64 {
                    let mut r = StdRng::seed_from_u64(reader * 1_000 + round);
                    oracle.insert(
                        (snap.total_attached(), round, reader),
                        sel.select_tips(snap, &mut r),
                    );
                }
            }
        }

        // Now replay concurrently: writer republishes each frozen state's
        // view; readers select against whatever view they loaded and check
        // the oracle for that generation.
        let oracle = &oracle;
        let cell_ref = &cell;
        let views: Vec<TangleView> = frozen.iter().map(|s| s.view_full()).collect();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for v in views {
                    cell_ref.publish(v);
                }
            });
            for reader in 0..3u64 {
                scope.spawn(move || {
                    for round in 0..6u64 {
                        let view = cell_ref.load();
                        let mut r = StdRng::seed_from_u64(reader * 1_000 + round);
                        let got = sel.select_tips(&*view, &mut r);
                        let want = oracle
                            .get(&(view.generation(), round, reader))
                            .expect("every published generation is in the oracle");
                        assert_eq!(&got, want, "reader {reader} round {round} diverged");
                    }
                });
            }
        });
    }
}
