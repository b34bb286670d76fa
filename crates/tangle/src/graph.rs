//! The tangle itself: an append-only DAG of transactions with tip
//! tracking, weights, confirmation and conflict (double-spend) detection.

use crate::slots::{SlotIndex, NO_SLOT};
use crate::tx::{IdentifiedTx, Payload, Transaction, TxId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Validation status of an attached transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxStatus {
    /// Attached but not yet confirmed by enough approvers.
    Pending,
    /// Cumulative weight reached the confirmation threshold.
    Confirmed,
}

/// Errors returned by [`Tangle::attach`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TangleError {
    /// The transaction id is already present.
    Duplicate(TxId),
    /// A referenced parent is unknown.
    UnknownParent {
        /// The transaction being attached.
        tx: TxId,
        /// The missing parent.
        parent: TxId,
    },
    /// The payload spends a token that an earlier, still-valid transaction
    /// already spent.
    DoubleSpend {
        /// The rejected transaction.
        tx: TxId,
        /// The transaction that spent the token first.
        original: TxId,
        /// The disputed token.
        token: [u8; 32],
    },
    /// A non-genesis transaction used the reserved genesis parent id.
    InvalidGenesisReference(TxId),
}

impl fmt::Display for TangleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TangleError::Duplicate(id) => write!(f, "transaction {id:?} already attached"),
            TangleError::UnknownParent { tx, parent } => {
                write!(f, "transaction {tx:?} references unknown parent {parent:?}")
            }
            TangleError::DoubleSpend { tx, original, .. } => {
                write!(f, "transaction {tx:?} double-spends a token first spent by {original:?}")
            }
            TangleError::InvalidGenesisReference(id) => {
                write!(f, "non-genesis transaction {id:?} references the genesis parent id")
            }
        }
    }
}

impl std::error::Error for TangleError {}

/// A stored transaction with its graph metadata.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// The body, shared with every other holder of the same transaction
    /// (a second tangle on the same node, an outbox, a solidification
    /// queue) instead of copied.
    pub(crate) tx: Arc<Transaction>,
    /// Direct approvers, in attach order. Most transactions end with one
    /// or two, so the first push reserves exactly two.
    pub(crate) approvers: Vec<TxId>,
    pub(crate) attach_time_ms: u64,
    pub(crate) status: TxStatus,
    /// The entry's slot in the tangle's [`SlotIndex`], which holds its
    /// parent links, its cumulative weight and whether it is sealed. Slots
    /// are handed out in attach order, so the slot is also the entry's
    /// attach sequence number.
    pub(crate) slot: u32,
}

/// Records `child` as the newest direct approver of `parent`.
fn push_approver(parent: &mut Entry, child: TxId) {
    if parent.approvers.capacity() == 0 {
        parent.approvers.reserve_exact(2);
    }
    parent.approvers.push(child);
}

/// Errors returned by [`Tangle::seal_to`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealError {
    /// The proposed anchor is not stored in the frontier.
    UnknownAnchor(TxId),
    /// The proposed anchor is already inside the sealed region (and is not
    /// the current anchor).
    AlreadySealed(TxId),
    /// The proposed anchor is not confirmed.
    NotConfirmed(TxId),
    /// A transaction in the proposed anchor's cone is not confirmed.
    UnconfirmedCone(TxId),
    /// The proposed anchor does not approve the current anchor, so the
    /// pass-through counter would under-count the old cone.
    DoesNotApproveAnchor {
        /// The rejected candidate.
        candidate: TxId,
        /// The current anchor it fails to approve.
        anchor: TxId,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::UnknownAnchor(id) => write!(f, "seal anchor {id:?} is not in the frontier"),
            SealError::AlreadySealed(id) => write!(f, "seal anchor {id:?} is already sealed"),
            SealError::NotConfirmed(id) => write!(f, "seal anchor {id:?} is not confirmed"),
            SealError::UnconfirmedCone(id) => {
                write!(f, "cone member {id:?} of the proposed anchor is not confirmed")
            }
            SealError::DoesNotApproveAnchor { candidate, anchor } => {
                write!(f, "candidate {candidate:?} does not approve current anchor {anchor:?}")
            }
        }
    }
}

impl std::error::Error for SealError {}

/// Counters describing how the sealed weight index is behaving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Successful [`Tangle::seal_to`] calls (anchor advances).
    pub seals: u64,
    /// Attaches absorbed by the pass-through counter (approved the anchor).
    pub passes: u64,
    /// Attaches that reached into the sealed cone without approving the
    /// anchor and took the exact per-entry fallback walk.
    pub strays: u64,
    /// Entries currently sealed.
    pub sealed_len: usize,
    /// Entries currently in the mutable frontier.
    pub frontier_len: usize,
}

/// A DAG-structured ledger (the tangle of paper §II-B). It is
/// append-only, as in the paper: an attached transaction is never
/// removed, so every stored entry's parents are stored too.
///
/// # Examples
///
/// ```
/// use biot_tangle::graph::Tangle;
/// use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
///
/// let mut tangle = Tangle::new();
/// let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
/// let tx = TransactionBuilder::new(NodeId([1; 32]))
///     .parents(genesis, genesis)
///     .payload(Payload::Data(b"first reading".to_vec()))
///     .timestamp_ms(10)
///     .build();
/// let id = tangle.attach(tx, 10)?;
/// assert!(tangle.tips().contains(&id));
/// # Ok::<(), biot_tangle::graph::TangleError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Tangle {
    /// Every stored entry, sealed or not. Entries are boxed: an inline
    /// `Entry` is 48 bytes, and a hash table keeps up to half its buckets
    /// empty.
    entries: HashMap<TxId, Box<Entry>>,
    /// Slot of the seal anchor while a sealed region exists: the anchor
    /// and its confirmed ancestor cone are sealed.
    ///
    /// Sealing exploits a monotonicity fact: once a cone is confirmed its
    /// weights only ever grow by *pass-through*. A new transaction that
    /// approves the anchor approves the anchor's entire cone, so one
    /// counter (`seal_pass`) absorbs the increment for every sealed entry
    /// at once and the per-attach ancestor walk stops at the sealed
    /// boundary. Transactions that reach into the cone *without* approving
    /// the anchor ("strays") fall back to an exact per-entry walk inside
    /// the sealed region.
    anchor_slot: Option<u32>,
    /// Number of sealed entries.
    sealed_count: usize,
    /// Pass-through counter: how many attaches approved the anchor since
    /// the sealed region formed (reset when it is folded back). A sealed
    /// slot stores its weight minus this.
    seal_pass: u64,
    /// Current tips (attached, not yet approved), ordered for determinism.
    pub(crate) tips: BTreeSet<TxId>,
    /// First-seen valid spend per token.
    spends: HashMap<[u8; 32], TxId>,
    pub(crate) genesis: Option<TxId>,
    /// Slots of the pending (unconfirmed) entries, in no particular order.
    /// Keeps [`Tangle::confirm_with_threshold`] O(pending) instead of
    /// O(stored) at 4 bytes an entry. A pending entry is never sealed.
    pending: Vec<u32>,
    /// Monotone seal/pass/stray counters for [`Tangle::seal_stats`].
    seals_total: u64,
    passes_total: u64,
    strays_total: u64,
    /// Parent links, weights and sealed flags of every stored entry, by
    /// slot; its id column is the attach order.
    pub(crate) slots: SlotIndex,
}

impl Tangle {
    /// Creates an empty tangle (no genesis yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a genesis transaction issued by `issuer` at `now_ms` and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a genesis is already present.
    pub fn attach_genesis(&mut self, issuer: crate::tx::NodeId, now_ms: u64) -> TxId {
        assert!(self.genesis.is_none(), "genesis already attached");
        let tx = crate::tx::TransactionBuilder::new(issuer)
            .timestamp_ms(now_ms)
            .payload(Payload::Data(b"genesis".to_vec()))
            .build();
        let id = tx.id();
        let slot = self.slots.alloc(id, [NO_SLOT; 2], 1);
        self.entries.insert(
            id,
            Box::new(Entry {
                tx: Arc::new(tx),
                approvers: Vec::new(),
                attach_time_ms: now_ms,
                status: TxStatus::Confirmed,
                slot,
            }),
        );
        self.tips.insert(id);
        self.genesis = Some(id);
        id
    }

    /// Looks up a stored entry.
    pub(crate) fn entry(&self, id: &TxId) -> Option<&Entry> {
        self.entries.get(id).map(|e| &**e)
    }

    /// The genesis id, if one was attached.
    pub fn genesis(&self) -> Option<TxId> {
        self.genesis
    }

    /// Validates and attaches `tx`, returning its id.
    ///
    /// On success the transaction becomes a tip and its parents stop being
    /// tips. Pass an [`IdentifiedTx`] to reuse the id its holder already
    /// derived and share its body (see [`Tangle::get_identified`]); a plain
    /// `Transaction` or `Arc<Transaction>` is hashed here.
    ///
    /// # Errors
    ///
    /// * [`TangleError::Duplicate`] — id already attached.
    /// * [`TangleError::UnknownParent`] — a parent is not attached.
    /// * [`TangleError::InvalidGenesisReference`] — parents are the zero id
    ///   but a genesis already exists.
    /// * [`TangleError::DoubleSpend`] — payload re-spends a token; the
    ///   transaction is **not** stored, matching the paper's "detected and
    ///   canceled" semantics. The caller can feed the error into the credit
    ///   punisher.
    pub fn attach(
        &mut self,
        tx: impl Into<IdentifiedTx>,
        now_ms: u64,
    ) -> Result<TxId, TangleError> {
        let (id, tx) = tx.into().into_parts();
        if self.entry(&id).is_some() {
            return Err(TangleError::Duplicate(id));
        }
        for parent in tx.parents() {
            if parent == TxId::GENESIS_PARENT {
                return Err(TangleError::InvalidGenesisReference(id));
            }
            if self.entry(&parent).is_none() {
                return Err(TangleError::UnknownParent { tx: id, parent });
            }
        }
        if let Payload::Spend { token, .. } = &tx.payload {
            if let Some(&original) = self.spends.get(token) {
                return Err(TangleError::DoubleSpend {
                    tx: id,
                    original,
                    token: *token,
                });
            }
            self.spends.insert(*token, id);
        }
        let parents = tx.parents();
        // The parents' slots; a repeated parent counts once, so its second
        // link stays NO_SLOT.
        let mut parent_slots = [NO_SLOT; 2];
        for (i, parent) in parents.iter().enumerate() {
            if i == 1 && parents[1] == parents[0] {
                continue;
            }
            let entry = self.entries.get_mut(parent).expect("parents checked above");
            push_approver(entry, id);
            parent_slots[i] = entry.slot;
            self.tips.remove(parent);
        }
        let slot = self.slots.alloc(id, parent_slots, 1);
        self.entries.insert(
            id,
            Box::new(Entry {
                tx,
                approvers: Vec::new(),
                attach_time_ms: now_ms,
                status: TxStatus::Pending,
                slot,
            }),
        );
        self.pending.push(slot);
        self.bump_ancestor_weights(parent_slots);
        self.tips.insert(id);
        Ok(id)
    }

    /// Adds the just-attached transaction to the weight of every distinct
    /// stored ancestor (distinct approver semantics: a diamond-shaped cone
    /// still counts the new approver exactly once per ancestor). The walk
    /// runs over the [`SlotIndex`] from the new transaction's parent slots.
    ///
    /// The walk also terminates at the **sealed boundary**: sealed parents
    /// are collected instead of followed. If the anchor itself is on the
    /// boundary, the new transaction approves the anchor and therefore the
    /// anchor's *entire* cone — exactly the sealed set — so a single
    /// `seal_pass` increment absorbs the bump for every sealed entry and the
    /// walk stays O(frontier cone). Otherwise ("stray") an exact fallback
    /// walk bumps the reachable sealed entries individually.
    fn bump_ancestor_weights(&mut self, parents: [u32; 2]) {
        let boundary = self.slots.bump_frontier_cone(parents);
        if boundary.is_empty() {
            return;
        }
        let anchor = self.anchor_slot.expect("non-empty boundary implies a sealed region");
        if boundary.contains(&anchor) {
            // Pass-through: the new tx approves the anchor, hence every
            // sealed entry. One counter bump covers the whole cone.
            self.seal_pass += 1;
            self.passes_total += 1;
        } else {
            // Stray: bump exactly the sealed ancestors reachable from the
            // boundary.
            self.strays_total += 1;
            self.slots.bump_sealed_cone();
        }
    }

    /// Returns the current tips in deterministic (id) order.
    ///
    /// Allocates a fresh `Vec`; hot paths should prefer the borrowing
    /// [`Tangle::tips_set`] or [`Tangle::tips_iter`].
    pub fn tips(&self) -> Vec<TxId> {
        self.tips.iter().copied().collect()
    }

    /// Borrows the current tip set in deterministic (id) order — the
    /// allocation-free counterpart of [`Tangle::tips`].
    pub fn tips_set(&self) -> &BTreeSet<TxId> {
        &self.tips
    }

    /// Iterates the current tips in deterministic (id) order without
    /// allocating.
    pub fn tips_iter(&self) -> impl Iterator<Item = TxId> + '_ {
        self.tips.iter().copied()
    }

    /// Number of current tips.
    pub fn tip_count(&self) -> usize {
        self.tips.len()
    }

    /// Looks up a transaction.
    pub fn get(&self, id: &TxId) -> Option<&Transaction> {
        self.entry(id).map(|e| &*e.tx)
    }

    /// Looks up a transaction as a shared handle on the stored body,
    /// paired with its id: hand it to another tangle's [`Tangle::attach`]
    /// (or any other holder) and both keep one copy, hashed once.
    pub fn get_identified(&self, id: &TxId) -> Option<IdentifiedTx> {
        self.entry(id)
            .map(|e| IdentifiedTx::stored(*id, Arc::clone(&e.tx)))
    }

    /// Returns true if `id` is attached.
    pub fn contains(&self, id: &TxId) -> bool {
        self.entry(id).is_some()
    }

    /// Returns the status of an attached transaction.
    pub fn status(&self, id: &TxId) -> Option<TxStatus> {
        self.entry(id).map(|e| e.status)
    }

    /// Virtual time at which `id` was attached.
    pub fn attach_time_ms(&self, id: &TxId) -> Option<u64> {
        self.entry(id).map(|e| e.attach_time_ms)
    }

    /// Attach sequence number of `id`: its position in
    /// [`Tangle::attach_order`] (true arrival order, even among
    /// transactions sharing an attach instant).
    pub fn attach_seq(&self, id: &TxId) -> Option<u64> {
        self.entry(id).map(|e| u64::from(e.slot))
    }

    /// Every stored id in attach order, oldest first: the slot index's id
    /// column, which [`Tangle::attach`] appends to.
    pub fn attach_order(&self) -> &[TxId] {
        self.slots.ids()
    }

    /// The `window` most recently attached transactions that already have
    /// at least one approver (i.e. non-tips), in attach order (oldest of
    /// the window first).
    ///
    /// This is the candidate pool for depth-constrained walk starts (tips
    /// cannot start a walk — it would terminate immediately). Costs
    /// O(window + skipped tips): the attach order is scanned from its
    /// newest end, so the full collect-and-sort over the tangle that this
    /// replaces never happens.
    pub fn recent_non_tips(&self, window: usize) -> Vec<TxId> {
        let mut picked: Vec<TxId> = self
            .attach_order()
            .iter()
            .rev()
            .filter(|id| !self.approvers(id).is_empty())
            .take(window)
            .copied()
            .collect();
        picked.reverse(); // oldest of the window first
        picked
    }

    /// Direct approvers of `id` (transactions that chose it as a parent).
    pub fn approvers(&self, id: &TxId) -> &[TxId] {
        self.entry(id).map(|e| e.approvers.as_slice()).unwrap_or(&[])
    }

    /// Number of transactions attached, the genesis included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all stored transactions in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.entries.values().map(|e| &*e.tx)
    }

    /// The cumulative weight of `id`: 1 (own weight) plus the number of
    /// distinct transactions that directly or indirectly approve it (paper
    /// §II-B: "proportional to the number of validations").
    ///
    /// O(1): reads the weight index maintained by [`Tangle::attach`]. The
    /// breadth-first recount it replaced survives as
    /// [`Tangle::cumulative_weight_recount`], the oracle the index is
    /// checked against.
    ///
    /// Returns 0 for unknown ids.
    pub fn cumulative_weight(&self, id: &TxId) -> u64 {
        self.entry(id).map_or(0, |e| self.slots.weight(e.slot, self.seal_pass))
    }

    /// Recounts the cumulative weight of `id` by breadth-first traversal of
    /// the approver edges — the reference implementation for the O(1) index
    /// behind [`Tangle::cumulative_weight`]. Kept public (but hidden) so
    /// benchmarks and randomized tests can compare the two.
    ///
    /// Returns 0 for unknown ids.
    #[doc(hidden)]
    pub fn cumulative_weight_recount(&self, id: &TxId) -> u64 {
        if self.entry(id).is_none() {
            return 0;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(*id);
        seen.insert(*id);
        while let Some(cur) = queue.pop_front() {
            if let Some(entry) = self.entry(&cur) {
                for &a in &entry.approvers {
                    if seen.insert(a) {
                        queue.push_back(a);
                    }
                }
            }
        }
        seen.len() as u64
    }

    /// Marks every pending transaction whose cumulative weight reaches
    /// `threshold` as confirmed; returns the newly confirmed ids.
    ///
    /// This is the asynchronous analogue of bitcoin's six-block rule the
    /// paper mentions: weight accumulates as later transactions approve.
    /// A single scan over the **pending index** — O(pending), not
    /// O(stored), and sealed entries (always confirmed) are never touched.
    /// The ids come back in ascending id order.
    pub fn confirm_with_threshold(&mut self, threshold: u64) -> Vec<TxId> {
        let mut confirmed = Vec::new();
        let (slots, pass) = (&self.slots, self.seal_pass);
        self.pending.retain(|&slot| {
            let reached = slots.weight(slot, pass) >= threshold;
            if reached {
                confirmed.push(*slots.id(slot));
            }
            !reached
        });
        for id in &confirmed {
            if let Some(entry) = self.entries.get_mut(id) {
                entry.status = TxStatus::Confirmed;
            }
        }
        confirmed.sort_unstable();
        confirmed
    }

    /// Returns true if `ancestor` is reachable from `descendant` by
    /// following parent links (i.e. `descendant` approves `ancestor`
    /// directly or indirectly).
    pub fn approves(&self, descendant: &TxId, ancestor: &TxId) -> bool {
        if descendant == ancestor {
            return false;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(*descendant);
        while let Some(cur) = queue.pop_front() {
            if let Some(entry) = self.entry(&cur) {
                for p in entry.tx.parents() {
                    if p == *ancestor {
                        return true;
                    }
                    if seen.insert(p) {
                        queue.push_back(p);
                    }
                }
            }
        }
        false
    }

    /// All ancestors of `id` (transactions it approves), breadth-first.
    pub fn ancestors(&self, id: &TxId) -> Vec<TxId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(*id);
        while let Some(cur) = queue.pop_front() {
            if let Some(entry) = self.entry(&cur) {
                for p in entry.tx.parents() {
                    if p != TxId::GENESIS_PARENT && seen.insert(p) {
                        out.push(p);
                        queue.push_back(p);
                    }
                }
            }
        }
        out
    }

    /// Who spent `token`, if anyone.
    pub fn spender_of(&self, token: &[u8; 32]) -> Option<TxId> {
        self.spends.get(token).copied()
    }

    /// Restores confirmation flags (snapshot restore only).
    pub(crate) fn force_confirm(&mut self, ids: impl IntoIterator<Item = TxId>) {
        for id in ids {
            if let Some(e) = self.entries.get_mut(&id) {
                if e.status == TxStatus::Pending {
                    e.status = TxStatus::Confirmed;
                    // Restore confirms each row right after attaching it,
                    // so its slot is found at the end of the list.
                    let at = self.pending.iter().rposition(|&s| s == e.slot);
                    self.pending.swap_remove(at.expect("a pending entry is listed"));
                }
            }
        }
    }

    // ----- sealed-cone weight index ------------------------------------

    /// Seals the confirmed cone of `anchor`: marks the anchor and every
    /// stored ancestor of it sealed, turning each one's weight into an
    /// offset against the pass counter. Subsequent attaches that approve
    /// the anchor bump that one counter instead of walking the cone, so the
    /// per-attach ancestor walk is bounded by the frontier size. Returns
    /// how many entries were sealed.
    ///
    /// Requirements (checked): the anchor and its whole stored cone are
    /// confirmed, and — when a sealed region already exists — the new
    /// anchor approves the current one (otherwise the pass counter would
    /// under-count the old cone). Sealing to the current anchor is a no-op
    /// returning `Ok(0)`.
    ///
    /// # Errors
    ///
    /// See [`SealError`].
    pub fn seal_to(&mut self, anchor: TxId) -> Result<usize, SealError> {
        let old_anchor = self.seal_anchor();
        if old_anchor == Some(anchor) {
            return Ok(0);
        }
        match self.entry(&anchor) {
            None => return Err(SealError::UnknownAnchor(anchor)),
            Some(e) if self.slots.is_sealed(e.slot) => {
                return Err(SealError::AlreadySealed(anchor))
            }
            Some(e) if e.status != TxStatus::Confirmed => {
                return Err(SealError::NotConfirmed(anchor))
            }
            Some(_) => {}
        }
        // Walk the anchor's cone through the frontier. Sealed parents stop
        // the walk: the old sealed set is entirely inside the new cone as
        // long as the new anchor approves the old one, which we verify by
        // watching for the old anchor among the boundary hits (any path
        // from the new anchor to the old one travels through frontier
        // entries only, so the walk cannot miss it).
        let mut saw_old_anchor = old_anchor.is_none();
        let mut cone: Vec<u32> = Vec::new();
        let mut seen: HashSet<TxId> = HashSet::new();
        let mut queue: VecDeque<TxId> = VecDeque::new();
        seen.insert(anchor);
        queue.push_back(anchor);
        while let Some(cur) = queue.pop_front() {
            let entry = self.entry(&cur).expect("cone walk stays in frontier");
            if entry.status != TxStatus::Confirmed {
                return Err(SealError::UnconfirmedCone(cur));
            }
            cone.push(entry.slot);
            for p in entry.tx.parents() {
                if p == TxId::GENESIS_PARENT || !seen.insert(p) {
                    continue;
                }
                let parent = self.entry(&p).expect("parents are stored");
                if self.slots.is_sealed(parent.slot) {
                    // Sealed parent: boundary of the walk.
                    saw_old_anchor |= old_anchor == Some(p);
                } else {
                    queue.push_back(p);
                }
            }
        }
        if !saw_old_anchor {
            return Err(SealError::DoesNotApproveAnchor {
                candidate: anchor,
                anchor: old_anchor.expect("saw_old_anchor starts true without a sealed region"),
            });
        }
        // Commit: offset each cone weight by the current pass counter so
        // effective weights are continuous across the seal.
        for &slot in &cone {
            self.slots.seal(slot, self.seal_pass);
        }
        self.anchor_slot = Some(cone[0]);
        self.sealed_count += cone.len();
        self.seals_total += 1;
        Ok(cone.len())
    }

    /// Picks a seal anchor automatically: the entry `lag` positions back in
    /// the attach order, backing off exponentially deeper while the
    /// candidate is unsealable (a tip, unconfirmed, has unconfirmed cone
    /// members, or does not approve the current anchor). Returns the new
    /// anchor if a seal happened.
    ///
    /// Call this on the confirmation cadence (e.g. from the gateway's
    /// `refresh`): each successful seal re-bounds the attach walk to the
    /// entries attached since the previous anchor.
    pub fn seal_frontier(&mut self, lag: usize) -> Option<TxId> {
        let len = self.len();
        let mut depth = lag.max(1);
        loop {
            if depth + 1 > len {
                return None;
            }
            let idx = len - depth - 1;
            let candidate = self.attach_order()[idx];
            let viable = self.entry(&candidate).is_some_and(|e| {
                e.status == TxStatus::Confirmed && !self.slots.is_sealed(e.slot)
            }) && !self.tips.contains(&candidate);
            if viable && self.seal_to(candidate).is_ok() {
                return Some(candidate);
            }
            if idx == 0 {
                return None;
            }
            depth *= 2;
        }
    }

    /// Folds every sealed entry back into the frontier, materialising its
    /// effective weight, and drops the anchor. After this the tangle
    /// behaves exactly like the never-sealed index (the baseline that
    /// benchmarks and equivalence tests compare sealing against).
    pub fn unseal_all(&mut self) {
        if self.anchor_slot.take().is_some() {
            self.slots.unseal_all(self.seal_pass);
        }
        self.sealed_count = 0;
        self.seal_pass = 0;
    }

    /// Number of sealed entries.
    pub fn sealed_len(&self) -> usize {
        self.sealed_count
    }

    /// Number of frontier (unsealed) entries.
    pub fn frontier_len(&self) -> usize {
        self.entries.len() - self.sealed_count
    }

    /// The current seal anchor, if a sealed region exists.
    pub fn seal_anchor(&self) -> Option<TxId> {
        self.anchor_slot.map(|slot| *self.slots.id(slot))
    }

    /// Returns true if `id` is inside the sealed region.
    pub fn is_sealed(&self, id: &TxId) -> bool {
        self.entry(id).is_some_and(|e| self.slots.is_sealed(e.slot))
    }

    /// Monotone counters describing the sealed index's behaviour.
    pub fn seal_stats(&self) -> SealStats {
        SealStats {
            seals: self.seals_total,
            passes: self.passes_total,
            strays: self.strays_total,
            sealed_len: self.sealed_len(),
            frontier_len: self.frontier_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{NodeId, TransactionBuilder};

    fn node(n: u8) -> NodeId {
        NodeId([n; 32])
    }

    /// Builds a tangle with a genesis and returns (tangle, genesis id).
    fn with_genesis() -> (Tangle, TxId) {
        let mut t = Tangle::new();
        let g = t.attach_genesis(node(0), 0);
        (t, g)
    }

    fn data_tx(issuer: u8, trunk: TxId, branch: TxId, ts: u64) -> Transaction {
        TransactionBuilder::new(node(issuer))
            .parents(trunk, branch)
            .payload(Payload::Data(format!("d{issuer}-{ts}").into_bytes()))
            .timestamp_ms(ts)
            .build()
    }

    #[test]
    fn genesis_is_confirmed_tip() {
        let (t, g) = with_genesis();
        assert_eq!(t.status(&g), Some(TxStatus::Confirmed));
        assert_eq!(t.tips(), vec![g]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.genesis(), Some(g));
    }

    #[test]
    #[should_panic]
    fn double_genesis_panics() {
        let (mut t, _) = with_genesis();
        t.attach_genesis(node(1), 1);
    }

    #[test]
    fn attach_moves_tip() {
        let (mut t, g) = with_genesis();
        let id = t.attach(data_tx(1, g, g, 10), 10).unwrap();
        assert_eq!(t.tips(), vec![id]);
        assert_eq!(t.approvers(&g), &[id]);
        assert_eq!(t.entry(&g).unwrap().approvers.capacity(), 2, "room for two, no more");
        assert_eq!(t.status(&id), Some(TxStatus::Pending));
        assert_eq!(t.len(), 2);
        assert_eq!(t.attach_seq(&id), Some(1));
    }

    #[test]
    fn duplicate_rejected() {
        let (mut t, g) = with_genesis();
        let tx = data_tx(1, g, g, 10);
        let id = t.attach(tx.clone(), 10).unwrap();
        assert_eq!(t.attach(tx, 11), Err(TangleError::Duplicate(id)));
    }

    #[test]
    fn unknown_parent_rejected() {
        let (mut t, g) = with_genesis();
        let phantom = TxId([0xEE; 32]);
        let tx = data_tx(1, g, phantom, 10);
        let id = tx.id();
        assert_eq!(
            t.attach(tx, 10),
            Err(TangleError::UnknownParent { tx: id, parent: phantom })
        );
        assert!(!t.contains(&id));
    }

    #[test]
    fn genesis_parent_reference_rejected_after_genesis() {
        let (mut t, _) = with_genesis();
        let tx = TransactionBuilder::new(node(1))
            .payload(Payload::Data(b"fake genesis".to_vec()))
            .timestamp_ms(5)
            .build();
        let id = tx.id();
        assert_eq!(t.attach(tx, 5), Err(TangleError::InvalidGenesisReference(id)));
    }

    #[test]
    fn double_spend_detected_and_cancelled() {
        let (mut t, g) = with_genesis();
        let token = [0x77; 32];
        let spend1 = TransactionBuilder::new(node(1))
            .parents(g, g)
            .payload(Payload::Spend { token, to: node(2) })
            .timestamp_ms(10)
            .build();
        let id1 = t.attach(spend1, 10).unwrap();
        let spend2 = TransactionBuilder::new(node(3))
            .parents(id1, id1)
            .payload(Payload::Spend { token, to: node(3) })
            .timestamp_ms(20)
            .build();
        let id2 = spend2.id();
        assert_eq!(
            t.attach(spend2, 20),
            Err(TangleError::DoubleSpend { tx: id2, original: id1, token })
        );
        assert!(!t.contains(&id2));
        assert_eq!(t.spender_of(&token), Some(id1));
        // Different token is fine.
        let other = TransactionBuilder::new(node(3))
            .parents(id1, id1)
            .payload(Payload::Spend { token: [0x78; 32], to: node(3) })
            .timestamp_ms(21)
            .build();
        assert!(t.attach(other, 21).is_ok());
    }

    #[test]
    fn cumulative_weight_counts_distinct_approvers() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let b = t.attach(data_tx(2, a, a, 2), 2).unwrap();
        let c = t.attach(data_tx(3, a, b, 3), 3).unwrap();
        // a is approved by b and c; weight = own(1) + {b, c} = 3.
        assert_eq!(t.cumulative_weight(&a), 3);
        assert_eq!(t.cumulative_weight(&b), 2);
        assert_eq!(t.cumulative_weight(&c), 1);
        assert_eq!(t.cumulative_weight(&g), 4);
        assert_eq!(t.cumulative_weight(&TxId([9; 32])), 0);
    }

    #[test]
    fn confirmation_threshold() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        assert!(t.confirm_with_threshold(3).is_empty());
        let b = t.attach(data_tx(2, a, a, 2), 2).unwrap();
        let _c = t.attach(data_tx(3, a, b, 3), 3).unwrap();
        let confirmed = t.confirm_with_threshold(3);
        assert_eq!(confirmed, vec![a]);
        assert_eq!(t.status(&a), Some(TxStatus::Confirmed));
        assert_eq!(t.status(&b), Some(TxStatus::Pending));
    }

    /// Attaches `n` transactions, each approving the one before (`prev`
    /// first), at instants `from_ms + 1 ..`; returns their ids in attach
    /// order.
    fn chain(t: &mut Tangle, mut prev: TxId, n: u8, from_ms: u64) -> Vec<TxId> {
        (1..=n)
            .map(|k| {
                let at = from_ms + u64::from(k);
                prev = t.attach(data_tx(k, prev, prev, at), at).unwrap();
                prev
            })
            .collect()
    }

    fn sorted(ids: &[TxId]) -> Vec<TxId> {
        let mut ids = ids.to_vec();
        ids.sort();
        ids
    }

    #[test]
    fn confirmations_come_back_in_ascending_id_order() {
        // Attach order differs from id order.
        let (mut t, g) = with_genesis();
        let first = chain(&mut t, g, 12, 0);
        assert_ne!(first, sorted(&first), "attach order must differ from id order");
        // Weights fall 12..1 along the chain: all but the last reach 2.
        assert_eq!(t.confirm_with_threshold(2), sorted(&first[..11]));

        // A second round confirms its own entries plus the last of the
        // first, still in id order.
        let second = chain(&mut t, first[11], 6, 100);
        let mut expect = second[..5].to_vec();
        expect.push(first[11]);
        assert_eq!(t.confirm_with_threshold(2), sorted(&expect));

        // A restore confirms rows one at a time as it re-attaches them; the
        // rows still pending confirm afterwards, again in id order.
        let third = chain(&mut t, second[5], 4, 200);
        let mut t = crate::snapshot::TangleSnapshot::capture(&t).restore().unwrap();
        let mut expect = third[..3].to_vec();
        expect.push(second[5]);
        assert_eq!(t.confirm_with_threshold(2), sorted(&expect));
        assert_eq!(t.status(&third[3]), Some(TxStatus::Pending));
        assert_eq!(t.confirm_with_threshold(1), vec![third[3]]);
        assert!(t.confirm_with_threshold(1).is_empty(), "the pending list is drained");
    }

    #[test]
    fn get_identified_hands_out_the_stored_body() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let stored = t.get_identified(&a).unwrap();
        assert_eq!(stored.id(), a);
        let (_, body) = stored.clone().into_parts();
        let mut replica = Tangle::new();
        replica.attach_genesis(node(0), 0);
        assert_eq!(replica.attach(stored, 1), Ok(a));
        let (_, copy) = replica.get_identified(&a).unwrap().into_parts();
        assert!(Arc::ptr_eq(&copy, &body), "one body, two tangles");
        assert!(t.get_identified(&TxId([9; 32])).is_none());
    }

    #[test]
    fn approves_relation() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let b = t.attach(data_tx(2, a, a, 2), 2).unwrap();
        assert!(t.approves(&b, &a));
        assert!(t.approves(&b, &g));
        assert!(!t.approves(&a, &b));
        assert!(!t.approves(&a, &a));
    }

    #[test]
    fn ancestors_bfs() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let b = t.attach(data_tx(2, a, g, 2), 2).unwrap();
        let anc = t.ancestors(&b);
        assert!(anc.contains(&a));
        assert!(anc.contains(&g));
        assert_eq!(anc.len(), 2);
    }

    #[test]
    fn tips_are_deterministically_ordered() {
        let (mut t, g) = with_genesis();
        let mut ids = Vec::new();
        for i in 1..=5 {
            ids.push(t.attach(data_tx(i, g, g, i as u64), i as u64).unwrap());
        }
        // g is no longer a tip, all five children are.
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(t.tips(), sorted);
        assert_eq!(t.tip_count(), 5);
    }

    #[test]
    fn iter_and_len() {
        let (mut t, g) = with_genesis();
        t.attach(data_tx(1, g, g, 1), 1).unwrap();
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(Tangle::new().is_empty());
    }

    /// Brute-force reference for [`Tangle::recent_non_tips`]: collect all
    /// stored non-tips, sort by attach sequence, take the last `window`.
    fn recent_non_tips_recount(t: &Tangle, window: usize) -> Vec<TxId> {
        let mut recent: Vec<(u64, TxId)> = t
            .iter()
            .map(|tx| tx.id())
            .filter(|id| !t.approvers(id).is_empty())
            .map(|id| (t.attach_seq(&id).unwrap(), id))
            .collect();
        recent.sort();
        let window = window.min(recent.len());
        recent[recent.len() - window..]
            .iter()
            .map(|(_, id)| *id)
            .collect()
    }

    #[test]
    fn recency_index_tracks_attach_order() {
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let b = t.attach(data_tx(2, a, g, 2), 2).unwrap();
        let c = t.attach(data_tx(3, b, b, 3), 3).unwrap();
        assert_eq!(t.attach_order(), &[g, a, b, c]);
        // g, a and b have approvers; the window clips to the newest two.
        assert_eq!(t.recent_non_tips(10), vec![g, a, b]);
        assert_eq!(t.recent_non_tips(2), vec![a, b]);
        assert_eq!(t.recent_non_tips(0), Vec::<TxId>::new());
    }

    #[test]
    fn recency_index_survives_snapshot() {
        // A snapshot restore re-attaches rows in attach order, so the
        // attach order, and every attach sequence number, comes back.
        let (mut t, g) = with_genesis();
        let a = t.attach(data_tx(1, g, g, 1), 1).unwrap();
        let b = t.attach(data_tx(2, a, a, 2), 2).unwrap();
        let c = t.attach(data_tx(3, b, b, 3), 3).unwrap();
        t.confirm_with_threshold(2); // confirms a and b
        let mut t = crate::snapshot::TangleSnapshot::capture(&t).restore().unwrap();
        assert_eq!(t.attach_order(), &[g, a, b, c]);
        assert_eq!(t.attach_seq(&c), Some(3));
        let d = t.attach(data_tx(4, b, c, 4), 4).unwrap();
        assert_eq!(t.attach_order(), &[g, a, b, c, d]);
        assert_eq!(t.attach_seq(&d), Some(4));
        assert_eq!(t.recent_non_tips(2), vec![b, c]);
    }

    #[test]
    fn recent_non_tips_matches_recount_on_random_dags() {
        use rand::SeedableRng;
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut t, _g) = with_genesis();
            let mut clock = 0u64;
            for round in 0..3 {
                grow_random(&mut t, &mut rng, 50, clock);
                clock += 51;
                for window in [1usize, 4, 16, 1000] {
                    assert_eq!(
                        t.recent_non_tips(window),
                        recent_non_tips_recount(&t, window),
                        "seed {seed} round {round} window {window}"
                    );
                }
                t.confirm_with_threshold(4);
                if round % 2 == 1 {
                    t.seal_frontier(8);
                    assert_eq!(t.recent_non_tips(16), recent_non_tips_recount(&t, 16));
                }
            }
        }
    }

    /// Every stored id's indexed weight must equal the BFS recount.
    fn assert_index_matches_oracle(t: &Tangle) {
        for tx in t.iter() {
            let id = tx.id();
            assert_eq!(
                t.cumulative_weight(&id),
                t.cumulative_weight_recount(&id),
                "weight index diverged from BFS oracle for {id:?}"
            );
        }
    }

    /// Grows a random DAG, checking the index against the oracle as it goes.
    fn grow_random(t: &mut Tangle, rng: &mut rand::rngs::StdRng, n: usize, t0: u64) {
        use rand::Rng;
        for i in 0..n {
            let tips = t.tips();
            let a = tips[rng.gen_range(0..tips.len())];
            // Sometimes approve a random stored entry instead of a second
            // tip, and sometimes reuse the same parent twice.
            let b = match rng.gen_range(0..3u32) {
                0 => a,
                1 => tips[rng.gen_range(0..tips.len())],
                _ => {
                    let all: Vec<TxId> = t.iter().map(|tx| tx.id()).collect();
                    all[rng.gen_range(0..all.len())]
                }
            };
            let ts = t0 + i as u64 + 1;
            let tx = TransactionBuilder::new(node((i % 251) as u8))
                .parents(a, b)
                .payload(Payload::Data(ts.to_be_bytes().to_vec()))
                .timestamp_ms(ts)
                .build();
            t.attach(tx, ts).unwrap();
        }
    }

    #[test]
    fn weight_index_matches_bfs_oracle_on_random_dags() {
        use rand::SeedableRng;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut t, g) = with_genesis();
            grow_random(&mut t, &mut rng, 120, 0);
            assert_index_matches_oracle(&t);
            assert_eq!(t.cumulative_weight(&g), t.len() as u64);
        }
    }

    #[test]
    fn weight_index_survives_confirm_and_snapshot_cycles() {
        use rand::SeedableRng;
        for seed in 100..106u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut t, _g) = with_genesis();
            let mut clock = 0u64;
            for round in 0..4 {
                grow_random(&mut t, &mut rng, 40, clock);
                clock += 41;
                t.confirm_with_threshold(4);
                assert_index_matches_oracle(&t);
                if round % 2 == 1 {
                    // A restored tangle rebuilds the index row by row.
                    t = crate::snapshot::TangleSnapshot::capture(&t).restore().unwrap();
                    assert_index_matches_oracle(&t);
                }
            }
        }
    }

    #[test]
    fn confirmation_matches_oracle_thresholds() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (mut t, _g) = with_genesis();
        grow_random(&mut t, &mut rng, 80, 0);
        let confirmed = t.confirm_with_threshold(5);
        for tx in t.iter() {
            let id = tx.id();
            let should = t.cumulative_weight_recount(&id) >= 5;
            if confirmed.contains(&id) {
                assert!(should, "{id:?} confirmed below threshold");
            }
            if should {
                assert_eq!(t.status(&id), Some(TxStatus::Confirmed));
            }
        }
    }

    /// Grows a linear chain of `n` transactions off `from`, returning ids.
    fn grow_chain(t: &mut Tangle, from: TxId, n: usize, t0: u64) -> Vec<TxId> {
        let mut prev = from;
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let ts = t0 + i as u64 + 1;
            prev = t.attach(data_tx((i % 251) as u8, prev, prev, ts), ts).unwrap();
            ids.push(prev);
        }
        ids
    }

    #[test]
    fn sealing_absorbs_pass_through_attaches() {
        let (mut t, g) = with_genesis();
        let mut ids = vec![g];
        ids.extend(grow_chain(&mut t, g, 30, 0));
        t.confirm_with_threshold(3);
        let anchor = ids[20];
        assert_eq!(t.status(&anchor), Some(TxStatus::Confirmed));
        assert_eq!(t.seal_to(anchor), Ok(21), "genesis..=ids[20]");
        assert_eq!(t.sealed_len(), 21);
        assert_eq!(t.seal_anchor(), Some(anchor));
        assert!(t.is_sealed(&g) && t.is_sealed(&anchor) && !t.is_sealed(&ids[25]));
        // Re-sealing to the same anchor is a no-op.
        assert_eq!(t.seal_to(anchor), Ok(0));
        // Chain extensions approve the anchor: pure pass-through.
        grow_chain(&mut t, *ids.last().unwrap(), 10, 100);
        let stats = t.seal_stats();
        assert_eq!(stats.passes, 10);
        assert_eq!(stats.strays, 0);
        assert_index_matches_oracle(&t);
        assert_eq!(t.cumulative_weight(&g), t.len() as u64);
    }

    #[test]
    fn stray_attach_into_sealed_cone_is_exact() {
        let (mut t, g) = with_genesis();
        let mut ids = vec![g];
        ids.extend(grow_chain(&mut t, g, 12, 0));
        t.confirm_with_threshold(3);
        t.seal_to(ids[8]).unwrap();
        // Approve only deep sealed entries: anchor not on the boundary.
        let stray = t.attach(data_tx(9, ids[3], ids[5], 50), 50).unwrap();
        assert_eq!(t.seal_stats().strays, 1);
        assert_eq!(t.seal_stats().passes, 0);
        assert!(t.tips().contains(&stray));
        assert_index_matches_oracle(&t);
        // A mixed attach (one sealed parent + the chain tip whose cone
        // reaches the anchor) is a pass: it approves the anchor through
        // the chain.
        t.attach(data_tx(10, ids[12], ids[2], 51), 51).unwrap();
        assert_eq!(t.seal_stats().passes, 1);
        assert_index_matches_oracle(&t);
    }

    #[test]
    fn seal_to_rejects_bad_anchors() {
        let (mut t, g) = with_genesis();
        let ids = grow_chain(&mut t, g, 10, 0);
        // Pending anchor.
        assert_eq!(t.seal_to(ids[9]), Err(SealError::NotConfirmed(ids[9])));
        // Unknown anchor.
        let ghost = TxId([0xAB; 32]);
        assert_eq!(t.seal_to(ghost), Err(SealError::UnknownAnchor(ghost)));
        t.confirm_with_threshold(3);
        t.seal_to(ids[5]).unwrap();
        // Anchor already inside the sealed cone.
        assert_eq!(t.seal_to(ids[2]), Err(SealError::AlreadySealed(ids[2])));
        // A side branch off the (sealed) genesis never approves the anchor.
        let side = t.attach(data_tx(7, ids[1], ids[1], 40), 40).unwrap();
        let side2 = t.attach(data_tx(8, side, side, 41), 41).unwrap();
        let _side3 = t.attach(data_tx(9, side2, side2, 42), 42).unwrap();
        t.confirm_with_threshold(2);
        assert_eq!(
            t.seal_to(side),
            Err(SealError::DoesNotApproveAnchor { candidate: side, anchor: ids[5] })
        );
        assert_index_matches_oracle(&t);
    }

    #[test]
    fn unseal_all_folds_effective_weights() {
        let (mut t, g) = with_genesis();
        let ids = grow_chain(&mut t, g, 25, 0);
        t.confirm_with_threshold(3);
        t.seal_to(ids[15]).unwrap();
        grow_chain(&mut t, ids[24], 5, 100); // accumulate passes
        let before: Vec<(TxId, u64)> = t
            .attach_order()
            .iter()
            .map(|id| (*id, t.cumulative_weight(id)))
            .collect();
        t.unseal_all();
        assert_eq!(t.sealed_len(), 0);
        assert_eq!(t.seal_anchor(), None);
        for (id, w) in before {
            assert_eq!(t.cumulative_weight(&id), w, "fold changed weight of {id:?}");
        }
        assert_index_matches_oracle(&t);
        // The unsealed tangle keeps working normally.
        let tip = *t.tips().last().unwrap();
        grow_chain(&mut t, tip, 3, 200);
        assert_index_matches_oracle(&t);
    }

    #[test]
    fn seal_frontier_advances_anchor_with_growth() {
        let (mut t, g) = with_genesis();
        let mut tip = g;
        for round in 0..6u64 {
            let ids = grow_chain(&mut t, tip, 20, round * 100);
            tip = *ids.last().unwrap();
            t.confirm_with_threshold(3);
            t.seal_frontier(4);
            assert_index_matches_oracle(&t);
        }
        let stats = t.seal_stats();
        assert!(stats.seals >= 2, "anchor advanced: {stats:?}");
        assert!(stats.sealed_len > 0);
        // Frontier stays bounded by the seal cadence, not total size.
        assert!(stats.frontier_len < 40, "frontier {} not bounded", stats.frontier_len);
    }

    #[test]
    fn sealed_clone_is_independent() {
        let (mut t, g) = with_genesis();
        let ids = grow_chain(&mut t, g, 15, 0);
        t.confirm_with_threshold(3);
        t.seal_to(ids[10]).unwrap();
        let frozen = t.clone();
        let w_before: Vec<u64> = ids.iter().map(|id| frozen.cumulative_weight(id)).collect();
        // Mutate the original: passes and a stray, which bumps sealed
        // slots of the original only.
        grow_chain(&mut t, ids[14], 5, 100);
        t.attach(data_tx(9, ids[2], ids[3], 200), 200).unwrap();
        assert_index_matches_oracle(&t);
        // The clone is untouched.
        let w_after: Vec<u64> = ids.iter().map(|id| frozen.cumulative_weight(id)).collect();
        assert_eq!(w_before, w_after);
        assert_index_matches_oracle(&frozen);
    }

    #[test]
    fn sealed_index_survives_random_cycles() {
        use rand::SeedableRng;
        for seed in 200..206u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut t, _g) = with_genesis();
            let mut clock = 0u64;
            for round in 0..5 {
                grow_random(&mut t, &mut rng, 40, clock);
                clock += 41;
                t.confirm_with_threshold(4);
                t.seal_frontier(8);
                assert_index_matches_oracle(&t);
                if round % 2 == 1 {
                    t = crate::snapshot::TangleSnapshot::capture(&t).restore().unwrap();
                    assert_index_matches_oracle(&t);
                }
            }
        }
    }

    #[test]
    fn tips_accessors_agree() {
        let (mut t, g) = with_genesis();
        grow_chain(&mut t, g, 5, 0);
        let vec = t.tips();
        let from_set: Vec<TxId> = t.tips_set().iter().copied().collect();
        let from_iter: Vec<TxId> = t.tips_iter().collect();
        assert_eq!(vec, from_set);
        assert_eq!(vec, from_iter);
        assert_eq!(t.tip_count(), vec.len());
    }
}
