//! Node roles (paper §IV-A): light nodes (sensors), gateways (full
//! nodes), and the manager.
//!
//! * **Light nodes** verify two tips, run the credit-based PoW at their
//!   assigned difficulty, sign, and submit transactions to a gateway.
//! * **Gateways** maintain the tangle, enforce the authorization list,
//!   verify PoW and signatures, detect misbehaviour, and keep the credit
//!   registry.
//! * **The manager** is a distinguished full node whose public key is
//!   pinned at genesis; it publishes the authorization list (Eqn 1) and
//!   runs the key-distribution protocol of Fig 4.

use crate::access::DataProtector;
use crate::authz::{build_auth_list, AuthRegistry};
use biot_credit::{CreditBreakdown, CreditEvent, CreditLedger, CreditParams, Misbehavior};
use crate::difficulty::DifficultyPolicy;
use crate::identity::Account;
use crate::keydist::{KeyDistConfig, ManagerSession, Message1, Message2, Message3};
use crate::pow::{meets, solve, Difficulty};
use crate::ratelimit::{RateLimitConfig, RateLimiter};
use biot_crypto::rsa::RsaPublicKey;
use biot_net::time::SimTime;
use biot_tangle::conflict::{LazyTipPolicy, LazyVerdict};
use biot_tangle::graph::{Tangle, TangleError};
use biot_tangle::tips::{SelectorConfig, TipSelector};
use biot_tangle::tx::{IdentifiedTx, NodeId, Payload, Transaction, TransactionBuilder, TxId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Why a gateway refused a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The issuer is not on the authorization list.
    Unauthorized(NodeId),
    /// The transaction signature failed against the registered public key.
    BadSignature(NodeId),
    /// The PoW nonce does not meet the issuer's current difficulty.
    InsufficientPow {
        /// Difficulty the issuer had to meet.
        required: Difficulty,
    },
    /// The issuer exceeded the gateway's per-device request rate.
    RateLimited(NodeId),
    /// The tangle rejected the transaction (double-spend, unknown parents…).
    Tangle(TangleError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Unauthorized(n) => write!(f, "device {n} is not authorized"),
            SubmitError::BadSignature(n) => write!(f, "bad signature from {n}"),
            SubmitError::InsufficientPow { required } => {
                write!(f, "proof-of-work below required difficulty {required}")
            }
            SubmitError::RateLimited(n) => write!(f, "device {n} exceeded the request rate"),
            SubmitError::Tangle(e) => write!(f, "ledger rejected transaction: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<TangleError> for SubmitError {
    fn from(e: TangleError) -> Self {
        SubmitError::Tangle(e)
    }
}

/// Gateway configuration.
#[derive(Debug)]
pub struct GatewayConfig {
    /// Credit model parameters (paper §VI-A defaults).
    pub credit_params: CreditParams,
    /// Lazy-approval policy.
    pub lazy_policy: LazyTipPolicy,
    /// Cumulative weight at which a transaction counts as confirmed.
    pub confirmation_threshold: u64,
    /// Optional per-device token-bucket rate limit (off by default).
    pub rate_limit: Option<RateLimitConfig>,
    /// Strategy served by [`Gateway::random_tips`] (step 4 of the Fig 6
    /// workflow). Uniform by default — the historical behaviour; switch
    /// to a weighted config to starve lazy tips (§II-B).
    pub tip_selector: SelectorConfig,
    /// Record every accepted transaction (and the genesis) in an outbox
    /// for a gossip layer to broadcast — see
    /// [`Gateway::take_broadcasts`]. Off by default: standalone gateways
    /// should not accumulate an unread queue.
    pub record_broadcasts: bool,
    /// Record every applied [`CreditEvent`] in an outbox for persistence
    /// (`biot-store` WAL) and replication (`biot-gossip`) — see
    /// [`Gateway::take_credit_events`]. Off by default for the same
    /// reason as `record_broadcasts`.
    pub record_credit_events: bool,
    /// Seal confirmed cones after each [`Gateway::refresh`], keeping the
    /// per-attach weight walk bounded by the unconfirmed frontier instead
    /// of ledger depth. The value is the recency lag handed to
    /// [`Tangle::seal_frontier`]: how many recently attached transactions
    /// to keep *outside* the seal so in-flight walks still see mutable
    /// entries. `None` (the default) never seals — the historical
    /// behaviour, and the right choice for short runs.
    pub seal_lag: Option<usize>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            credit_params: CreditParams::default(),
            lazy_policy: LazyTipPolicy::default(),
            confirmation_threshold: 3,
            rate_limit: None,
            tip_selector: SelectorConfig::default(),
            record_broadcasts: false,
            record_credit_events: false,
            seal_lag: None,
        }
    }
}

/// Counters of everything a gateway has processed, by outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayStats {
    /// Submissions accepted onto the ledger.
    pub accepted: u64,
    /// Refused: issuer not on the authorization list.
    pub rejected_unauthorized: u64,
    /// Refused: per-device rate limit.
    pub rejected_rate_limited: u64,
    /// Refused: bad signature.
    pub rejected_bad_signature: u64,
    /// Refused: PoW below the required difficulty.
    pub rejected_insufficient_pow: u64,
    /// Refused by the ledger (double-spend, unknown parent, duplicate).
    pub rejected_ledger: u64,
    /// Lazy-tip approvals accepted but punished.
    pub lazy_punished: u64,
    /// Transactions absorbed via gossip.
    pub gossip_received: u64,
}

/// A full node: tangle replica, admission control, credit bookkeeping.
pub struct Gateway {
    tangle: Tangle,
    credits: CreditLedger,
    authz: AuthRegistry,
    policy: Box<dyn DifficultyPolicy + Send + Sync>,
    config: GatewayConfig,
    /// Known device public keys (registered when authorized).
    directory: HashMap<NodeId, RsaPublicKey>,
    /// Trusted manager keys indexed by fingerprint id, so the per-submit
    /// manager lookup is a hash probe instead of re-hashing every key.
    manager_keys: HashMap<NodeId, RsaPublicKey>,
    limiter: Option<RateLimiter>,
    /// Strategy behind [`Gateway::random_tips`], built from
    /// [`GatewayConfig::tip_selector`].
    selector: Box<dyn TipSelector + Send + Sync>,
    stats: GatewayStats,
    /// Accepted transactions awaiting pickup by a gossip layer (filled
    /// only when [`GatewayConfig::record_broadcasts`] is on), as handles
    /// on the bodies the tangle stores, with their ids.
    outbox: Vec<IdentifiedTx>,
    /// Applied credit events awaiting pickup by the persistence or
    /// gossip layer (filled only when
    /// [`GatewayConfig::record_credit_events`] is on).
    credit_outbox: Vec<CreditEvent>,
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("ledger_len", &self.tangle.len())
            .field("devices", &self.directory.len())
            .finish()
    }
}

impl Gateway {
    /// Creates a gateway trusting `manager_pk` (pinned at genesis) and
    /// using `policy` to map credit to difficulty.
    pub fn new(
        manager_pk: RsaPublicKey,
        policy: Box<dyn DifficultyPolicy + Send + Sync>,
        config: GatewayConfig,
    ) -> Self {
        let manager_id = crate::identity::node_id_of(&manager_pk);
        let limiter = config.rate_limit.map(RateLimiter::new);
        let selector = config.tip_selector.build();
        Self {
            tangle: Tangle::new(),
            credits: CreditLedger::new(config.credit_params),
            authz: AuthRegistry::new(manager_pk.clone()),
            policy,
            config,
            directory: HashMap::new(),
            manager_keys: HashMap::from([(manager_id, manager_pk)]),
            limiter,
            selector,
            stats: GatewayStats::default(),
            outbox: Vec::new(),
            credit_outbox: Vec::new(),
        }
    }

    /// Applies a credit event to the ledger and, when
    /// [`GatewayConfig::record_credit_events`] is on, queues it for the
    /// persistence/gossip layer.
    fn apply_credit_event(&mut self, ev: CreditEvent) {
        self.credits.apply(&ev);
        if self.config.record_credit_events {
            self.credit_outbox.push(ev);
        }
    }

    /// The configured tip-selection strategy.
    pub fn tip_selector(&self) -> SelectorConfig {
        self.config.tip_selector
    }

    /// Trusts an additional manager (the paper permits several per
    /// factory, §IV-A). Operator action only — never triggered on-ledger.
    pub fn trust_manager(&mut self, pk: RsaPublicKey) {
        self.manager_keys
            .insert(crate::identity::node_id_of(&pk), pk.clone());
        self.authz.trust_manager(pk);
    }

    /// Processing counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Bootstraps the ledger with a genesis issued by the primary manager.
    pub fn init_genesis(&mut self, now: SimTime) -> TxId {
        let primary = crate::identity::node_id_of(self.authz.manager_pk());
        let id = self.tangle.attach_genesis(primary, now.as_millis());
        if self.config.record_broadcasts {
            self.outbox.extend(self.tangle.get_identified(&id));
        }
        id
    }

    /// Fig 6 steps 1–3 in one call: a gateway trusting `manager`, its
    /// genesis, each of `devices` registered with both and authorized,
    /// and the manager's authorization list mined at the manager's own
    /// difficulty and applied, all at [`SimTime::ZERO`]. Draws no
    /// randomness, so callers keep their seeded RNG order. Returns the
    /// gateway and the genesis id.
    ///
    /// # Panics
    ///
    /// If the gateway refuses the list it was just handed, which would
    /// be a bug in admission.
    pub fn bootstrap<'a>(
        manager: &mut Manager,
        policy: Box<dyn DifficultyPolicy + Send + Sync>,
        config: GatewayConfig,
        devices: impl IntoIterator<Item = &'a RsaPublicKey>,
    ) -> (Self, TxId) {
        let mut gateway = Self::new(manager.public_key().clone(), policy, config);
        let genesis = gateway.init_genesis(SimTime::ZERO);
        for pk in devices {
            let id = manager.register_device(pk.clone());
            manager.authorize(id);
            gateway.register_pubkey(pk.clone());
        }
        let d = gateway.difficulty_for(manager.id(), SimTime::ZERO);
        let list = manager.prepare_auth_list((genesis, genesis), SimTime::ZERO, d);
        gateway
            .apply_auth_list(list.tx, SimTime::ZERO)
            .expect("a freshly mined auth list applies at boot");
        (gateway, genesis)
    }

    /// Drains the broadcast outbox: every transaction this gateway
    /// accepted since the last call, in attach order. A gossip layer
    /// (see `biot-gossip`) calls this periodically and announces the
    /// drained transactions to peers. Empty unless
    /// [`GatewayConfig::record_broadcasts`] is set. Each is a handle on
    /// the body this gateway's tangle stores, with its id, so a gossip
    /// tangle that attaches it shares that body and hashes nothing.
    pub fn take_broadcasts(&mut self) -> Vec<IdentifiedTx> {
        std::mem::take(&mut self.outbox)
    }

    /// Registers a device's public key so its signatures can be checked.
    pub fn register_pubkey(&mut self, pk: RsaPublicKey) {
        self.directory.insert(crate::identity::node_id_of(&pk), pk);
    }

    /// The ledger replica.
    pub fn tangle(&self) -> &Tangle {
        &self.tangle
    }

    /// The credit ledger (read access for experiments).
    pub fn credits(&self) -> &CreditLedger {
        &self.credits
    }

    /// Drains the credit-event outbox: every [`CreditEvent`] this gateway
    /// has applied since the last call, in application order. Only filled
    /// when [`GatewayConfig::record_credit_events`] is set. Persist these
    /// (`biot-store`) to survive restarts, or relay them (`biot-gossip`)
    /// so replicas converge on credit and difficulty.
    pub fn take_credit_events(&mut self) -> Vec<CreditEvent> {
        std::mem::take(&mut self.credit_outbox)
    }

    /// Applies credit events received from a peer gateway (the
    /// credit-side analogue of [`receive_broadcast`](Self::receive_broadcast)):
    /// folds them into the ledger without re-queueing them in the outbox —
    /// the originating gateway already did the bookkeeping.
    pub fn absorb_credit_events(&mut self, events: &[CreditEvent]) {
        for ev in events {
            self.credits.apply(ev);
        }
    }

    /// The authorization registry.
    pub fn authz(&self) -> &AuthRegistry {
        &self.authz
    }

    /// RPC: a light node asks which difficulty it must meet right now —
    /// the self-adaptive heart of the credit-based PoW (§IV-B).
    pub fn difficulty_for(&self, node: NodeId, now: SimTime) -> Difficulty {
        let credit = self.credits.credit_of(node, now).combined;
        self.policy.difficulty_for(credit)
    }

    /// RPC: full credit breakdown for a node (used by Fig 8).
    pub fn credit_of(&self, node: NodeId, now: SimTime) -> CreditBreakdown {
        self.credits.credit_of(node, now)
    }

    /// RPC: two random tips for a light node to validate (step 4 of the
    /// Fig 6 workflow).
    pub fn random_tips<R: Rng>(&self, rng: &mut R) -> Option<(TxId, TxId)> {
        self.selector.select_tips(&self.tangle, rng)
    }

    /// RPC: two random tips *with their full transactions*, so a light
    /// node can run [`LightNode::validate_tip`] before approving them
    /// (step 5 of Fig 6).
    pub fn random_tip_transactions<R: Rng>(
        &self,
        rng: &mut R,
    ) -> Option<(Transaction, Transaction)> {
        let (a, b) = self.random_tips(rng)?;
        Some((self.tangle.get(&a)?.clone(), self.tangle.get(&b)?.clone()))
    }

    /// RPC: an approval proof that `head` (typically a current tip)
    /// transitively approves `target`. A storage-constrained light node
    /// verifies the proof locally with nothing but SHA-256 — see
    /// [`biot_tangle::proof::ApprovalProof::verify`].
    pub fn prove_approval(
        &self,
        head: TxId,
        target: TxId,
    ) -> Option<biot_tangle::proof::ApprovalProof> {
        biot_tangle::proof::build_proof(&self.tangle, head, target)
    }

    /// Processes a submission from a light node: admission → signature →
    /// PoW → lazy judgement → attach → credit bookkeeping.
    ///
    /// Lazy approvals are **accepted** but punished through credit; a
    /// double-spend is rejected *and* punished, per the paper's threat
    /// handling (§VI-C).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&mut self, tx: Transaction, now: SimTime) -> Result<TxId, SubmitError> {
        let issuer = tx.issuer;
        let is_manager = self.manager_keys.contains_key(&issuer);
        // 1. Admission: managers are implicitly trusted; devices must be on
        //    the authorization list (defeats Sybil/DDoS, §VI-C).
        if !is_manager && !self.authz.is_authorized(&issuer) {
            self.stats.rejected_unauthorized += 1;
            return Err(SubmitError::Unauthorized(issuer));
        }
        // 1b. Rate metering (optional): even authorized devices cannot
        //     flood faster than the configured bucket.
        if !is_manager {
            if let Some(limiter) = &mut self.limiter {
                if !limiter.allow(issuer, now) {
                    self.stats.rejected_rate_limited += 1;
                    return Err(SubmitError::RateLimited(issuer));
                }
            }
        }
        // The id is the digest the issuer signed and the Eqn 6 PoW hash
        // (DESIGN §7.6). Hashed once, here, after the cheap gates; the
        // signature check, the PoW check and the attach all read it.
        let tx = IdentifiedTx::from(tx);
        let digest = tx.id().0;
        // 2. Signature, when the issuer's key is known — after the cheap
        //    gates, so rate-limited floods never cost a signature
        //    verification. Managers and devices live in separate maps, so
        //    a device cannot shadow a manager id.
        let key = if is_manager {
            self.manager_keys.get(&issuer)
        } else {
            self.directory.get(&issuer)
        };
        if key.is_some_and(|pk| !pk.verify_digest(&digest, &tx.signature)) {
            self.stats.rejected_bad_signature += 1;
            return Err(SubmitError::BadSignature(issuer));
        }
        // 3. Credit-based PoW check, against the difficulty the issuer's
        //    credit demands *right now*.
        let required = self.difficulty_for(issuer, now);
        if !meets(&digest, required) {
            self.stats.rejected_insufficient_pow += 1;
            return Err(SubmitError::InsufficientPow { required });
        }
        // 4. Lazy-tip judgement (before attach — see LazyTipPolicy docs).
        let verdict = self.config.lazy_policy.judge(&self.tangle, &tx, now.as_millis());
        // 5. Attach; a double-spend is both rejected and punished.
        let accepted = self.config.record_broadcasts.then(|| tx.clone());
        match self.tangle.attach(tx, now.as_millis()) {
            Ok(id) => {
                self.stats.accepted += 1;
                self.outbox.extend(accepted);
                if let LazyVerdict::Lazy(_) = verdict {
                    self.stats.lazy_punished += 1;
                    self.apply_credit_event(CreditEvent::misbehaved(
                        issuer,
                        Misbehavior::LazyTips,
                        now,
                    ));
                } else {
                    // Honest activity earns credit; weight 1 at attach time
                    // (approvals later deepen it via `refresh`). Same-instant
                    // grants merge into one ledger record, so a batch submit
                    // grows the issuer's history by one record, not N.
                    self.apply_credit_event(CreditEvent::validated(issuer, 1.0, now));
                }
                Ok(id)
            }
            Err(e @ TangleError::DoubleSpend { .. }) => {
                self.stats.rejected_ledger += 1;
                self.apply_credit_event(CreditEvent::misbehaved(
                    issuer,
                    Misbehavior::DoubleSpend,
                    now,
                ));
                Err(e.into())
            }
            Err(e) => {
                self.stats.rejected_ledger += 1;
                Err(e.into())
            }
        }
    }

    /// Processes a batch of submissions: [`submit`](Self::submit) on each
    /// transaction in order, so every gate runs cheapest first and the
    /// outcomes are those of the sequential calls.
    pub fn submit_batch(
        &mut self,
        txs: Vec<Transaction>,
        now: SimTime,
    ) -> Vec<Result<TxId, SubmitError>> {
        txs.into_iter().map(|tx| self.submit(tx, now)).collect()
    }

    /// Applies an authorization-list transaction: verifies it came from
    /// the manager, updates the registry, attaches to the ledger.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] as for [`submit`](Self::submit); additionally the
    /// signature inside the list payload must verify.
    pub fn apply_auth_list(&mut self, tx: Transaction, now: SimTime) -> Result<TxId, SubmitError> {
        self.authz
            .apply(&tx.payload)
            .map_err(|_| SubmitError::BadSignature(tx.issuer))?;
        self.submit(tx, now)
    }

    /// Gossip receipt from a peer gateway: attach without credit effects
    /// (the originating gateway already did the bookkeeping).
    ///
    /// Returns `Ok` for duplicates (idempotent sync). Pass an
    /// [`IdentifiedTx`] (from [`Tangle::get_identified`]) to share the
    /// body with its other holder and reuse its id.
    pub fn receive_broadcast(
        &mut self,
        tx: impl Into<IdentifiedTx>,
        now: SimTime,
    ) -> Result<(), TangleError> {
        let tx = tx.into();
        if let Payload::AuthList { .. } = &tx.payload {
            // Keep admission state in sync on replicas too.
            let _ = self.authz.apply(&tx.payload);
        }
        match self.tangle.attach(tx, now.as_millis()) {
            Ok(_) | Err(TangleError::Duplicate(_)) => {
                self.stats.gossip_received += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Re-records credit for issuers whose transactions gained weight, and
    /// confirms transactions past the threshold. Call periodically (e.g.
    /// once per ΔT).
    pub fn refresh(&mut self, now: SimTime) -> Vec<TxId> {
        let confirmed = self
            .tangle
            .confirm_with_threshold(self.config.confirmation_threshold);
        for id in &confirmed {
            if let Some(tx) = self.tangle.get(id) {
                let w = self.tangle.cumulative_weight(id) as f64;
                let issuer = tx.issuer;
                // `confirm_with_threshold` only yields Pending→Confirmed
                // transitions, so each transaction's weight is granted
                // exactly once — repeated refreshes never re-record it.
                self.apply_credit_event(CreditEvent::validated(issuer, w, now));
            }
        }
        self.credits.compact(now);
        if let Some(lag) = self.config.seal_lag {
            // Credit for the freshly confirmed transactions is recorded
            // above from their live weights, so sealing them now loses
            // nothing: their future growth is absorbed by the pass
            // counter and still reported exactly by `cumulative_weight`.
            self.tangle.seal_frontier(lag);
        }
        confirmed
    }

    /// Adopts a recovered ledger (e.g. from `biot-store` after a restart)
    /// and rebuilds admission state by replaying every authorization-list
    /// payload in attach order — the list *is* on the ledger (Eqn 1), so
    /// nothing beyond the tangle needs separate persistence.
    ///
    /// Credit history is **not** reconstructed here: misbehaviour whose
    /// transactions were rejected never reached the tangle, so it cannot
    /// be derived from it. Use [`restore`](Self::restore) with the credit
    /// events recovered from the store's WAL to bring credit back too —
    /// adopting only the tangle silently amnesties every punished node.
    pub fn adopt_tangle(&mut self, tangle: Tangle) {
        let mut lists: Vec<&Transaction> = tangle
            .iter()
            .filter(|tx| matches!(tx.payload, Payload::AuthList { .. }))
            .collect();
        lists.sort_by_key(|tx| tangle.attach_seq(&tx.id()).unwrap_or(0));
        for tx in lists {
            // Invalid lists can only exist on a corrupted replica; skip
            // rather than brick the gateway.
            let _ = self.authz.apply(&tx.payload);
        }
        self.tangle = tangle;
    }

    /// Full restart recovery: adopts the recovered tangle **and** replays
    /// the persisted credit events, so negative credit — and the
    /// difficulty clamp it drives — survives the restart (§IV-B:
    /// misbehaviour is never fully forgotten). The ledger is rebuilt from
    /// scratch, so restoring twice is idempotent.
    pub fn restore(&mut self, tangle: Tangle, credit_events: &[CreditEvent]) {
        self.adopt_tangle(tangle);
        self.credits = CreditLedger::from_events(self.config.credit_params, credit_events);
    }
}

/// A prepared transaction plus the PoW cost that produced it.
#[derive(Clone, Debug)]
pub struct PreparedTx {
    /// The signed, PoW-stamped transaction.
    pub tx: Transaction,
    /// Hash evaluations the nonce search took (drives virtual-time cost).
    pub trials: u64,
    /// The difficulty it was mined at.
    pub difficulty: Difficulty,
}

/// A light node: a sensor with an account and a data protector.
pub struct LightNode {
    account: Account,
    protector: DataProtector,
}

impl fmt::Debug for LightNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LightNode")
            .field("id", &self.account.id())
            .field("protector", &self.protector)
            .finish()
    }
}

impl LightNode {
    /// Creates a light node from an account, posting public data.
    pub fn new(account: Account) -> Self {
        Self {
            account,
            protector: DataProtector::public(),
        }
    }

    /// The node identity.
    pub fn id(&self) -> NodeId {
        self.account.id()
    }

    /// The node's public key (for registration with gateways).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.account.public_key()
    }

    /// Borrows the account (for key-distribution participation).
    pub fn account(&self) -> &Account {
        &self.account
    }

    /// Installs the session key received via Fig 4, switching the node to
    /// sensitive-data mode.
    pub fn install_session_key(&mut self, key: biot_crypto::aes::AesKey) {
        self.protector.install_key(key);
    }

    /// The data protector (for tests and consumers).
    pub fn protector(&self) -> &DataProtector {
        &self.protector
    }

    /// Validates a candidate tip before approving it (step 5 of the
    /// Fig 6 workflow: "validate these two tips and bundle…").
    ///
    /// A light node holds no ledger, so its checks are the stateless
    /// ones: the tip's PoW clears at least the network-minimum
    /// difficulty, and its structure is sane (non-genesis tips reference
    /// real parents). Stateful checks (conflicts, authorization) are the
    /// gateway's job.
    pub fn validate_tip(tx: &Transaction, min_difficulty: Difficulty) -> bool {
        if tx.is_genesis() {
            // The genesis is trusted by construction (its id is part of
            // the network configuration).
            return true;
        }
        if tx.trunk == TxId::GENESIS_PARENT || tx.branch == TxId::GENESIS_PARENT {
            return false;
        }
        meets(&tx.id().0, min_difficulty)
    }

    /// Builds, mines, and signs a sensor-data transaction on the given
    /// tips (steps 4–5 of the Fig 6 workflow).
    pub fn prepare_reading<R: Rng + ?Sized>(
        &self,
        reading: &[u8],
        tips: (TxId, TxId),
        now: SimTime,
        difficulty: Difficulty,
        rng: &mut R,
    ) -> PreparedTx {
        let payload = self.protector.seal(reading, rng);
        self.prepare_payload(payload, tips, now, difficulty)
    }

    /// Builds, mines, and signs a token spend.
    pub fn prepare_spend(
        &self,
        token: [u8; 32],
        to: NodeId,
        tips: (TxId, TxId),
        now: SimTime,
        difficulty: Difficulty,
    ) -> PreparedTx {
        self.prepare_payload(Payload::Spend { token, to }, tips, now, difficulty)
    }

    /// Builds, mines, and signs an arbitrary payload.
    pub fn prepare_payload(
        &self,
        payload: Payload,
        tips: (TxId, TxId),
        now: SimTime,
        difficulty: Difficulty,
    ) -> PreparedTx {
        let draft = TransactionBuilder::new(self.account.id())
            .parents(tips.0, tips.1)
            .payload(payload)
            .timestamp_ms(now.as_millis())
            .build();
        let solution = solve(&draft.pow_preimage(), difficulty, 0);
        let mut tx = draft;
        tx.nonce = solution.nonce;
        tx.signature = self.account.sign(&tx.signing_bytes());
        PreparedTx {
            tx,
            trials: solution.trials,
            difficulty,
        }
    }
}

/// The manager: a distinguished full node that owns device management and
/// key distribution.
pub struct Manager {
    account: Account,
    authorized: Vec<NodeId>,
    sessions: HashMap<NodeId, ManagerSession>,
    directory: HashMap<NodeId, RsaPublicKey>,
    keydist_config: KeyDistConfig,
}

impl fmt::Debug for Manager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Manager")
            .field("id", &self.account.id())
            .field("authorized", &self.authorized.len())
            .finish()
    }
}

impl Manager {
    /// Creates a manager from an account.
    pub fn new(account: Account) -> Self {
        Self {
            account,
            authorized: Vec::new(),
            sessions: HashMap::new(),
            directory: HashMap::new(),
            keydist_config: KeyDistConfig::default(),
        }
    }

    /// The manager's identity.
    pub fn id(&self) -> NodeId {
        self.account.id()
    }

    /// The manager's public key — this is what gets pinned into gateways'
    /// genesis configuration.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.account.public_key()
    }

    /// Borrows the account.
    pub fn account(&self) -> &Account {
        &self.account
    }

    /// Registers a device's public key in the manager's directory.
    pub fn register_device(&mut self, pk: RsaPublicKey) -> NodeId {
        let id = crate::identity::node_id_of(&pk);
        self.directory.insert(id, pk);
        id
    }

    /// Marks a registered device authorized (effective after the next
    /// published list).
    pub fn authorize(&mut self, device: NodeId) {
        if !self.authorized.contains(&device) {
            self.authorized.push(device);
        }
    }

    /// Revokes a device (effective after the next published list).
    pub fn deauthorize(&mut self, device: NodeId) {
        self.authorized.retain(|d| d != &device);
    }

    /// Builds, mines, and signs the authorization-list transaction
    /// (Eqn 1) on the given tips.
    pub fn prepare_auth_list(
        &self,
        tips: (TxId, TxId),
        now: SimTime,
        difficulty: Difficulty,
    ) -> PreparedTx {
        let payload = build_auth_list(self.authorized.clone(), &self.account);
        let draft = TransactionBuilder::new(self.account.id())
            .parents(tips.0, tips.1)
            .payload(payload)
            .timestamp_ms(now.as_millis())
            .build();
        let solution = solve(&draft.pow_preimage(), difficulty, 0);
        let mut tx = draft;
        tx.nonce = solution.nonce;
        tx.signature = self.account.sign(&tx.signing_bytes());
        PreparedTx {
            tx,
            trials: solution.trials,
            difficulty,
        }
    }

    /// Starts the Fig 4 key distribution toward `device`, returning M1.
    ///
    /// # Panics
    ///
    /// Panics if the device was never registered.
    pub fn start_key_distribution<R: Rng + ?Sized>(
        &mut self,
        device: NodeId,
        now: SimTime,
        rng: &mut R,
    ) -> Message1 {
        let pk = self
            .directory
            .get(&device)
            .expect("device must be registered before key distribution");
        let (session, m1) = ManagerSession::initiate(&self.account, pk, now.as_millis(), rng);
        self.sessions.insert(device, session);
        m1
    }

    /// Handles a device's M2, producing M3.
    ///
    /// # Errors
    ///
    /// [`crate::keydist::KeyDistError`] on any verification failure;
    /// [`crate::keydist::KeyDistError::WrongState`] when no session is
    /// open for `device`.
    pub fn handle_m2<R: Rng + ?Sized>(
        &mut self,
        device: NodeId,
        m2: &Message2,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Message3, crate::keydist::KeyDistError> {
        let pk = self
            .directory
            .get(&device)
            .ok_or(crate::keydist::KeyDistError::WrongState)?
            .clone();
        let session = self
            .sessions
            .get_mut(&device)
            .ok_or(crate::keydist::KeyDistError::WrongState)?;
        session.handle_m2(
            &self.account,
            &pk,
            m2,
            now.as_millis(),
            &self.keydist_config,
            rng,
        )
    }

    /// The session key established with `device`, if the handshake
    /// completed.
    pub fn session_key(&self, device: NodeId) -> Option<&biot_crypto::aes::AesKey> {
        self.sessions.get(&device).and_then(|s| s.session_key())
    }

    /// The key-distribution configuration (shared with devices).
    pub fn keydist_config(&self) -> &KeyDistConfig {
        &self.keydist_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::InverseProportionalPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        manager: Manager,
        gateway: Gateway,
        device: LightNode,
        rng: StdRng,
    }

    /// A booted world: the device is registered, authorized and on the
    /// applied list. Returns it with the genesis id.
    fn world(seed: u64) -> (World, TxId) {
        world_with(seed, GatewayConfig::default())
    }

    fn world_with(seed: u64, config: GatewayConfig) -> (World, TxId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut manager = Manager::new(Account::generate(&mut rng));
        let device = LightNode::new(Account::generate(&mut rng));
        let (gateway, genesis) = Gateway::bootstrap(
            &mut manager,
            Box::new(InverseProportionalPolicy::default()),
            config,
            [device.public_key()],
        );
        let w = World {
            manager,
            gateway,
            device,
            rng,
        };
        (w, genesis)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn end_to_end_reading_submission() {
        let (mut w, _) = world(1);
        let now = t(1);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), now);
        assert_eq!(d, Difficulty::INITIAL, "no history yet → base difficulty");
        let prepared = w
            .device
            .prepare_reading(b"temp=20C", tips, now, d, &mut w.rng);
        let id = w.gateway.submit(prepared.tx, now).unwrap();
        assert!(w.gateway.tangle().contains(&id));
    }

    #[test]
    fn unauthorized_device_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let manager = Manager::new(Account::generate(&mut rng));
        let device = LightNode::new(Account::generate(&mut rng));
        let mut gateway = Gateway::new(
            manager.public_key().clone(),
            Box::new(InverseProportionalPolicy::default()),
            GatewayConfig::default(),
        );
        let genesis = gateway.init_genesis(SimTime::ZERO);
        // No auth list published.
        let prepared =
            device.prepare_reading(b"x", (genesis, genesis), t(1), Difficulty::INITIAL, &mut rng);
        assert_eq!(
            gateway.submit(prepared.tx, t(1)),
            Err(SubmitError::Unauthorized(device.id()))
        );
    }

    #[test]
    fn deauthorized_device_rejected_after_new_list() {
        let (mut w, genesis) = world(3);
        // Revoke and publish an empty list.
        w.manager.deauthorize(w.device.id());
        let d = w.gateway.difficulty_for(w.manager.id(), t(1));
        let prepared = w.manager.prepare_auth_list((genesis, genesis), t(1), d);
        w.gateway.apply_auth_list(prepared.tx, t(1)).unwrap();
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let p = w
            .device
            .prepare_reading(b"x", tips, t(2), Difficulty::new(11), &mut w.rng);
        assert!(matches!(
            w.gateway.submit(p.tx, t(2)),
            Err(SubmitError::Unauthorized(_))
        ));
    }

    #[test]
    fn insufficient_pow_rejected() {
        let (mut w, _) = world(4);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        // Mine at difficulty 1 while the gateway demands 11.
        let p = w
            .device
            .prepare_reading(b"x", tips, t(1), Difficulty::new(1), &mut w.rng);
        // A D1 nonce *may* accidentally satisfy D11 (probability 2^-10);
        // retry the draft if so to keep the test deterministic-enough.
        match w.gateway.submit(p.tx.clone(), t(1)) {
            Err(SubmitError::InsufficientPow { required }) => {
                assert_eq!(required, Difficulty::INITIAL);
            }
            Ok(_) => {
                // Astronomically unlikely but not impossible; accept.
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    /// The PoW gate reads the id: exactly `required` leading zero bits
    /// pass, one fewer is `InsufficientPow`.
    #[test]
    fn pow_gate_boundary_is_exact() {
        let (mut w, _) = world(4);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let required = w.gateway.difficulty_for(w.device.id(), t(1));
        let draft = TransactionBuilder::new(w.device.id())
            .parents(tips.0, tips.1)
            .payload(Payload::Data(b"boundary".to_vec()))
            .timestamp_ms(t(1).as_millis())
            .build();
        let hasher = crate::pow::PowHasher::new(&draft.pow_preimage());
        let mined_at = |bits: u32| {
            let nonce = (0u64..)
                .find(|&n| biot_crypto::sha256::leading_zero_bits(&hasher.hash(n)) == bits)
                .expect("some nonce has exactly that many leading zero bits");
            let mut tx = draft.clone();
            tx.nonce = nonce;
            tx.signature = w.device.account().sign(&tx.signing_bytes());
            tx
        };
        let short = mined_at(required.bits() - 1);
        let exact = mined_at(required.bits());
        assert_eq!(
            w.gateway.submit(short, t(1)),
            Err(SubmitError::InsufficientPow { required })
        );
        let id = exact.id();
        assert_eq!(w.gateway.submit(exact, t(1)), Ok(id));
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut w, _) = world(5);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let mut p = w
            .device
            .prepare_reading(b"x", tips, t(1), Difficulty::INITIAL, &mut w.rng);
        p.tx.signature = vec![0u8; p.tx.signature.len()];
        assert_eq!(
            w.gateway.submit(p.tx, t(1)),
            Err(SubmitError::BadSignature(w.device.id()))
        );
    }

    #[test]
    fn activity_lowers_difficulty() {
        let (mut w, _) = world(6);
        let mut now = t(1);
        for i in 0..5 {
            let tips = w.gateway.random_tips(&mut w.rng).unwrap();
            let d = w.gateway.difficulty_for(w.device.id(), now);
            let p = w.device.prepare_reading(
                format!("reading {i}").as_bytes(),
                tips,
                now,
                d,
                &mut w.rng,
            );
            w.gateway.submit(p.tx, now).unwrap();
            now += 2_000;
        }
        let d_active = w.gateway.difficulty_for(w.device.id(), now);
        assert!(
            d_active < Difficulty::INITIAL,
            "active node difficulty {d_active} should drop below 11"
        );
    }

    #[test]
    fn double_spend_rejected_and_punished() {
        let (mut w, _) = world(7);
        let token = [0xAA; 32];
        let now = t(1);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), now);
        let p1 = w
            .device
            .prepare_spend(token, w.manager.id(), tips, now, d);
        w.gateway.submit(p1.tx, now).unwrap();

        let later = t(2);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d2 = w.gateway.difficulty_for(w.device.id(), later);
        let p2 = w.device.prepare_spend(token, w.device.id(), tips, later, d2);
        let err = w.gateway.submit(p2.tx, later).unwrap_err();
        assert!(matches!(err, SubmitError::Tangle(TangleError::DoubleSpend { .. })));

        // Punishment: credit strongly negative, difficulty at the clamp.
        let credit = w.gateway.credit_of(w.device.id(), t(3)).combined;
        assert!(credit < -1.0, "credit {credit} should collapse");
        assert_eq!(
            w.gateway.difficulty_for(w.device.id(), t(3)),
            Difficulty::MAX
        );
    }

    /// Misbehaviour evidence follows the attacker across gateways: a
    /// double-spend rejected at g0 reaches g1 as g0's credit events, g1
    /// punishes exactly as g0 does, and g1 does not re-queue the evidence.
    #[test]
    fn punishment_propagates_across_gateways() {
        let recording = || GatewayConfig {
            record_credit_events: true,
            ..GatewayConfig::default()
        };
        let (mut w, _) = world_with(12, recording());
        let mut g1 = Gateway::new(
            w.manager.public_key().clone(),
            Box::new(InverseProportionalPolicy::default()),
            recording(),
        );
        let dev_id = w.device.id();

        // Double-spend at g0.
        let token = [7u8; 32];
        let now = t(1);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(dev_id, now);
        let spend = w.device.prepare_spend(token, w.manager.id(), tips, now, d);
        w.gateway.submit(spend.tx, now).unwrap();
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let respend = w.device.prepare_spend(token, dev_id, tips, now, d);
        assert!(w.gateway.submit(respend.tx, now).is_err());

        // Without the evidence, g1 still serves the attacker cheaply.
        let later = t(2);
        assert!(g1.difficulty_for(dev_id, later) <= Difficulty::INITIAL);

        // The evidence lands; g1 punishes too, identically.
        let evidence = w.gateway.take_credit_events();
        assert!(evidence
            .iter()
            .any(|e| matches!(e, CreditEvent::Misbehaved { node, .. } if *node == dev_id)));
        g1.absorb_credit_events(&evidence);
        assert_eq!(g1.difficulty_for(dev_id, later), Difficulty::MAX);
        assert_eq!(
            g1.difficulty_for(dev_id, later),
            w.gateway.difficulty_for(dev_id, later)
        );
        assert_eq!(g1.credit_of(dev_id, later), w.gateway.credit_of(dev_id, later));
        assert!(
            g1.take_credit_events().is_empty(),
            "absorbed evidence must not be re-broadcast"
        );
    }

    #[test]
    fn lazy_tips_accepted_but_punished() {
        let (mut w, genesis) = world(8);
        // Advance well past the genesis so approving it is lazy.
        let now = t(60);
        let d = w.gateway.difficulty_for(w.device.id(), now);
        let p = w
            .device
            .prepare_reading(b"lazy", (genesis, genesis), now, d, &mut w.rng);
        let id = w.gateway.submit(p.tx, now).unwrap();
        assert!(w.gateway.tangle().contains(&id), "lazy tx still attaches");
        assert!(
            w.gateway.credit_of(w.device.id(), t(61)).combined < 0.0,
            "lazy approval must cost credit"
        );
    }

    #[test]
    fn refresh_confirms_and_rewards() {
        let (mut w, _) = world(9);
        let mut now = t(1);
        let mut first = None;
        for i in 0..6 {
            let tips = w.gateway.random_tips(&mut w.rng).unwrap();
            let d = w.gateway.difficulty_for(w.device.id(), now);
            let p = w.device.prepare_reading(
                format!("r{i}").as_bytes(),
                tips,
                now,
                d,
                &mut w.rng,
            );
            let id = w.gateway.submit(p.tx, now).unwrap();
            first.get_or_insert(id);
            now += 1_000;
        }
        let confirmed = w.gateway.refresh(now);
        assert!(!confirmed.is_empty(), "early txs should confirm");
    }

    #[test]
    fn gossip_receipt_is_idempotent() {
        let (mut w, _) = world(10);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), t(1));
        let p = w
            .device
            .prepare_reading(b"x", tips, t(1), d, &mut w.rng);
        w.gateway.submit(p.tx.clone(), t(1)).unwrap();
        // Receiving one's own broadcast back is fine.
        w.gateway.receive_broadcast(p.tx, t(1)).unwrap();
    }

    #[test]
    fn rate_limit_blocks_authorized_flooder() {
        // The boot's auth list passes: the manager is never rate limited.
        let (World { mut gateway, device, mut rng, .. }, _) = world_with(
            20,
            GatewayConfig {
                rate_limit: Some(crate::ratelimit::RateLimitConfig {
                    burst: 3.0,
                    per_second: 1.0,
                }),
                ..GatewayConfig::default()
            },
        );
        let dev_id = device.id();

        // Flood: only the burst gets through at one instant.
        let now = t(1);
        let mut accepted = 0;
        let mut limited = 0;
        for i in 0..6 {
            let tips = gateway.random_tips(&mut rng).unwrap();
            let diff = gateway.difficulty_for(dev_id, now);
            let p = device.prepare_reading(format!("f{i}").as_bytes(), tips, now, diff, &mut rng);
            match gateway.submit(p.tx, now) {
                Ok(_) => accepted += 1,
                Err(SubmitError::RateLimited(n)) => {
                    assert_eq!(n, dev_id);
                    limited += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(limited, 3);
        // After a pause the device can post again.
        let later = t(3);
        let tips = gateway.random_tips(&mut rng).unwrap();
        let diff = gateway.difficulty_for(dev_id, later);
        let p = device.prepare_reading(b"after pause", tips, later, diff, &mut rng);
        assert!(gateway.submit(p.tx, later).is_ok());
    }

    #[test]
    fn tip_transactions_rpc_supports_validation() {
        let (mut w, _) = world(33);
        let (ta, tb) = w.gateway.random_tip_transactions(&mut w.rng).unwrap();
        assert!(LightNode::validate_tip(&ta, Difficulty::MIN));
        assert!(LightNode::validate_tip(&tb, Difficulty::MIN));
        // The full flow: validate, then approve exactly those tips.
        let tips = (ta.id(), tb.id());
        let d = w.gateway.difficulty_for(w.device.id(), t(1));
        let p = w.device.prepare_reading(b"validated", tips, t(1), d, &mut w.rng);
        assert_eq!(p.tx.trunk, ta.id());
        w.gateway.submit(p.tx, t(1)).unwrap();
    }

    #[test]
    fn light_node_tip_validation() {
        let (mut w, _) = world(32);
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), t(1));
        let p = w.device.prepare_reading(b"tip", tips, t(1), d, &mut w.rng);
        let min = Difficulty::MIN;
        // A properly mined transaction validates as a tip.
        assert!(LightNode::validate_tip(&p.tx, min));
        // The genesis is trusted.
        let genesis_id = w.gateway.tangle().genesis().unwrap();
        let genesis = w.gateway.tangle().get(&genesis_id).unwrap();
        assert!(LightNode::validate_tip(genesis, min));
        // A nonce-less forgery fails the PoW check (with overwhelming
        // probability at difficulty ≥ 8).
        let mut forged = p.tx.clone();
        forged.nonce = forged.nonce.wrapping_add(1);
        assert!(!LightNode::validate_tip(&forged, Difficulty::new(8)));
        // A fake-genesis reference fails structurally.
        let mut fake = p.tx;
        fake.trunk = TxId::GENESIS_PARENT;
        assert!(!LightNode::validate_tip(&fake, min));
    }

    #[test]
    fn second_manager_can_publish_lists() {
        let (mut w, genesis) = world(30);
        // A second manager appears; the gateway operator trusts it.
        let manager2 = Manager::new(Account::generate(&mut w.rng));
        w.gateway.trust_manager(manager2.public_key().clone());
        let mut manager2 = manager2;
        let extra = LightNode::new(Account::generate(&mut w.rng));
        let extra_id = manager2.register_device(extra.public_key().clone());
        manager2.authorize(extra_id);
        w.gateway.register_pubkey(extra.public_key().clone());
        let d = w.gateway.difficulty_for(manager2.id(), t(1));
        let list = manager2.prepare_auth_list((genesis, genesis), t(1), d);
        w.gateway.apply_auth_list(list.tx, t(1)).unwrap();
        assert!(w.gateway.authz().is_authorized(&extra_id));
        // An untrusted third manager still cannot.
        let rogue = Manager::new(Account::generate(&mut w.rng));
        let mut rogue = rogue;
        rogue.authorize(NodeId([9; 32]));
        let d = Difficulty::INITIAL;
        let list = rogue.prepare_auth_list((genesis, genesis), t(2), d);
        assert!(w.gateway.apply_auth_list(list.tx, t(2)).is_err());
    }

    #[test]
    fn stats_count_outcomes() {
        let (mut w, _) = world(31);
        assert_eq!(w.gateway.stats().accepted, 1, "the auth list itself");
        // Accepted reading.
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), t(1));
        let p = w.device.prepare_reading(b"ok", tips, t(1), d, &mut w.rng);
        w.gateway.submit(p.tx, t(1)).unwrap();
        // Unauthorized submission.
        let stranger = LightNode::new(Account::generate(&mut w.rng));
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let p = stranger.prepare_reading(b"no", tips, t(1), Difficulty::INITIAL, &mut w.rng);
        let _ = w.gateway.submit(p.tx, t(1));
        let stats = w.gateway.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected_unauthorized, 1);
    }

    /// Per-device token bucket for the batch-equivalence worlds: six
    /// submissions per instant, so the device's seventh and eighth
    /// readings in [`mixed_batch`] are rate limited.
    const BATCH_BURST: f64 = 6.0;

    /// A booted world with rate limiting on, plus a second device that
    /// the first auth list admits and a later list revokes. The revoked
    /// device's key stays in the gateway's directory. Worlds built from
    /// the same seed are bit-identical (seeded rng).
    fn policed_world(seed: u64) -> (World, LightNode) {
        let (mut w, _) = world_with(
            seed,
            GatewayConfig {
                rate_limit: Some(crate::ratelimit::RateLimitConfig {
                    burst: BATCH_BURST,
                    per_second: 1.0,
                }),
                ..GatewayConfig::default()
            },
        );
        let revoked = LightNode::new(Account::generate(&mut w.rng));
        let revoked_id = w.manager.register_device(revoked.public_key().clone());
        w.gateway.register_pubkey(revoked.public_key().clone());
        w.manager.authorize(revoked_id);
        for publish in 0..2 {
            if publish == 1 {
                w.manager.deauthorize(revoked_id);
            }
            let tips = w.gateway.random_tips(&mut w.rng).unwrap();
            let d = w.gateway.difficulty_for(w.manager.id(), SimTime::ZERO);
            let list = w.manager.prepare_auth_list(tips, SimTime::ZERO, d);
            w.gateway.apply_auth_list(list.tx, SimTime::ZERO).unwrap();
        }
        assert!(!w.gateway.authz().is_authorized(&revoked_id));
        (w, revoked)
    }

    /// A mixed batch against the post-boot ledger of a [`policed_world`]:
    /// honest readings, a forged signature, an unauthorized stranger, a
    /// valid signature over insufficient PoW, a reading from the revoked
    /// device, and two honest readings past the device's rate limit.
    fn mixed_batch(w: &mut World, revoked: &LightNode, now: SimTime) -> Vec<Transaction> {
        let mut txs = Vec::new();
        for i in 0..4 {
            let tips = w.gateway.random_tips(&mut w.rng).unwrap();
            let d = w.gateway.difficulty_for(w.device.id(), now);
            let p = w
                .device
                .prepare_reading(format!("r{i}").as_bytes(), tips, now, d, &mut w.rng);
            txs.push(p.tx);
        }
        // Forged signature on an otherwise valid transaction.
        let mut forged = txs[1].clone();
        forged.payload = Payload::Data(b"forged".to_vec());
        forged.signature = vec![0u8; forged.signature.len()];
        txs.push(forged);
        // Unauthorized stranger with honest work.
        let stranger = LightNode::new(Account::generate(&mut w.rng));
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let p = stranger.prepare_reading(b"no", tips, now, Difficulty::INITIAL, &mut w.rng);
        txs.push(p.tx);
        // Valid signature, botched nonce: almost surely under D11 (and if
        // the wrecked nonce accidentally clears the bar, it does so in
        // every same-seed world, so equivalence still holds).
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(w.device.id(), now);
        let p = w.device.prepare_reading(b"weak", tips, now, d, &mut w.rng);
        let mut weak = p.tx;
        weak.nonce = weak.nonce.wrapping_add(1);
        weak.signature = w.device.account().sign(&weak.signing_bytes());
        txs.push(weak);
        // Revoked device: valid signature and work, key still registered.
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(revoked.id(), now);
        txs.push(revoked.prepare_reading(b"revoked", tips, now, d, &mut w.rng).tx);
        // Honest readings seven and eight from the device at the same
        // instant: over its burst of six.
        for i in 0..2 {
            let tips = w.gateway.random_tips(&mut w.rng).unwrap();
            let d = w.gateway.difficulty_for(w.device.id(), now);
            let p = w
                .device
                .prepare_reading(format!("flood{i}").as_bytes(), tips, now, d, &mut w.rng);
            txs.push(p.tx);
        }
        txs
    }

    #[test]
    fn batch_submit_matches_sequential_exactly() {
        let (mut seq_world, revoked) = policed_world(40);
        let (mut batch_world, _) = policed_world(40);
        let now = t(1);
        let txs = mixed_batch(&mut seq_world, &revoked, now);

        let sequential: Vec<_> = txs
            .iter()
            .cloned()
            .map(|tx| seq_world.gateway.submit(tx, now))
            .collect();
        let batched = batch_world.gateway.submit_batch(txs, now);

        assert_eq!(sequential, batched);
        assert_eq!(seq_world.gateway.stats(), batch_world.gateway.stats());
        assert_eq!(
            seq_world.gateway.tangle().len(),
            batch_world.gateway.tangle().len()
        );
        // The mixed batch exercised every admission outcome. (Credit can
        // evolve mid-batch — e.g. a lazy-tip punishment raising the bar
        // for a later reading — so only lower bounds are asserted for the
        // credit-dependent outcomes.)
        let stats = batch_world.gateway.stats();
        assert!(stats.accepted >= 3, "auth lists + readings: {stats:?}");
        assert_eq!(stats.rejected_bad_signature, 1);
        assert_eq!(stats.rejected_unauthorized, 2, "stranger + revoked: {stats:?}");
        assert_eq!(stats.rejected_rate_limited, 2, "{stats:?}");
        assert!(stats.rejected_insufficient_pow >= 1, "{stats:?}");
    }

    #[test]
    fn batch_submit_empty_is_noop() {
        let (mut w, _) = world(42);
        let before = w.gateway.stats();
        assert!(w.gateway.submit_batch(Vec::new(), t(1)).is_empty());
        assert_eq!(w.gateway.stats(), before);
    }

    #[test]
    fn broadcast_outbox_records_accepted_only() {
        let (World { mut gateway, device, mut rng, .. }, genesis) = world_with(
            50,
            GatewayConfig {
                record_broadcasts: true,
                ..GatewayConfig::default()
            },
        );
        let dev_id = device.id();

        // Genesis + auth list so far, in attach order.
        let drained = gateway.take_broadcasts();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].id(), genesis);
        assert!(gateway.take_broadcasts().is_empty(), "drain empties the outbox");

        // An accepted reading lands in the outbox; a rejected stranger
        // and a gossip receipt do not.
        let tips = gateway.random_tips(&mut rng).unwrap();
        let diff = gateway.difficulty_for(dev_id, t(1));
        let p = device.prepare_reading(b"ok", tips, t(1), diff, &mut rng);
        let accepted_id = gateway.submit(p.tx.clone(), t(1)).unwrap();
        let stranger = LightNode::new(Account::generate(&mut rng));
        let tips = gateway.random_tips(&mut rng).unwrap();
        let bad = stranger.prepare_reading(b"no", tips, t(1), Difficulty::INITIAL, &mut rng);
        let _ = gateway.submit(bad.tx, t(1));
        gateway.receive_broadcast(p.tx, t(1)).unwrap();
        let drained = gateway.take_broadcasts();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id(), accepted_id);
    }

    #[test]
    fn key_distribution_through_roles() {
        let (mut w, _) = world(11);
        let dev_id = w.device.id();
        let m1 = w.manager.start_key_distribution(dev_id, t(1), &mut w.rng);
        let cfg = *w.manager.keydist_config();
        let (mut ds, m2) = crate::keydist::DeviceSession::handle_m1(
            w.device.account(),
            w.manager.public_key(),
            &m1,
            1_000,
            &cfg,
            &mut w.rng,
        )
        .unwrap();
        let m3 = w.manager.handle_m2(dev_id, &m2, t(1), &mut w.rng).unwrap();
        ds.handle_m3(w.manager.public_key(), &m3, 1_002, &cfg).unwrap();
        let key = ds.session_key().unwrap().clone();
        w.device.install_session_key(key.clone());
        assert_eq!(
            w.manager.session_key(dev_id).unwrap().as_bytes(),
            key.as_bytes()
        );

        // Device now posts ciphertext.
        let tips = w.gateway.random_tips(&mut w.rng).unwrap();
        let d = w.gateway.difficulty_for(dev_id, t(2));
        let p = w
            .device
            .prepare_reading(b"secret recipe", tips, t(2), d, &mut w.rng);
        assert!(matches!(p.tx.payload, Payload::EncryptedData { .. }));
        w.gateway.submit(p.tx, t(2)).unwrap();
    }
}
