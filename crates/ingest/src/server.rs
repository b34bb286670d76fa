//! The ingestion server: reactor-driven admission front end.
//!
//! One [`IngestServer`] owns a [`ConnTable`] — the listener, the client
//! connections and their poller — and keeps only the protocol; each call
//! to [`IngestServer::poll`] runs one tick of the event loop against the
//! caller's [`Gateway`]:
//!
//! 1. let the table ask the poller which sockets have news (O(ready)
//!    under epoll) and drain the accept backlog in bounded bursts;
//! 2. read and decode frames from ready connections, under a per-tick
//!    budget, a per-connection token bucket, and two inflight caps;
//! 3. feed everything admitted into [`Gateway::submit_batch`] in arrival
//!    order;
//! 4. ack every submission with per-transaction result codes.
//!
//! ## Backpressure policy (provably bounded memory)
//!
//! Every buffer a client can influence has a hard cap, and every cap
//! refuses instead of growing:
//!
//! * **inbound frames** — the transport refuses frames over
//!   `MAX_FRAME_BYTES` before buffering them;
//! * **decoded transactions** — at most
//!   [`IngestConfig::per_conn_inflight`] per connection and
//!   [`IngestConfig::global_inflight`] overall; past either cap a
//!   submission is acked [`AckCode::Busy`] and the connection's *read
//!   interest is deferred* (the socket stays open, the kernel queues and
//!   eventually flow-controls the sender via TCP);
//! * **outbound acks** — the transport's 4 MiB tx cap
//!   ([`biot_gossip::tcp::MAX_TX_BUFFER_BYTES`]); a client that will not
//!   read its acks is disconnected rather than buffered without bound.
//!
//! High-water marks for all three are tracked in [`IngestStats`], and the
//! stalled-client test in `tests/ingest_e2e.rs` asserts they hold while
//! healthy connections keep admitting.
//!
//! Two more states are bounded by explicit sweeps rather than caps:
//!
//! * **front-end limiter buckets** — keyed by connection token, and
//!   tokens are never reused, so the idle sweep also compacts the
//!   [`RateLimiter`] with a cutoff trailing the idle timeout; bucket
//!   count tracks *live* connections, not total arrivals;
//! * **frames parked past the tick budget** — the transport reads what
//!   the kernel holds into userspace, so frames beyond
//!   [`IngestConfig::frames_per_tick`] would never re-trigger a
//!   level-triggered poller; connections still holding a complete
//!   buffered frame go on the resume list and are serviced next tick.

use crate::protocol::{
    decode_client, encode_server, AckCode, AckResult, ClientMsg, ServerMsg,
};
use biot_core::node::{Gateway, SubmitError};
use biot_core::ratelimit::{RateLimitConfig, RateLimiter};
use biot_gossip::tcp::{ConnLimits, ConnTable};
use biot_gossip::transport::Transport;
use biot_net::time::SimTime;
use biot_tangle::tx::{NodeId, Transaction, TxId};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

/// Connection cap; accepts past it are immediately closed. Also the
/// `listen(2)` backlog.
const MAX_CONNECTIONS: usize = 4096;

/// Most connections accepted per tick (one listener readiness event
/// drains a whole dial burst, but boundedly).
const ACCEPT_BURST: usize = 256;

/// Limiter compaction horizon when idle disconnects are off.
const NO_IDLE_HORIZON_MS: u64 = 60_000;

/// Tuning knobs for the ingest front end. Defaults serve thousands of
/// connections on one core; every knob exists to keep some buffer finite.
#[derive(Clone, Copy, Debug)]
pub struct IngestConfig {
    /// Decoded-transaction cap per connection; past it the connection is
    /// acked `Busy` and its read interest deferred.
    pub per_conn_inflight: usize,
    /// Decoded-transaction cap across all connections.
    pub global_inflight: usize,
    /// Most frames decoded from one connection in one tick (fairness:
    /// one chatty device cannot monopolize a tick).
    pub frames_per_tick: usize,
    /// Most transactions per [`Gateway::submit_batch`] call.
    pub batch_max: usize,
    /// Per-connection token bucket (requests/s shaping ahead of the
    /// gateway's own per-device limiter). `None` disables.
    pub rate_limit: Option<RateLimitConfig>,
    /// Drop connections silent for this long (ms); `0` disables.
    pub idle_timeout_ms: u64,
    /// Record every (transaction, instant, outcome) fed to the gateway —
    /// for the bit-identical equivalence test; off in production.
    pub record_admissions: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            per_conn_inflight: 256,
            global_inflight: 8192,
            frames_per_tick: 64,
            batch_max: 512,
            rate_limit: None,
            idle_timeout_ms: 30_000,
            record_admissions: false,
        }
    }
}

/// Connection lifecycle and admission counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Connections accepted and registered.
    pub conns_accepted: u64,
    /// Connections refused because the connection cap (4096) was
    /// reached.
    pub conns_refused_capacity: u64,
    /// Connections dropped: peer closed, I/O failure, protocol
    /// violation, or unread acks past the outbound cap.
    pub conns_dropped: u64,
    /// Connections dropped by the idle timeout.
    pub conns_timed_out: u64,
    /// Non-transient accept failures (fd exhaustion and kin); each also
    /// parks the listener for a short backoff.
    pub accept_errors: u64,
    /// Connections lost during accept: aborted or reset in the backlog,
    /// an interrupted accept, or a socket option that would not set.
    pub accept_conn_errors: u64,
    /// Well-formed frames decoded.
    pub frames_in: u64,
    /// Malformed frames (each also drops its connection).
    pub frames_malformed: u64,
    /// Transactions accepted onto the ledger.
    pub txs_admitted: u64,
    /// Transactions the gateway refused (any [`SubmitError`]).
    pub txs_rejected: u64,
    /// Transactions refused by the front end's per-connection bucket.
    pub txs_rate_limited: u64,
    /// Transactions refused `Busy` by the inflight caps.
    pub txs_busy: u64,
    /// Highest global inflight-queue depth ever observed.
    pub high_water_global_inflight: usize,
    /// Highest per-connection inflight depth ever observed.
    pub high_water_conn_inflight: usize,
    /// Highest per-connection unflushed outbound byte count observed.
    pub high_water_tx_buffer: usize,
}

/// What one [`IngestServer::poll`] tick did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollProgress {
    /// Frames decoded.
    pub frames: usize,
    /// Transactions run through the gateway (any outcome).
    pub submitted: usize,
}

/// One queued entry of a submission: either a transaction awaiting the
/// gateway, or a result already decided at the front end (rate-limited,
/// busy).
#[derive(Debug)]
enum Entry {
    Queued(Transaction),
    Immediate(AckResult),
}

/// One client submission (`SubmitTx` or `SubmitBatch`), acked as a unit.
#[derive(Debug)]
struct Submission {
    token: usize,
    entries: Vec<Entry>,
}

impl Submission {
    fn queued_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, Entry::Queued(_)))
            .count()
    }
}

/// An admission record for the equivalence oracle (see
/// [`IngestConfig::record_admissions`]).
pub type AdmissionRecord = (Transaction, SimTime, Result<TxId, SubmitError>);

/// The reactor-driven ingestion front end. See the module docs.
#[derive(Debug)]
pub struct IngestServer {
    /// Each connection's state is how many of its transactions sit in
    /// `pending`.
    table: ConnTable<usize>,
    pending: VecDeque<Submission>,
    /// Total queued transactions across `pending` (≤ global_inflight).
    inflight: usize,
    limiter: Option<RateLimiter>,
    config: IngestConfig,
    /// Protocol counters; the lifecycle ones come from `table`.
    stats: IngestStats,
    admission_log: Vec<AdmissionRecord>,
}

impl IngestServer {
    /// Binds the listener and sets up the poller.
    ///
    /// # Errors
    ///
    /// Socket or poller-creation failures.
    pub fn bind(addr: impl ToSocketAddrs, config: IngestConfig) -> io::Result<Self> {
        let limits = ConnLimits {
            max_conns: MAX_CONNECTIONS,
            accept_burst: ACCEPT_BURST,
            idle_timeout_ms: config.idle_timeout_ms,
            sweep_every_ms: sweep_horizon_ms(config.idle_timeout_ms) / 4 + 1,
            sweep_when_empty: config.idle_timeout_ms != 0,
        };
        Ok(Self {
            table: ConnTable::bind(addr, limits)?,
            pending: VecDeque::new(),
            inflight: 0,
            limiter: config.rate_limit.map(RateLimiter::new),
            config,
            stats: IngestStats::default(),
            admission_log: Vec::new(),
        })
    }

    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.table.local_addr()
    }

    /// The poller's own pollable descriptor, when it has one (epoll).
    ///
    /// An outer event loop registers this fd for READ and wakes exactly
    /// when some ingest socket is ready — epoll fds are themselves
    /// level-readable while their ready-list is non-empty — instead of
    /// calling [`IngestServer::poll`] on a timer.
    pub fn poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.table.poller_fd()
    }

    /// Earliest instant (absolute ms) at which this server has internal
    /// work that kernel readiness will *not* signal: buffered frames on
    /// the resume list (already due), a parked listener waiting out its
    /// accept backoff, or the next idle sweep. `None` when only socket
    /// readiness can create work. `_now` is unused: the resume list is
    /// due at the last poll's instant.
    pub fn next_deadline(&self, _now: SimTime) -> Option<u64> {
        self.table.next_deadline()
    }

    /// Lifecycle and admission counters.
    pub fn stats(&self) -> IngestStats {
        let conns = self.table.stats();
        IngestStats {
            conns_accepted: conns.accepted,
            conns_refused_capacity: conns.accept.refused,
            conns_dropped: conns.dropped + conns.unregistered,
            conns_timed_out: conns.timed_out,
            accept_errors: conns.accept.listener_errors,
            accept_conn_errors: conns.accept.conn_errors,
            ..self.stats
        }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.table.connections()
    }

    /// Transactions currently queued for admission.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Token buckets currently tracked by the front-end limiter — `0`
    /// when rate limiting is off. Bounded by the idle sweep's periodic
    /// [`RateLimiter::compact`], not by total connections ever accepted.
    pub fn rate_buckets(&self) -> usize {
        self.limiter.as_ref().map_or(0, RateLimiter::tracked_nodes)
    }

    /// Drains the recorded admission stream (only filled when
    /// [`IngestConfig::record_admissions`] is set).
    pub fn take_admission_log(&mut self) -> Vec<AdmissionRecord> {
        std::mem::take(&mut self.admission_log)
    }

    /// Runs one event-loop tick against `gateway` at instant `now`.
    /// Blocks at most `timeout_ms` waiting for readiness (epoll; the
    /// scan poller returns immediately).
    ///
    /// # Errors
    ///
    /// Poller failures only — per-connection I/O errors are handled by
    /// dropping the connection.
    pub fn poll(
        &mut self,
        gateway: &mut Gateway,
        now: SimTime,
        timeout_ms: i32,
    ) -> io::Result<PollProgress> {
        let mut progress = PollProgress::default();
        for ev in self.table.poll(now.as_millis(), timeout_ms)? {
            if ev.writable && self.table.flush(ev.token).is_some() {
                self.table.update_interest(ev.token);
            }
            if ev.readable {
                self.read_conn(ev.token, now, &mut progress);
            }
        }
        self.drain(gateway, now, &mut progress);
        self.unpause_ready();
        if self.table.sweep(now.as_millis()) {
            // Limiter buckets are keyed by connection token and tokens
            // are never reused, so under churn they must be compacted
            // even when idle disconnects are disabled. The cutoff trails
            // the idle timeout: any bucket older than that belongs to a
            // connection that is closed or about to be swept, so dropping
            // it never changes a live connection's decisions.
            let horizon = sweep_horizon_ms(self.config.idle_timeout_ms);
            if let Some(limiter) = self.limiter.as_mut() {
                limiter.compact(SimTime::from_millis(now.as_millis().saturating_sub(horizon)));
            }
        }
        Ok(progress)
    }

    // --- Per-connection I/O ----------------------------------------------

    fn read_conn(&mut self, token: usize, now: SimTime, progress: &mut PollProgress) {
        for _ in 0..self.config.frames_per_tick {
            let Some(conn) = self.table.get_mut(token) else { return };
            if conn.paused {
                return;
            }
            let frame = match conn.transport.try_recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    self.table.close(token);
                    return;
                }
            };
            conn.last_activity_ms = now.as_millis();
            let Ok(msg) = decode_client(&frame) else {
                // Protocol violation: this peer cannot be reasoned with
                // (framing may be desynchronized) — drop it.
                self.stats.frames_malformed += 1;
                self.table.close(token);
                return;
            };
            self.stats.frames_in += 1;
            progress.frames += 1;
            self.enqueue_submission(token, msg, now);
        }
        // Budget exhausted, but the transport read the kernel buffer into
        // userspace: a level-triggered poller sees nothing left to
        // report, so any complete frame still parked there must be
        // revisited explicitly or the client deadlocks awaiting acks it
        // pipelined past the budget.
        let conn = self.table.get_mut(token);
        if conn.is_some_and(|c| !c.paused && c.transport.has_buffered_frame()) {
            self.table.resume(token);
        }
        self.table.update_interest(token);
    }

    /// Applies the front-end gates (token bucket, inflight caps) to one
    /// submission and queues what survives. Gate outcomes are decided
    /// per transaction, so one oversized batch gets a mixed ack instead
    /// of all-or-nothing.
    fn enqueue_submission(&mut self, token: usize, msg: ClientMsg, now: SimTime) {
        let txs = match msg {
            ClientMsg::SubmitTx(tx) => vec![tx],
            ClientMsg::SubmitBatch(txs) => txs,
        };
        let bucket_key = conn_limiter_key(token);
        let mut entries = Vec::with_capacity(txs.len());
        let mut queued = 0usize;
        let mut hit_cap = false;
        {
            let conn = self.table.get_mut(token).expect("caller verified conn");
            for tx in txs {
                if let Some(limiter) = self.limiter.as_mut() {
                    if !limiter.allow(bucket_key, now) {
                        self.stats.txs_rate_limited += 1;
                        entries.push(Entry::Immediate(AckResult::rejected(AckCode::RateLimited)));
                        continue;
                    }
                }
                if conn.state + queued >= self.config.per_conn_inflight
                    || self.inflight + queued >= self.config.global_inflight
                {
                    self.stats.txs_busy += 1;
                    hit_cap = true;
                    entries.push(Entry::Immediate(AckResult::rejected(AckCode::Busy)));
                    continue;
                }
                queued += 1;
                entries.push(Entry::Queued(tx));
            }
            conn.state += queued;
            self.stats.high_water_conn_inflight =
                self.stats.high_water_conn_inflight.max(conn.state);
            if hit_cap {
                // Defer read interest: stop pulling from this socket and
                // let TCP flow control push back to the device. The acks
                // just queued still go out; `unpause_ready` re-arms reads
                // once the queues drain.
                conn.paused = true;
            }
        }
        self.inflight += queued;
        self.stats.high_water_global_inflight =
            self.stats.high_water_global_inflight.max(self.inflight);
        // Even fully-rejected (and empty) submissions go through the
        // queue: acks leave each connection in frame order, so clients
        // can pair ack N with frame N without sequence numbers.
        self.pending.push_back(Submission { token, entries });
        if hit_cap {
            self.table.update_interest(token);
        }
    }

    // --- Admission --------------------------------------------------------

    /// Feeds queued submissions into the gateway's batch admission, in
    /// arrival order, and acks each submission.
    fn drain(&mut self, gateway: &mut Gateway, now: SimTime, progress: &mut PollProgress) {
        while !self.pending.is_empty() {
            // Merge whole submissions up to batch_max transactions.
            let mut subs: Vec<Submission> = Vec::new();
            let mut txs: Vec<Transaction> = Vec::new();
            while let Some(front) = self.pending.front() {
                let n = front.queued_count();
                if !txs.is_empty() && txs.len() + n > self.config.batch_max {
                    break;
                }
                let sub = self.pending.pop_front().expect("front exists");
                for e in &sub.entries {
                    if let Entry::Queued(tx) = e {
                        txs.push(tx.clone());
                    }
                }
                subs.push(sub);
                if txs.len() >= self.config.batch_max {
                    break;
                }
            }
            let submitted = txs.len();
            let logged: Option<Vec<Transaction>> =
                self.config.record_admissions.then(|| txs.clone());
            let results = if txs.is_empty() {
                Vec::new()
            } else {
                gateway.submit_batch(txs, now)
            };
            progress.submitted += submitted;
            self.inflight -= submitted;
            if let Some(logged) = logged {
                for (tx, res) in logged.into_iter().zip(results.iter()) {
                    self.admission_log.push((tx, now, res.clone()));
                }
            }

            let mut results = results.into_iter();
            for sub in subs {
                let mut acks = Vec::with_capacity(sub.entries.len());
                let mut queued = 0usize;
                for entry in sub.entries {
                    match entry {
                        Entry::Immediate(r) => acks.push(r),
                        Entry::Queued(_) => {
                            queued += 1;
                            match results.next().expect("one result per queued tx") {
                                Ok(id) => {
                                    self.stats.txs_admitted += 1;
                                    acks.push(AckResult::accepted(id));
                                }
                                Err(e) => {
                                    self.stats.txs_rejected += 1;
                                    acks.push(AckResult::rejected(AckCode::from_submit_error(&e)));
                                }
                            }
                        }
                    }
                }
                if let Some(conn) = self.table.get_mut(sub.token) {
                    conn.state -= queued;
                }
                self.send_ack(sub.token, acks);
            }
        }
    }

    // --- Backpressure + lifecycle ----------------------------------------

    fn send_ack(&mut self, token: usize, results: Vec<AckResult>) {
        let Some(conn) = self.table.get_mut(token) else { return };
        let frame = encode_server(&ServerMsg::Ack(results));
        if conn.transport.send(&frame).is_err() {
            // Closed, I/O failure, or 4 MiB of unread acks: either way
            // this peer is not consuming its side of the protocol.
            self.table.close(token);
            return;
        }
        self.stats.high_water_tx_buffer = self
            .stats
            .high_water_tx_buffer
            .max(conn.transport.pending_tx_bytes());
        self.table.update_interest(token);
    }

    /// Re-arms read interest on paused connections whose queues drained.
    /// Hysteresis (half the per-connection cap, ¾ of the global one)
    /// keeps a flooding device from flapping every tick.
    fn unpause_ready(&mut self) {
        if self.inflight * 4 > self.config.global_inflight * 3 {
            return;
        }
        let mut unpaused: Vec<usize> = Vec::new();
        for (token, conn) in self.table.iter_mut() {
            if conn.paused && conn.state * 2 <= self.config.per_conn_inflight {
                conn.paused = false;
                unpaused.push(token);
            }
        }
        for token in unpaused {
            self.table.update_interest(token);
            // Frames may already sit decoded-but-unread in the rx buffer;
            // a level-triggered poller re-reports the socket, but bytes
            // parked in our buffer need an explicit revisit.
            self.table.resume(token);
        }
    }
}

/// The idle timeout, or a fixed horizon when idle disconnects are off:
/// it sets the sweep cadence and how far back the limiter keeps buckets.
fn sweep_horizon_ms(idle_timeout_ms: u64) -> u64 {
    if idle_timeout_ms == 0 { NO_IDLE_HORIZON_MS } else { idle_timeout_ms }
}

/// The synthetic per-connection identity fed to the token bucket. Not a
/// device id: the front end shapes *connections*; the gateway's own
/// limiter (keyed by issuer) shapes devices.
fn conn_limiter_key(token: usize) -> NodeId {
    let mut id = [0xC0u8; 32];
    id[..8].copy_from_slice(&(token as u64).to_be_bytes());
    NodeId(id)
}
