//! The ingestion server: reactor-driven admission front end.
//!
//! One [`IngestServer`] owns a listening socket, N client connections,
//! and a [`Poller`]; each call to [`IngestServer::poll`] runs one tick of
//! the event loop against the caller's [`Gateway`]:
//!
//! 1. ask the poller which sockets have news (O(ready) under epoll);
//! 2. drain the accept backlog in bounded bursts;
//! 3. read and decode frames from ready connections, under a per-tick
//!    budget, a per-connection token bucket, and two inflight caps;
//! 4. feed everything admitted into [`Gateway::submit_batch`] — the
//!    already-parallel signature/PoW verify fan-out — in arrival order;
//! 5. ack every submission with per-transaction result codes.
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
//! * **frames parked past the tick budget** — the transport drains the
//!   whole kernel buffer into userspace, so frames beyond
//!   [`IngestConfig::frames_per_tick`] would never re-trigger a
//!   level-triggered poller; connections still holding a complete
//!   buffered frame go on the resume list and are serviced next tick.

use crate::protocol::{
    decode_client, encode_server, AckCode, AckResult, ClientMsg, ServerMsg,
};
use biot_reactor::{build_poller, Event, Interest, Poller, PollerKind};
use biot_core::node::{Gateway, SubmitError};
use biot_core::ratelimit::{RateLimitConfig, RateLimiter};
use biot_gossip::tcp::{TcpAcceptor, TcpTransport, ACCEPT_BACKOFF_MS};
use biot_gossip::transport::Transport;
use biot_net::time::SimTime;
use biot_tangle::tx::{NodeId, Transaction, TxId};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

/// Token under which the listening socket is registered.
const ACCEPTOR_TOKEN: usize = usize::MAX;

/// Connection cap; accepts past it are immediately closed. Also the
/// `listen(2)` backlog.
const MAX_CONNECTIONS: usize = 4096;

/// Most connections accepted per tick (one listener readiness event
/// drains a whole dial burst, but boundedly).
const ACCEPT_BURST: usize = 256;

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
    /// Readiness events dispatched.
    pub events: usize,
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

#[derive(Debug)]
struct Conn {
    transport: TcpTransport,
    fd: std::os::fd::RawFd,
    /// Transactions of this connection inside the pending queue.
    inflight: usize,
    /// Read interest deferred until acks drain (backpressure).
    paused: bool,
    last_activity: SimTime,
    interest: Interest,
}

/// An admission record for the equivalence oracle (see
/// [`IngestConfig::record_admissions`]).
pub type AdmissionRecord = (Transaction, SimTime, Result<TxId, SubmitError>);

/// The reactor-driven ingestion front end. See the module docs.
pub struct IngestServer {
    acceptor: TcpAcceptor,
    poller: Box<dyn Poller>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    pending: VecDeque<Submission>,
    /// Total queued transactions across `pending` (≤ global_inflight).
    inflight: usize,
    limiter: Option<RateLimiter>,
    config: IngestConfig,
    stats: IngestStats,
    events: Vec<Event>,
    /// Connections whose buffered frames must be serviced next tick
    /// even without a fresh readiness event: unpaused this tick, or
    /// still holding complete frames after the per-tick budget.
    resume: Vec<usize>,
    last_sweep: SimTime,
    admission_log: Vec<AdmissionRecord>,
}

impl std::fmt::Debug for IngestServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("conns", &self.conns.len())
            .field("inflight", &self.inflight)
            .finish()
    }
}

impl IngestServer {
    /// Binds the listener and sets up the poller.
    ///
    /// # Errors
    ///
    /// Socket or poller-creation failures.
    pub fn bind(addr: impl ToSocketAddrs, config: IngestConfig) -> io::Result<Self> {
        let acceptor = TcpAcceptor::bind(addr)?;
        // Deepen the kernel accept backlog to the connection cap: std's
        // 128 overflows under a fleet-sized dial burst, and every dropped
        // SYN costs that client a ~1 s retransmission stall.
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        biot_reactor::sys::listen(
            acceptor.raw_fd(),
            i32::try_from(MAX_CONNECTIONS).unwrap_or(i32::MAX),
        )?;
        let mut poller = build_poller(PollerKind::Epoll)?;
        poller.register(acceptor.raw_fd(), ACCEPTOR_TOKEN, Interest::READ)?;
        Ok(Self {
            acceptor,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            pending: VecDeque::new(),
            inflight: 0,
            limiter: config.rate_limit.map(RateLimiter::new),
            config,
            stats: IngestStats::default(),
            events: Vec::new(),
            resume: Vec::new(),
            last_sweep: SimTime::ZERO,
            admission_log: Vec::new(),
        })
    }

    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.acceptor.local_addr()
    }

    /// The poller's own pollable descriptor, when it has one (epoll).
    ///
    /// An outer event loop registers this fd for READ and wakes exactly
    /// when some ingest socket is ready — epoll fds are themselves
    /// level-readable while their ready-list is non-empty — instead of
    /// calling [`IngestServer::poll`] on a timer.
    pub fn poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.poller.raw_fd()
    }

    /// Earliest instant (absolute ms) at which this server has internal
    /// work that kernel readiness will *not* signal: buffered frames on
    /// the resume list (due immediately), a parked listener waiting out
    /// its accept backoff, or the next idle sweep. `None` when only
    /// socket readiness can create work.
    pub fn next_deadline(&self, now: SimTime) -> Option<u64> {
        if !self.resume.is_empty() {
            return Some(now.as_millis());
        }
        let mut next = self.acceptor.resume_at();
        let timeout = self.config.idle_timeout_ms;
        if !self.conns.is_empty() || timeout != 0 {
            let horizon = if timeout == 0 { 60_000 } else { timeout };
            let sweep_at = self.last_sweep.as_millis() + horizon / 4 + 1;
            next = Some(next.map_or(sweep_at, |n| n.min(sweep_at)));
        }
        next
    }

    /// Lifecycle and admission counters.
    pub fn stats(&self) -> IngestStats {
        let accept = self.acceptor.stats();
        IngestStats {
            conns_refused_capacity: accept.refused,
            accept_errors: accept.listener_errors,
            accept_conn_errors: accept.conn_errors,
            ..self.stats
        }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
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
        // Pending local work must not wait out the poll timeout: frames
        // parked in userspace produce no kernel readiness, and a parked
        // listener re-arms on a deadline, not an event.
        let backoff = i32::try_from(ACCEPT_BACKOFF_MS).expect("small constant");
        let timeout_ms = if !self.resume.is_empty() {
            0
        } else if self.acceptor.resume_at().is_some() && !(0..=backoff).contains(&timeout_ms) {
            // Negative means "block forever" — still wake for the re-arm.
            backoff
        } else {
            timeout_ms
        };
        let mut events = std::mem::take(&mut self.events);
        self.poller.poll(&mut events, timeout_ms)?;
        progress.events = events.len();

        // A parked listener produces no event; once its backoff is over,
        // drain whatever queued in the backlog meanwhile.
        if self.acceptor.resume_at().is_some_and(|at| now.as_millis() >= at) {
            self.accept(now);
        }

        // Connections with frames already buffered in userspace (unpaused
        // last tick, or past the frame budget) produce no kernel event.
        let resume = std::mem::take(&mut self.resume);
        for token in resume {
            self.read_conn(token, now, &mut progress);
        }

        for ev in &events {
            if ev.token == ACCEPTOR_TOKEN {
                self.accept(now);
                continue;
            }
            // EPOLLHUP/EPOLLERR ignore the interest mask, so a dead
            // *paused* socket re-fires every tick while read_conn bails
            // on `paused` — reap it now instead of busy-looping until
            // the idle sweep gets there.
            if ev.hangup && self.conns.get(&ev.token).is_some_and(|c| c.paused) {
                self.close_conn(ev.token, false);
                continue;
            }
            if ev.writable {
                self.flush_conn(ev.token);
            }
            if ev.readable {
                self.read_conn(ev.token, now, &mut progress);
            }
        }
        self.events = events;

        self.drain(gateway, now, &mut progress);
        self.unpause_ready();
        self.sweep_idle(now);
        Ok(progress)
    }

    // --- Accept -----------------------------------------------------------

    fn accept(&mut self, now: SimTime) {
        let listening = self.acceptor.interest();
        let room = MAX_CONNECTIONS.saturating_sub(self.conns.len());
        let streams = self.acceptor.accept_burst(now.as_millis(), ACCEPT_BURST, room);
        if self.acceptor.interest() != listening {
            // Parked (drop read interest so the doomed accept stops
            // re-firing) or re-armed after the backoff.
            let _ = self.poller.reregister(
                self.acceptor.raw_fd(),
                ACCEPTOR_TOKEN,
                self.acceptor.interest(),
            );
        }
        for stream in streams {
            let mut transport = TcpTransport::accepted(stream);
            let token = self.next_token;
            self.next_token += 1;
            let fd = transport.raw_fd();
            if self.poller.register(fd, token, Interest::READ).is_err() {
                transport.close();
                self.stats.conns_dropped += 1;
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    transport,
                    fd,
                    inflight: 0,
                    paused: false,
                    last_activity: now,
                    interest: Interest::READ,
                },
            );
            self.stats.conns_accepted += 1;
        }
    }

    // --- Per-connection I/O ----------------------------------------------

    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.transport.flush().is_err() {
            self.close_conn(token, false);
            return;
        }
        self.update_interest(token);
    }

    fn read_conn(&mut self, token: usize, now: SimTime, progress: &mut PollProgress) {
        for _ in 0..self.config.frames_per_tick {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.paused {
                return;
            }
            let frame = match conn.transport.try_recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            };
            conn.last_activity = now;
            let msg = match decode_client(&frame) {
                Ok(msg) => msg,
                Err(_) => {
                    // Protocol violation: this peer cannot be reasoned
                    // with (framing may be desynchronized) — drop it.
                    self.stats.frames_malformed += 1;
                    self.close_conn(token, false);
                    return;
                }
            };
            self.stats.frames_in += 1;
            progress.frames += 1;
            self.enqueue_submission(token, msg, now);
        }
        // Budget exhausted, but the transport drained the whole kernel
        // buffer into userspace: a level-triggered poller sees nothing
        // left to report, so any complete frame still parked there must
        // be revisited explicitly or the client deadlocks awaiting acks
        // it pipelined past the budget.
        if let Some(conn) = self.conns.get(&token) {
            if !conn.paused
                && conn.transport.has_buffered_frame()
                && !self.resume.contains(&token)
            {
                self.resume.push(token);
            }
        }
        self.update_interest(token);
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
            let conn = self.conns.get_mut(&token).expect("caller verified conn");
            for tx in txs {
                if let Some(limiter) = self.limiter.as_mut() {
                    if !limiter.allow(bucket_key, now) {
                        self.stats.txs_rate_limited += 1;
                        entries.push(Entry::Immediate(AckResult::rejected(AckCode::RateLimited)));
                        continue;
                    }
                }
                if conn.inflight + queued >= self.config.per_conn_inflight
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
            conn.inflight += queued;
            self.stats.high_water_conn_inflight =
                self.stats.high_water_conn_inflight.max(conn.inflight);
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
            self.update_interest(token);
        }
    }

    // --- Admission --------------------------------------------------------

    /// Feeds queued submissions into the gateway's batch verify fan-out,
    /// in arrival order, and acks each submission.
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
                if let Some(conn) = self.conns.get_mut(&sub.token) {
                    conn.inflight -= queued;
                }
                self.send_ack(sub.token, acks);
            }
        }
    }

    // --- Backpressure + lifecycle ----------------------------------------

    fn send_ack(&mut self, token: usize, results: Vec<AckResult>) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let frame = encode_server(&ServerMsg::Ack(results));
        if conn.transport.send(&frame).is_err() {
            // Closed, I/O failure, or 4 MiB of unread acks: either way
            // this peer is not consuming its side of the protocol.
            self.close_conn(token, false);
            return;
        }
        self.stats.high_water_tx_buffer = self
            .stats
            .high_water_tx_buffer
            .max(conn.transport.pending_tx_bytes());
        self.update_interest(token);
    }

    /// Re-arms read interest on paused connections whose queues drained.
    /// Hysteresis (half the per-connection cap, ¾ of the global one)
    /// keeps a flooding device from flapping every tick.
    fn unpause_ready(&mut self) {
        if self.inflight * 4 > self.config.global_inflight * 3 {
            return;
        }
        let mut unpaused: Vec<usize> = Vec::new();
        for (&token, conn) in &mut self.conns {
            if conn.paused && conn.inflight * 2 <= self.config.per_conn_inflight {
                conn.paused = false;
                unpaused.push(token);
            }
        }
        for token in unpaused {
            self.update_interest(token);
            // Frames may already sit decoded-but-unread in the rx buffer;
            // a level-triggered poller re-reports the socket, but bytes
            // parked in our buffer need an explicit revisit.
            self.resume.push(token);
        }
    }

    fn sweep_idle(&mut self, now: SimTime) {
        let timeout = self.config.idle_timeout_ms;
        // Limiter buckets are keyed by connection token and tokens are
        // never reused, so under churn they must be compacted even when
        // idle disconnects are disabled — fall back to a fixed horizon.
        let horizon = if timeout == 0 { 60_000 } else { timeout };
        if now.millis_since(self.last_sweep) < horizon / 4 + 1 {
            return;
        }
        self.last_sweep = now;
        // The cutoff trails the idle timeout: any bucket older than that
        // belongs to a connection that is closed or about to be swept,
        // so dropping it never changes a live connection's decisions.
        if let Some(limiter) = self.limiter.as_mut() {
            limiter.compact(SimTime::from_millis(
                now.as_millis().saturating_sub(horizon),
            ));
        }
        if timeout == 0 {
            return;
        }
        let dead: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| now.millis_since(c.last_activity) > timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in dead {
            self.close_conn(token, true);
        }
    }

    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let desired = Interest {
            readable: !conn.paused,
            writable: conn.transport.pending_tx_bytes() > 0,
        };
        if desired == conn.interest {
            return;
        }
        conn.interest = desired;
        let fd = conn.fd;
        if self.poller.reregister(fd, token, desired).is_err() {
            self.close_conn(token, false);
        }
    }

    fn close_conn(&mut self, token: usize, timed_out: bool) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.fd);
        conn.transport.close();
        if timed_out {
            self.stats.conns_timed_out += 1;
        } else {
            self.stats.conns_dropped += 1;
        }
        // Its queued transactions stay in `pending` (the gateway decision
        // is still made — admission never silently vanishes), but the ack
        // will find the connection gone and be skipped.
    }
}

/// The synthetic per-connection identity fed to the token bucket. Not a
/// device id: the front end shapes *connections*; the gateway's own
/// limiter (keyed by issuer) shapes devices.
fn conn_limiter_key(token: usize) -> NodeId {
    let mut id = [0xC0u8; 32];
    id[..8].copy_from_slice(&(token as u64).to_be_bytes());
    NodeId(id)
}
