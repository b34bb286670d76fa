//! The live system and the closed-loop driver.
//!
//! One process, one thread for the nodes: a `ValidationNode` (loopback
//! ingest in front of a credit-policed `Gateway`) and an `ArchivalNode`
//! (`LedgerStore` plus the HTTP query server), joined by one loopback
//! gossip link, all members of one `EventLoop` on a `VirtualClock`. The
//! driver owns the client sockets (ingest and HTTP) on the same thread.
//!
//! Protocol time only moves when the driver moves it, and only once the
//! system is quiescent at the current instant: no socket the nodes own is
//! ready, no deadline is due, no gossip frame is in flight. So every ack,
//! the final ledger and every HTTP body are functions of the seed, and a
//! wake never waits for a virtual deadline in wall time: the driver asks
//! its own readiness probe first and calls `EventLoop::turn` only when a
//! socket is ready or a deadline is due, so the loop's epoll wait returns
//! at once.

use crate::corpus::{build_gateway, Class, Corpus, QuerySpec};
use crate::stats;
use crate::trace::Tracer;
use biot_gossip::node::{GossipConfig, RelayMode};
use biot_gossip::tcp::{TcpAcceptor, TcpConnector};
use biot_ingest::protocol::{decode_server, encode_client, ClientMsg, ServerMsg};
use biot_ingest::{AckCode, IngestConfig};
use biot_node::role::{ArchivalNode, Role, RoleConfig, ValidationNode};
use biot_node::{EventLoop, MemberId, Request};
use biot_reactor::{build_poller, Event, Interest, Poller, PollerKind, VirtualClock};
use biot_store::LedgerStore;
use biot_tangle::tx::TxId;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::RawFd;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How long the driver may spin with bytes in flight and nothing ready
/// before it declares the run stalled.
const STALL_NS: u64 = 5_000_000_000;
/// More wakes than this at one step means a member reports work it never
/// does; the run stops instead of spinning.
const MAX_WAKES_PER_STEP: u32 = 1_000_000;
/// Every this many queries, the socket bytes are compared with the
/// archival node's in-process rendering.
const ORACLE_EVERY: u32 = 4;

fn gossip_cfg(node_id: u64) -> GossipConfig {
    GossipConfig {
        node_id,
        relay_mode: RelayMode::Digest,
        digest_ms: 5,
        seed: node_id,
        ..GossipConfig::default()
    }
}

/// A non-blocking client socket with its own out/in buffers.
struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            out: Vec::new(),
            sent: 0,
            inbuf: Vec::new(),
        })
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn pending(&self) -> bool {
        self.sent < self.out.len()
    }

    fn flush(&mut self) -> Result<(), String> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err("client socket closed".into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client write: {e}")),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Reads whatever the kernel holds. Returns whether bytes arrived.
    fn fill(&mut self) -> Result<bool, String> {
        let mut any = false;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed a client connection".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client read: {e}")),
            }
        }
    }

    /// Pops one length-prefixed frame body.
    fn pop_frame(&mut self) -> Option<Vec<u8>> {
        if self.inbuf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(self.inbuf[..4].try_into().expect("4 bytes")) as usize;
        if self.inbuf.len() < 4 + len {
            return None;
        }
        let body = self.inbuf[4..4 + len].to_vec();
        self.inbuf.drain(..4 + len);
        Some(body)
    }

    /// Pops one complete HTTP response (head + Content-Length body).
    fn pop_response(&mut self) -> Option<Vec<u8>> {
        let head_end = self.inbuf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&self.inbuf[..head_end]).ok()?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        if self.inbuf.len() < head_end + len {
            return None;
        }
        Some(self.inbuf.drain(..head_end + len).collect())
    }
}

/// Pre-encoded client bytes for one corpus: one ingest frame per
/// `FrameSpec`, one HTTP request per query. Built before any timed phase.
pub struct Wire {
    frames: Vec<Vec<Vec<u8>>>,
    requests: Vec<Option<Vec<u8>>>,
}

impl Wire {
    /// Encodes every frame and request of `c`.
    pub fn encode(c: &Corpus) -> Self {
        let frames = c
            .steps
            .iter()
            .map(|s| {
                s.frames
                    .iter()
                    .map(|f| {
                        let body = encode_client(&ClientMsg::SubmitBatch(
                            f.txs.iter().map(|t| t.tx.clone()).collect(),
                        ));
                        let mut out = (body.len() as u32).to_be_bytes().to_vec();
                        out.extend_from_slice(&body);
                        out
                    })
                    .collect()
            })
            .collect();
        let requests = c
            .steps
            .iter()
            .map(|s| {
                s.query.as_ref().map(|q| {
                    let target = if q.query.is_empty() {
                        q.path.clone()
                    } else {
                        format!("{}?{}", q.path, q.query)
                    };
                    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
                })
            })
            .collect();
        Self { frames, requests }
    }
}

/// Wall-clock and counter results of one timed phase.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Wall seconds of the whole phase (first write to last step done).
    pub phase_s: f64,
    /// Per-transaction ack latency, ms (every submitted transaction).
    pub ack_ms: Vec<f64>,
    /// Per-transaction write→visible latency, ms (accepted ones).
    pub visible_ms: Vec<f64>,
    /// Per-query latency, ms.
    pub query_ms: Vec<f64>,
    /// Transactions submitted.
    pub txs: u64,
    /// Queries answered.
    pub queries: u64,
    /// Response bytes received.
    pub resp_bytes: u64,
    /// Operations attempted (transactions + queries).
    pub attempted: u64,
    /// Failed operations (see the module docs of `main`).
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Event-loop wakes during the phase.
    pub wakeups: u64,
    /// Wall ns inside `EventLoop::turn`/`pump` (untraced) or the member
    /// handlers (traced).
    pub loop_ns: u64,
    /// Wall ns spent spinning with bytes in flight and nothing ready.
    pub idle_ns: u64,
    /// Devices whose credit at the end differs between the validation
    /// node's ledger and the archival node's gossip-fed replica. Reported,
    /// not counted in `failed`: same-instant grants that are not adjacent
    /// in the gateway's outbox are bit-identical events, and the mesh
    /// dedups them by content, so the replica undercounts.
    pub credit_divergent: u64,
    /// Per-segment rates (see [`Rig::run`]).
    pub segments: Vec<Segment>,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Rates and latency medians of one run of consecutive steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct Segment {
    /// Honest transactions visible per wall second.
    pub tx_per_s: f64,
    /// Queries answered per wall second.
    pub query_per_s: f64,
    /// Median ack latency of the segment's transactions, ms.
    pub ack_p50_ms: f64,
    /// Median write→visible latency of its accepted transactions, ms.
    pub visible_p50_ms: f64,
    /// Median latency of its queries, ms.
    pub query_p50_ms: f64,
}

impl PhaseResult {
    /// Folds another repetition's results into this one: samples pooled,
    /// counts and times summed.
    pub fn absorb(&mut self, o: PhaseResult) {
        self.phase_s += o.phase_s;
        self.ack_ms.extend(o.ack_ms);
        self.visible_ms.extend(o.visible_ms);
        self.query_ms.extend(o.query_ms);
        self.txs += o.txs;
        self.queries += o.queries;
        self.resp_bytes += o.resp_bytes;
        self.attempted += o.attempted;
        self.failed += o.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(o.failures.into_iter().take(room));
        self.wakeups += o.wakeups;
        self.loop_ns += o.loop_ns;
        self.idle_ns += o.idle_ns;
        self.credit_divergent = self.credit_divergent.max(o.credit_divergent);
        self.segments.extend(o.segments);
    }
}

/// One booted system plus the state of the phase driven through it.
pub struct Rig<'c> {
    c: &'c Corpus,
    el: EventLoop,
    clock: VirtualClock,
    vid: MemberId,
    aid: MemberId,
    probe: Box<dyn Poller>,
    probe_regs: HashMap<RawFd, Interest>,
    probe_events: Vec<Event>,
    acceptor_fd: RawFd,
    ingest: Vec<Client>,
    http: Client,
    flight_base: (i64, i64),
    /// The archival node's store directory.
    pub store_dir: PathBuf,
    // --- phase state ---
    origin: Instant,
    flat: Vec<&'c crate::corpus::TxSpec>,
    index: HashMap<TxId, u32>,
    first_idx: Vec<u32>,
    write_ns: Vec<u64>,
    ack_ns: Vec<u64>,
    vis_ns: Vec<u64>,
    accepted: Vec<bool>,
    outstanding: Vec<VecDeque<(usize, usize)>>,
    query_out: Option<(u32, u64, Request)>,
    queries: u32,
    admitted_cursor: u32,
    vis_cursor: usize,
    unseen: usize,
    res: PhaseResult,
}

impl<'c> Rig<'c> {
    /// Boots both nodes, links them, connects the clients and drives the
    /// gossip handshake and initial sync to quiescence. This is what
    /// `setup_s` times. `deep` is the pre-built store the validation node
    /// recovers from (`read_trickle`); `store_dir` already holds the
    /// archival node's copy of it.
    ///
    /// # Errors
    ///
    /// Any boot, socket or sync failure.
    pub fn boot(c: &'c Corpus, store_dir: PathBuf, deep: Option<&Path>) -> Result<Self, String> {
        let gateway = match deep {
            Some(dir) => {
                let store = LedgerStore::open_read_only(dir).map_err(|e| e.to_string())?;
                let rec = store.recover_full().map_err(|e| e.to_string())?;
                let tangle = rec.tangle.ok_or("deep store holds no tangle")?;
                (build_gateway(c, Some(tangle.clone())), Some(tangle))
            }
            None => (build_gateway(c, None), None),
        };
        let (gateway, history) = gateway;
        let validation = ValidationNode::new(
            gateway,
            RoleConfig {
                role: Role::Validation,
                gossip: gossip_cfg(1),
                ingest_addr: Some("127.0.0.1:0".into()),
                ingest: IngestConfig {
                    per_conn_inflight: 4096,
                    global_inflight: 16_384,
                    batch_max: 1024,
                    ..IngestConfig::default()
                },
                ..RoleConfig::default()
            },
        )
        .map_err(|e| format!("validation boot: {e}"))?;
        if let Some(t) = history {
            // The validation node restarts from the same history as the
            // archival one, so the mesh has nothing to re-sync.
            *validation.gossip().tangle().lock().expect("fresh mutex") = t;
        }
        let ingest_addr = validation
            .ingest_addr()
            .map_err(|e| e.to_string())?
            .ok_or("no ingest")?;
        let mut archival = ArchivalNode::new(RoleConfig {
            role: Role::Archival,
            gossip: gossip_cfg(2),
            store_dir: Some(store_dir.clone()),
            http_addr: Some("127.0.0.1:0".into()),
            ..RoleConfig::default()
        })
        .map_err(|e| format!("archival boot: {e}"))?;
        let http_addr = archival
            .http_addr()
            .map_err(|e| e.to_string())?
            .ok_or("no http")?;
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let acceptor_fd = acceptor.raw_fd();
        let gossip_addr = acceptor.local_addr().map_err(|e| e.to_string())?;
        archival
            .gossip_mut()
            .connect(Box::new(TcpConnector { addr: gossip_addr }));

        let clock = VirtualClock::new();
        let mut el = EventLoop::with_clock(Box::new(clock.clone())).map_err(|e| e.to_string())?;
        let vid = el.add_validation(validation);
        let aid = el.add_archival(archival);
        el.add_acceptor(acceptor, vid);
        let ingest = (0..c.params.conns)
            .map(|_| Client::connect(ingest_addr))
            .collect::<Result<Vec<_>, _>>()?;
        let http = Client::connect(http_addr)?;
        let n = c.txs().count();
        let mut first_idx = Vec::new();
        let mut at = 0u32;
        for s in &c.steps {
            for f in &s.frames {
                first_idx.push(at);
                at += f.txs.len() as u32;
            }
        }
        let mut rig = Self {
            c,
            el,
            clock,
            vid,
            aid,
            probe: build_poller(PollerKind::Epoll).map_err(|e| e.to_string())?,
            probe_regs: HashMap::new(),
            probe_events: Vec::new(),
            acceptor_fd,
            ingest,
            http,
            flight_base: (0, 0),
            store_dir,
            origin: Instant::now(),
            flat: c.txs().collect(),
            index: c.tx_index(),
            first_idx,
            write_ns: vec![0; n],
            ack_ns: vec![0; n],
            vis_ns: vec![0; n],
            accepted: vec![false; n],
            outstanding: (0..c.params.conns).map(|_| VecDeque::new()).collect(),
            query_out: None,
            queries: 0,
            admitted_cursor: 0,
            vis_cursor: 0,
            unseen: 0,
            res: PhaseResult::default(),
        };
        let horizon = c
            .steps
            .first()
            .map_or(c.end_ms, |s| s.at_ms)
            .saturating_sub(1);
        let want = rig.validation().gateway().tangle().len();
        let mut guard = 0u64;
        loop {
            let synced = {
                let a = rig.archival();
                let len = a.gossip().tangle().lock().expect("archival tangle").len();
                len == want
                    && a.gossip().ready_peers() == 1
                    && rig.validation().gossip().ready_peers() == 1
            };
            if synced && !rig.ready_now() {
                break;
            }
            if rig.ready_now() {
                rig.el.turn().map_err(|e| e.to_string())?;
                continue;
            }
            match rig.el.next_deadline() {
                Some(d) if d <= horizon => rig
                    .el
                    .pump(d.max(rig.clock.now_ms()))
                    .map_err(|e| e.to_string())?,
                _ => {
                    guard += 1;
                    if guard > 1_000_000 {
                        return Err("setup never synced".into());
                    }
                }
            }
        }
        rig.flight_base = rig.frame_diffs();
        let seen = rig
            .archival()
            .gossip()
            .tangle()
            .lock()
            .expect("archival tangle")
            .attach_order()
            .len();
        rig.vis_cursor = seen;
        Ok(rig)
    }

    fn validation(&self) -> &ValidationNode {
        self.el.validation(self.vid).expect("validation member")
    }

    fn archival(&self) -> &ArchivalNode {
        self.el.archival(self.aid).expect("archival member")
    }

    /// Wall ns since the phase started.
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// (validation out − archival in, archival out − validation in).
    fn frame_diffs(&self) -> (i64, i64) {
        let v = self.validation().gossip().stats();
        let a = self.archival().gossip().stats();
        (
            v.frames_out as i64 - a.frames_in as i64,
            a.frames_out as i64 - v.frames_in as i64,
        )
    }

    /// Whether a node-owned socket is ready or a deadline is due now.
    fn ready_now(&mut self) -> bool {
        let now = self.clock.now_ms();
        if self.el.next_deadline().is_some_and(|d| d <= now) {
            return true;
        }
        self.sync_probe();
        let mut events = std::mem::take(&mut self.probe_events);
        events.clear();
        let polled = self.probe.poll(&mut events, 0);
        let ready = polled.is_ok() && !events.is_empty();
        self.probe_events = events;
        ready
    }

    fn sync_probe(&mut self) {
        let mut desired: Vec<(RawFd, Interest)> = vec![(self.acceptor_fd, Interest::READ)];
        let v = self.validation();
        let a = self.archival();
        desired.extend(v.ingest_poller_fd().map(|fd| (fd, Interest::READ)));
        desired.extend(a.http_poller_fd().map(|fd| (fd, Interest::READ)));
        for (fd, w) in v
            .gossip()
            .transport_fds()
            .into_iter()
            .chain(a.gossip().transport_fds())
        {
            desired.push((
                fd,
                if w {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                },
            ));
        }
        let stale: Vec<RawFd> = self
            .probe_regs
            .keys()
            .filter(|fd| !desired.iter().any(|d| d.0 == **fd))
            .copied()
            .collect();
        for fd in stale {
            let _ = self.probe.deregister(fd);
            self.probe_regs.remove(&fd);
        }
        for (fd, want) in desired {
            match self.probe_regs.get(&fd) {
                Some(have) if *have == want => {}
                Some(_) => {
                    let _ = self.probe.reregister(fd, fd as usize, want);
                    self.probe_regs.insert(fd, want);
                }
                None => {
                    if self.probe.register(fd, fd as usize, want).is_err() {
                        let _ = self.probe.reregister(fd, fd as usize, want);
                    }
                    self.probe_regs.insert(fd, want);
                }
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.res.failed += 1;
        if self.res.failures.len() < 8 {
            self.res.failures.push(what);
        }
    }

    /// Runs every step of the corpus. `traced` replaces `EventLoop`
    /// dispatch with direct handler calls wrapped in spans; `segments`
    /// splits the phase into that many runs of steps for per-segment
    /// rates.
    ///
    /// # Errors
    ///
    /// Socket, loop or stall failures (check mismatches are counted, not
    /// returned).
    pub fn run(
        mut self,
        wire: &Wire,
        traced: bool,
        segments: usize,
    ) -> Result<(PhaseResult, Finished<'c>), String> {
        self.origin = Instant::now();
        if traced {
            self.res.tracer = Some(Tracer::new());
        }
        let wakes0 = self.el.wakeups();
        let c = self.c;
        let mut frame_no = 0usize;
        let mut step_ns = Vec::with_capacity(c.steps.len() + 1);
        let mut step_tx = Vec::with_capacity(c.steps.len() + 1);
        let mut query_step = Vec::new();
        let t0 = self.ns();
        for (k, step) in c.steps.iter().enumerate() {
            step_ns.push(self.ns());
            step_tx.push(
                self.first_idx
                    .get(frame_no)
                    .map_or(self.write_ns.len(), |&i| i as usize),
            );
            let limit = c.steps.get(k + 1).map_or(c.end_ms, |s| s.at_ms) - 1;
            if self.clock.now_ms() > step.at_ms {
                self.fail(format!(
                    "step {k}: virtual clock {} past {}",
                    self.clock.now_ms(),
                    step.at_ms
                ));
            }
            self.open("driver.step");
            self.advance(step.at_ms)?;
            if step.refresh {
                let now = biot_net::time::SimTime::from_millis(step.at_ms);
                self.el
                    .validation_mut(self.vid)
                    .expect("validation")
                    .gateway_mut()
                    .refresh(now);
            }
            let now_ns = self.ns();
            for (fi, f) in step.frames.iter().enumerate() {
                let lo = self.first_idx[frame_no] as usize;
                let hi = lo + f.txs.len();
                frame_no += 1;
                for w in &mut self.write_ns[lo..hi] {
                    *w = now_ns;
                }
                self.outstanding[f.conn as usize].push_back((lo, hi));
                self.ingest[f.conn as usize].queue(&wire.frames[k][fi]);
                self.res.txs += f.txs.len() as u64;
            }
            if let (Some(q), Some(bytes)) = (&step.query, &wire.requests[k]) {
                self.http.queue(bytes);
                self.query_out = Some((self.queries, now_ns, request_of(q)));
                self.queries += 1;
                query_step.push(k);
            }
            self.close(&[]);
            self.settle(limit)?;
        }
        let t1 = self.ns();
        step_ns.push(t1);
        step_tx.push(self.write_ns.len());
        self.res.phase_s = (t1 - t0) as f64 / 1e9;
        self.res.wakeups = self.el.wakeups() - wakes0;
        self.segment(segments.max(1), &step_ns, &step_tx, &query_step);
        self.finish()
    }

    fn open(&mut self, name: &'static str) {
        if let Some(t) = &mut self.res.tracer {
            t.open(name);
        }
    }

    fn close(&mut self, ids: &[u32]) {
        if let Some(t) = &mut self.res.tracer {
            t.close(ids);
        }
    }

    /// Moves virtual time to `at`, firing every deadline on the way.
    fn advance(&mut self, at: u64) -> Result<(), String> {
        if self.res.tracer.is_none() {
            let t = self.ns();
            let r = self.el.pump(at).map_err(|e| e.to_string());
            self.res.loop_ns += self.ns() - t;
            return r;
        }
        while let Some(d) = self.el.next_deadline().filter(|d| *d <= at) {
            let now = d.max(self.clock.now_ms());
            self.traced_wake(now)?;
        }
        biot_reactor::Clock::advance_to(&self.clock, at);
        Ok(())
    }

    /// One wake at the current instant: `EventLoop::turn` untraced, the
    /// members' handlers in dispatch order when traced.
    fn wake(&mut self) -> Result<(), String> {
        if self.res.tracer.is_none() {
            let t = self.ns();
            let r = self.el.turn().map_err(|e| e.to_string());
            self.res.loop_ns += self.ns() - t;
            return r;
        }
        let now = self.clock.now_ms();
        self.traced_wake(now)
    }

    /// The members' handlers in their documented one-wake order —
    /// validation `on_ingest` → `on_gossip`, then archival `on_gossip` →
    /// `on_persist` → `on_http` — each in a span under one wake span.
    fn traced_wake(&mut self, now: u64) -> Result<(), String> {
        biot_reactor::Clock::advance_to(&self.clock, now);
        let t = self.ns();
        self.open("wake");
        self.open("validation.on_ingest");
        let before = admitted(self.validation());
        self.el
            .validation_mut(self.vid)
            .expect("validation")
            .on_ingest(now)
            .map_err(|e| e.to_string())?;
        let after = admitted(self.validation());
        let ids: Vec<u32> =
            (self.admitted_cursor..self.admitted_cursor + (after - before) as u32).collect();
        self.admitted_cursor += (after - before) as u32;
        self.close(&ids);
        self.open("validation.on_gossip");
        self.el
            .validation_mut(self.vid)
            .expect("validation")
            .on_gossip(now);
        self.close(&[]);
        self.open("archival.on_gossip");
        let len0 = self
            .archival()
            .gossip()
            .tangle()
            .lock()
            .expect("tangle")
            .attach_order()
            .len();
        self.el
            .archival_mut(self.aid)
            .expect("archival")
            .on_gossip(now)
            .map_err(|e| e.to_string())?;
        let fresh: Vec<u32> = {
            let a = self.archival();
            let t = a.gossip().tangle().lock().expect("tangle");
            t.attach_order()[len0..]
                .iter()
                .filter_map(|id| self.index.get(id).copied())
                .collect()
        };
        self.close(&fresh);
        self.open("archival.on_persist");
        self.el
            .archival_mut(self.aid)
            .expect("archival")
            .on_persist()
            .map_err(|e| e.to_string())?;
        self.close(&fresh);
        self.open("archival.on_http");
        let answered = self
            .el
            .archival_mut(self.aid)
            .expect("archival")
            .on_http(now)
            .map_err(|e| e.to_string())?;
        let q: Vec<u32> = match (&self.query_out, answered) {
            (Some((qi, _, _)), n) if n > 0 => vec![*qi],
            _ => Vec::new(),
        };
        self.close(&q);
        self.close(&[]);
        self.res.loop_ns += self.ns() - t;
        self.res.wakeups += 1;
        Ok(())
    }

    fn in_flight(&self) -> bool {
        self.frame_diffs() != self.flight_base
            || self.ingest.iter().any(Client::pending)
            || self.http.pending()
    }

    fn step_done(&self) -> bool {
        self.outstanding.iter().all(VecDeque::is_empty)
            && self.unseen == 0
            && self.query_out.is_none()
    }

    /// Drives the system at the current instant (and, when only timers
    /// can make progress, through later deadlines up to `limit`) until
    /// every ack, visibility and response of the step is in and nothing
    /// is in flight.
    fn settle(&mut self, limit: u64) -> Result<(), String> {
        let mut spin_since: Option<u64> = None;
        let mut wakes = 0u32;
        loop {
            self.open("driver.client_io");
            for cl in self
                .ingest
                .iter_mut()
                .chain(std::iter::once(&mut self.http))
            {
                cl.flush()?;
            }
            self.read_acks()?;
            self.read_response()?;
            self.close(&[]);
            self.open("driver.visibility");
            self.scan_visible();
            self.close(&[]);
            self.open("driver.probe");
            let ready = self.ready_now();
            let flying = !ready && self.in_flight();
            self.close(&[]);
            if ready {
                spin_since = None;
                wakes += 1;
                if wakes > MAX_WAKES_PER_STEP {
                    return Err("wake storm: a member stays ready without progress".into());
                }
                self.wake()?;
                continue;
            }
            if flying {
                let now = self.ns();
                let since = *spin_since.get_or_insert(now);
                if now - since > STALL_NS {
                    return Err("stalled with bytes in flight".into());
                }
                continue;
            }
            if let Some(since) = spin_since.take() {
                self.res.idle_ns += self.ns() - since;
            }
            if self.step_done() {
                return Ok(());
            }
            match self.el.next_deadline() {
                Some(d) if d <= limit => {
                    let d = d.max(self.clock.now_ms());
                    if self.res.tracer.is_some() {
                        self.traced_wake(d)?;
                    } else {
                        self.advance(d)?;
                    }
                }
                other => {
                    return Err(format!(
                    "no progress possible at {} ms (next deadline {other:?}, step limit {limit}): \
                         {} frames unacked, {} txs unseen, query pending: {}",
                    self.clock.now_ms(),
                    self.outstanding.iter().map(VecDeque::len).sum::<usize>(),
                    self.unseen,
                    self.query_out.is_some()
                ))
                }
            }
        }
    }

    fn read_acks(&mut self) -> Result<(), String> {
        for conn in 0..self.ingest.len() {
            if !self.ingest[conn].fill()? {
                continue;
            }
            while let Some(body) = self.ingest[conn].pop_frame() {
                let now = self.ns();
                let Some((lo, hi)) = self.outstanding[conn].pop_front() else {
                    self.fail(format!("conn {conn}: ack with no frame outstanding"));
                    continue;
                };
                let results = match decode_server(&body) {
                    Ok(ServerMsg::Ack(r)) => r,
                    Err(e) => {
                        self.fail(format!("conn {conn}: undecodable ack: {e}"));
                        continue;
                    }
                };
                if results.len() != hi - lo {
                    self.fail(format!(
                        "conn {conn}: ack carries {} results for {}",
                        results.len(),
                        hi - lo
                    ));
                }
                for (j, r) in results.iter().enumerate().take(hi - lo) {
                    let spec = self.flat[lo + j];
                    let i = lo + j;
                    self.ack_ns[i] = now;
                    if r.code as u8 != spec.ack {
                        self.fail(format!("tx {i}: ack {:?}, twin said {}", r.code, spec.ack));
                        continue;
                    }
                    if r.code == AckCode::Accepted {
                        if r.id != Some(spec.tx.id()) {
                            self.fail(format!("tx {i}: accepted under another id"));
                        }
                        self.accepted[i] = true;
                        if self.vis_ns[i] == 0 {
                            self.unseen += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn read_response(&mut self) -> Result<(), String> {
        if self.query_out.is_none() || !self.http.fill()? {
            return Ok(());
        }
        if let Some(bytes) = self.http.pop_response() {
            let now = self.ns();
            let (qi, at, req) = self.query_out.take().expect("checked above");
            self.res.query_ms.push((now - at) as f64 / 1e6);
            self.res.queries += 1;
            self.res.resp_bytes += bytes.len() as u64;
            if !bytes.starts_with(b"HTTP/1.1 200 ") {
                let line = String::from_utf8_lossy(&bytes[..bytes.len().min(40)]).into_owned();
                self.fail(format!("query {qi} {}: {line}", req.path));
            } else if qi % ORACLE_EVERY == 0 {
                self.open("driver.oracle");
                let oracle = self.archival().oracle_response(&req);
                self.close(&[]);
                if oracle != bytes {
                    self.fail(format!(
                        "query {qi} {}: socket bytes differ from the oracle",
                        req.path
                    ));
                }
            }
        }
        Ok(())
    }

    fn scan_visible(&mut self) {
        let now = self.ns();
        let a = self.el.archival(self.aid).expect("archival member");
        let t = a.gossip().tangle().lock().expect("archival tangle");
        let order = t.attach_order();
        for id in &order[self.vis_cursor.min(order.len())..] {
            if let Some(&i) = self.index.get(id) {
                let i = i as usize;
                if self.vis_ns[i] == 0 {
                    self.vis_ns[i] = now;
                    if self.accepted[i] {
                        self.unseen -= 1;
                    }
                }
            }
        }
        self.vis_cursor = order.len();
    }

    /// Splits the phase into `k` runs of consecutive steps and records
    /// each one's rates and latency medians, so a run can report medians
    /// over them.
    fn segment(&mut self, k: usize, step_ns: &[u64], step_tx: &[usize], query_step: &[usize]) {
        let steps = step_ns.len() - 1;
        let ms = |from: u64, to: u64| (to - from) as f64 / 1e6;
        for j in 0..k.min(steps) {
            let (a, b) = (j * steps / k, (j + 1) * steps / k);
            let (lo, hi) = (step_tx[a], step_tx[b]);
            let (mut honest, mut last) = (0u64, step_ns[a]);
            let (mut ack, mut vis) = (Vec::new(), Vec::new());
            for i in lo..hi {
                if self.ack_ns[i] > 0 {
                    ack.push(ms(self.write_ns[i], self.ack_ns[i]));
                }
                if self.accepted[i] && self.vis_ns[i] > 0 {
                    last = last.max(self.vis_ns[i]);
                    honest += u64::from(self.flat[i].class == Class::Honest);
                    vis.push(ms(self.write_ns[i], self.vis_ns[i]));
                }
            }
            // One query at a time, answered in issue order: the n-th latency
            // belongs to the n-th issued query.
            let query: Vec<f64> = query_step
                .iter()
                .zip(&self.res.query_ms)
                .filter(|(q, _)| (a..b).contains(*q))
                .map(|(_, &v)| v)
                .collect();
            self.res.segments.push(Segment {
                tx_per_s: honest as f64 / ((last - step_ns[a]) as f64 / 1e9).max(1e-9),
                query_per_s: query.len() as f64
                    / ((step_ns[b] - step_ns[a]) as f64 / 1e9).max(1e-9),
                ack_p50_ms: stats::median(&ack),
                visible_p50_ms: stats::median(&vis),
                query_p50_ms: stats::median(&query),
            });
        }
    }

    /// Post-phase checks and latency samples.
    fn finish(mut self) -> Result<(PhaseResult, Finished<'c>), String> {
        let c = self.c;
        for (i, spec) in c.txs().enumerate() {
            self.res.attempted += 1;
            if self.ack_ns[i] > 0 {
                self.res
                    .ack_ms
                    .push((self.ack_ns[i] - self.write_ns[i]) as f64 / 1e6);
            }
            if self.accepted[i] {
                if self.vis_ns[i] == 0 {
                    self.fail(format!("tx {i}: accepted but never visible"));
                    continue;
                }
                self.res
                    .visible_ms
                    .push((self.vis_ns[i] - self.write_ns[i]) as f64 / 1e6);
            } else if spec.class == Class::Honest {
                self.fail(format!("tx {i}: honest transaction not accepted"));
            }
        }
        self.res.attempted += self.res.queries;
        self.check_final_state();
        let res = std::mem::take(&mut self.res);
        Ok((res, Finished { rig: self }))
    }

    /// Final ledger checks: tips and weights against the twin, credit
    /// against the twin on both nodes, and the validation node's
    /// event-log replay.
    fn check_final_state(&mut self) {
        let c = self.c;
        let (tips, weights) = {
            let a = self.archival();
            let t = a.gossip().tangle().lock().expect("archival tangle");
            let mut tips = t.tips();
            tips.sort_unstable();
            (tips, crate::corpus::weights_digest(&t))
        };
        if tips != c.expect_tips {
            self.fail(format!(
                "archival tips: {} vs twin {}",
                tips.len(),
                c.expect_tips.len()
            ));
        }
        if weights != c.expect_weights {
            self.fail("archival cumulative weights differ from the twin".into());
        }
        // Replica consistency is reported, not gated: see `credit_divergent`.
        let at = biot_net::time::SimTime::from_millis(c.end_ms);
        let (live, replica) = (
            self.validation().gateway().credits(),
            self.archival().credits(),
        );
        self.res.credit_divergent = live
            .known_nodes()
            .filter(|n| {
                let (a, b) = (live.credit_of(**n, at), replica.credit_of(**n, at));
                a.positive.to_bits() != b.positive.to_bits()
                    || a.negative.to_bits() != b.negative.to_bits()
            })
            .count() as u64;
        let v = self.validation();
        let gw_weights = crate::corpus::weights_digest(v.gateway().tangle());
        let gw_credit = crate::corpus::credit_digest(v.gateway().credits(), c.end_ms);
        let replay = v.verify_replay(biot_net::time::SimTime::from_millis(c.end_ms));
        if gw_weights != c.expect_weights {
            self.fail("validation gateway weights differ from the twin".into());
        }
        if gw_credit != c.expect_credit {
            self.fail("validation gateway credit differs from the twin".into());
        }
        if let Err(e) = replay {
            self.fail(format!("verify_replay: {e}"));
        }
    }
}

/// A finished rig, kept for post-phase inspection.
pub struct Finished<'c> {
    rig: Rig<'c>,
}

/// Counters read off the finished system.
#[derive(Debug, Default)]
pub struct Counters {
    /// Gateway rejections by reason, and lazy punishments.
    pub rejected: [(&'static str, u64); 5],
    /// Lazy-tip punishments.
    pub lazy_punished: u64,
    /// Gateway tangle frontier and sealed entries.
    pub frontier_len: u64,
    /// Sealed entries.
    pub sealed_len: u64,
    /// Credit events in the validation node's log.
    pub credit_events: u64,
    /// Gossip frames sent by both nodes.
    pub gossip_frames: u64,
    /// Transaction payloads sent by the validation node.
    pub gossip_tx_sent: u64,
    /// Duplicate transactions seen by either node.
    pub gossip_duplicates: u64,
    /// Credit events the validation node sent.
    pub gossip_credit_sent: u64,
}

impl Finished<'_> {
    /// Counters from public stats.
    pub fn counters(&self) -> Counters {
        let v = self.rig.validation();
        let a = self.rig.archival();
        let g = v.gateway().stats();
        let vs = v.gossip().stats();
        let asx = a.gossip().stats();
        let t = v.gateway().tangle();
        Counters {
            rejected: [
                ("unauthorized", g.rejected_unauthorized),
                ("bad_signature", g.rejected_bad_signature),
                ("insufficient_pow", g.rejected_insufficient_pow),
                ("rate_limited", g.rejected_rate_limited),
                ("ledger", g.rejected_ledger),
            ],
            lazy_punished: g.lazy_punished,
            frontier_len: t.frontier_len() as u64,
            sealed_len: t.sealed_len() as u64,
            credit_events: v.credit_log().len() as u64,
            gossip_frames: vs.frames_out + asx.frames_out,
            gossip_tx_sent: vs.tx_sent,
            gossip_duplicates: vs.duplicates + asx.duplicates,
            gossip_credit_sent: vs.credit_events_sent,
        }
    }

    /// The validation node's credit log.
    pub fn credit_log(&self) -> Vec<biot_credit::CreditEvent> {
        self.rig.validation().credit_log().to_vec()
    }

    /// The archival node's in-process rendering of `q`.
    pub fn oracle(&self, q: &QuerySpec) -> Vec<u8> {
        self.rig.archival().oracle_response(&request_of(q))
    }

    /// The archival store directory.
    pub fn store_dir(&self) -> &Path {
        &self.rig.store_dir
    }

    /// Checkpoints the archival store (snapshot + WAL reset).
    ///
    /// # Errors
    ///
    /// Store failures.
    pub fn checkpoint(&mut self) -> Result<(), String> {
        let aid = self.rig.aid;
        let node = self.rig.el.archival_mut(aid).expect("archival member");
        node.checkpoint().map_err(|e| e.to_string())
    }

    /// Transactions the archival node holds beyond the boot state.
    pub fn archival_len(&self) -> usize {
        self.rig
            .archival()
            .gossip()
            .tangle()
            .lock()
            .expect("tangle")
            .len()
    }
}

fn admitted(v: &ValidationNode) -> u64 {
    let g = v.gateway().stats();
    g.accepted
        + g.rejected_unauthorized
        + g.rejected_bad_signature
        + g.rejected_insufficient_pow
        + g.rejected_rate_limited
        + g.rejected_ledger
}

/// The parsed request the HTTP server sees for `q`.
pub fn request_of(q: &QuerySpec) -> Request {
    Request {
        method: "GET".into(),
        path: q.path.clone(),
        query: q.query.clone(),
        keep_alive: true,
    }
}
