//! Real-socket transport over `std::net` TCP — plain blocking sockets
//! switched to non-blocking mode and polled, so no async runtime is
//! needed and the same poll-driven [`crate::node::GossipNode`] loop that
//! drives in-memory tests drives production sockets.
//!
//! Framing on the wire is a 4-byte big-endian length prefix followed by
//! one [`crate::wire`] message. The length is validated against
//! [`MAX_FRAME_BYTES`] before any buffering, so a garbage peer cannot
//! make us allocate unboundedly.
//!
//! [`ConnTable`] is the connection lifecycle the ingest and HTTP servers
//! share.

use crate::transport::{Connector, Dialer, Transport, TransportError};
use crate::wire::MAX_FRAME_BYTES;
use biot_reactor::{build_poller, Event, Interest, Poller, PollerKind};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};

/// Cap on unflushed outbound bytes per connection. A peer that stops
/// reading (stalled reader, routing black hole) would otherwise grow the
/// `tx` queue without bound; once queuing a frame would cross this cap,
/// [`TcpTransport::send`] refuses it with
/// [`TransportError::Backpressure`] instead of buffering.
pub const MAX_TX_BUFFER_BYTES: usize = 4 << 20;

/// Once this many consumed bytes sit in front of an [`RxBuf`]'s read
/// cursor, the buffer is compacted (one memmove).
const RX_COMPACT_THRESHOLD: usize = 64 * 1024;

/// An inbound byte buffer consumed from the front, shared by
/// [`TcpTransport`]'s frame decoder and the HTTP request parser.
/// Consuming advances a cursor, and the dead prefix is compacted away in
/// amortized batches: each byte moves O(1) times, where a `Vec::drain`
/// per message moves the whole residual buffer every time (quadratic
/// under many small messages).
#[derive(Debug, Default)]
pub struct RxBuf {
    /// `buf[pos..]` is live; `buf[..pos]` awaits compaction.
    buf: Vec<u8>,
    pos: usize,
    /// Total bytes ever moved by compaction.
    compacted: u64,
}

impl RxBuf {
    /// The bytes not consumed yet.
    pub fn live(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the first `n` live bytes. The dead prefix is memmoved out
    /// once it exceeds 64 KiB and outweighs the live bytes, so a memmove
    /// costs at most the bytes consumed since the last.
    ///
    /// # Panics
    ///
    /// If `n` exceeds the live bytes.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.live().len(), "consumed past the live bytes");
        self.pos += n;
        let live = self.buf.len() - self.pos;
        if live == 0 {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= RX_COMPACT_THRESHOLD && self.pos >= live {
            self.compacted += live as u64;
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Total bytes ever moved compacting (linear in bytes received).
    pub fn compacted_bytes(&self) -> u64 {
        self.compacted
    }
}

fn to_transport_err(e: &io::Error) -> TransportError {
    match e.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => TransportError::Closed,
        kind => TransportError::Io(kind),
    }
}

/// A non-blocking, length-prefixed TCP connection.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    /// Unparsed inbound bytes.
    rx: RxBuf,
    /// Outbound bytes the socket has not accepted yet (≤
    /// [`MAX_TX_BUFFER_BYTES`] of frames, plus whatever
    /// [`TcpTransport::queue_raw`] added).
    tx: Vec<u8>,
    open: bool,
    peer: String,
}

impl TcpTransport {
    /// Dials `addr` (blocking connect, then non-blocking I/O).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted or connected stream.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self::accepted(stream))
    }

    /// Wraps a stream from [`TcpAcceptor::accept_burst`], which already
    /// set it non-blocking and no-delay.
    pub fn accepted(stream: TcpStream) -> Self {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".to_string());
        Self {
            stream,
            rx: RxBuf::default(),
            tx: Vec::new(),
            open: true,
            peer,
        }
    }

    /// Unflushed outbound bytes currently queued (diagnostics and
    /// backpressure accounting; ≤ [`MAX_TX_BUFFER_BYTES`] unless
    /// [`TcpTransport::queue_raw`] added them).
    pub fn pending_tx_bytes(&self) -> usize {
        self.tx.len()
    }

    /// Pushes queued outbound bytes into the socket without blocking —
    /// for event loops reacting to a writability notification.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] or I/O failures; never backpressure.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::Closed);
        }
        self.flush_tx()
    }

    /// Total bytes ever moved compacting the inbound buffer — stays
    /// linear in bytes received (amortization diagnostics).
    pub fn rx_compacted_bytes(&self) -> u64 {
        self.rx.compacted_bytes()
    }

    /// Reads what the socket has ready and hands every unread byte to
    /// `sink`, for a protocol that is not length-prefixed (HTTP). After
    /// the peer's EOF, [`Transport::is_open`] is false.
    ///
    /// # Errors
    ///
    /// I/O failures; the transport is closed.
    pub fn recv_raw<R>(&mut self, sink: impl FnOnce(&[u8]) -> R) -> Result<R, TransportError> {
        if self.open {
            self.fill_rx()?;
        }
        let out = sink(self.rx.live());
        self.rx.consume(self.rx.live().len());
        Ok(out)
    }

    /// Queues bytes for [`TcpTransport::flush`] with no length prefix and
    /// no cap: the caller bounds them.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.tx.extend_from_slice(bytes);
    }

    /// Whether the rx buffer already holds a complete frame — i.e. the
    /// next [`Transport::try_recv`] would produce a frame (or a framing
    /// error) without the socket saying anything new. Event loops that
    /// budget frames per tick need this: a level-triggered poller only
    /// reports *kernel* readiness, so frames drained into userspace but
    /// not yet decoded must be revisited explicitly.
    pub fn has_buffered_frame(&self) -> bool {
        let live = self.rx.live();
        if live.len() < 4 {
            return false;
        }
        let len = u32::from_be_bytes([live[0], live[1], live[2], live[3]]) as usize;
        // An oversized prefix counts: the pending TooLarge error must
        // surface without waiting for more bytes.
        len > MAX_FRAME_BYTES || live.len() >= 4 + len
    }

    /// The raw socket fd, for readiness registration with an event loop
    /// (see `biot-ingest`). The transport keeps ownership; do not close it.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Pushes queued outbound bytes into the socket without blocking.
    fn flush_tx(&mut self) -> Result<(), TransportError> {
        while !self.tx.is_empty() {
            match self.stream.write(&self.tx) {
                Ok(0) => {
                    self.open = false;
                    return Err(TransportError::Closed);
                }
                Ok(n) => {
                    self.tx.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(to_transport_err(&e));
                }
            }
        }
        Ok(())
    }

    /// Reads whatever the socket has ready into the rx buffer.
    fn fill_rx(&mut self) -> Result<(), TransportError> {
        let mut buf = [0u8; 8192];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.open = false;
                    return Ok(()); // EOF; parsed frames still drain
                }
                Ok(n) => {
                    self.rx.extend(&buf[..n]);
                    // A short read drained the socket: one more would
                    // only earn a WouldBlock.
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(to_transport_err(&e));
                }
            }
        }
    }

    /// Extracts one complete frame from the rx buffer, if present. A
    /// burst of many small frames costs O(bytes) total (see [`RxBuf`]).
    fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let live = self.rx.live();
        if live.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([live[0], live[1], live[2], live[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            self.open = false;
            return Err(TransportError::TooLarge(len));
        }
        if live.len() < 4 + len {
            return Ok(None);
        }
        let frame = live[4..4 + len].to_vec();
        self.rx.consume(4 + len);
        Ok(Some(frame))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::Closed);
        }
        if frame.len() > MAX_FRAME_BYTES {
            return Err(TransportError::TooLarge(frame.len()));
        }
        if self.tx.len() + 4 + frame.len() > MAX_TX_BUFFER_BYTES {
            // Give the socket one chance to drain before refusing.
            self.flush_tx()?;
            if self.tx.len() + 4 + frame.len() > MAX_TX_BUFFER_BYTES {
                return Err(TransportError::Backpressure { buffered: self.tx.len() });
            }
        }
        self.tx.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        self.tx.extend_from_slice(frame);
        self.flush_tx()
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if self.open {
            self.flush_tx()?;
            self.fill_rx()?;
        }
        if let Some(frame) = self.pop_frame()? {
            return Ok(Some(frame));
        }
        if !self.open {
            return Err(TransportError::Closed);
        }
        Ok(None)
    }

    fn is_open(&self) -> bool {
        self.open
    }

    fn close(&mut self) {
        self.open = false;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn label(&self) -> String {
        format!("tcp:{}", self.peer)
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.stream.as_raw_fd())
    }

    fn wants_write(&self) -> bool {
        self.open && !self.tx.is_empty()
    }

    fn has_pending_input(&self) -> bool {
        self.has_buffered_frame()
    }
}

/// How long an acceptor stays parked after a listener-wide accept
/// failure (fd exhaustion and kin). Level-triggered readiness would
/// otherwise re-fire the doomed accept every wake; parking trades a
/// short admission delay for not hot-spinning while the failure lasts.
pub const ACCEPT_BACKOFF_MS: u64 = 50;

/// What an acceptor dropped or deferred, cumulative since bind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcceptStats {
    /// Connections lost during accept: aborted or reset in the backlog,
    /// an interrupted `accept(2)`, or a socket option that would not set.
    pub conn_errors: u64,
    /// Listener-wide failures (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`,
    /// …); each parked the acceptor for [`ACCEPT_BACKOFF_MS`].
    pub listener_errors: u64,
    /// Connections closed at once because the owner had no room.
    pub refused: u64,
}

/// The accept policy, apart from the socket so tests can script it.
#[derive(Debug, Default)]
struct AcceptGate {
    /// When a parked acceptor retries (absolute ms); `None` while
    /// accepting.
    resume_at: Option<u64>,
    stats: AcceptStats,
}

impl AcceptGate {
    /// Pulls up to `burst` results from `accept` and keeps at most
    /// `room` connections that `setup` accepts. Never fails: see
    /// [`TcpAcceptor::accept_burst`].
    fn burst<S>(
        &mut self,
        now_ms: u64,
        burst: usize,
        room: usize,
        mut accept: impl FnMut() -> io::Result<S>,
        mut setup: impl FnMut(&S) -> io::Result<()>,
    ) -> Vec<S> {
        if self.resume_at.is_some_and(|at| now_ms < at) {
            return Vec::new();
        }
        self.resume_at = None;
        let mut kept = Vec::new();
        for _ in 0..burst {
            let conn = match accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // The connection at the head of the backlog died before
                // we got to it — its failure, not the listener's.
                Err(e) if is_per_connection(&e) => {
                    self.stats.conn_errors += 1;
                    continue;
                }
                // Resource exhaustion: the pending connection stays in
                // the backlog and the next accept would fail the same
                // way. Keep what this burst got and park.
                Err(_) => {
                    self.stats.listener_errors += 1;
                    self.resume_at = Some(now_ms.saturating_add(ACCEPT_BACKOFF_MS));
                    break;
                }
            };
            if kept.len() >= room {
                self.stats.refused += 1; // dropping it closes it
            } else if setup(&conn).is_err() {
                self.stats.conn_errors += 1;
            } else {
                kept.push(conn);
            }
        }
        kept
    }
}

/// Whether an accept failure concerns only the connection being accepted
/// (skip it, keep accepting) rather than the listener or the process
/// (park: fd or memory exhaustion persists across retries).
fn is_per_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
    )
}

/// Accepts inbound connections without blocking — the one place in the
/// workspace that calls `accept(2)`, shared by the gossip acceptors, the
/// ingest front end and the HTTP query endpoint.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
    gate: AcceptGate,
}

impl TcpAcceptor {
    /// Binds a listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener, gate: AcceptGate::default() })
    }

    /// The bound address (for handing to peers in tests).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts up to `burst` pending connections and returns at most
    /// `room` of them as non-blocking, no-delay streams, so a dial burst
    /// drains in one wake. Never blocks and never fails:
    ///
    /// * a failure that belongs to one connection (aborted or reset in
    ///   the backlog, an interrupted accept, a socket option that would
    ///   not set) is skipped and counted;
    /// * any other failure (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`, …)
    ///   is counted and parks the acceptor until `now_ms +`
    ///   [`ACCEPT_BACKOFF_MS`]; streams accepted earlier in the burst
    ///   are still returned;
    /// * connections beyond `room` are closed and counted.
    ///
    /// While parked this returns nothing without touching the socket.
    /// The owner registers a parked acceptor's fd with
    /// [`Interest::NONE`] (see [`TcpAcceptor::interest`]) and wakes at
    /// [`TcpAcceptor::resume_at`].
    pub fn accept_burst(&mut self, now_ms: u64, burst: usize, room: usize) -> Vec<TcpStream> {
        let listener = &self.listener;
        self.gate.burst(
            now_ms,
            burst,
            room,
            || listener.accept().map(|(stream, _)| stream),
            |stream| {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)
            },
        )
    }

    /// When a parked acceptor retries (absolute ms); `None` while
    /// accepting.
    pub fn resume_at(&self) -> Option<u64> {
        self.gate.resume_at
    }

    /// The readiness interest the listener fd should be registered with:
    /// read while accepting, none while parked.
    pub fn interest(&self) -> Interest {
        if self.gate.resume_at.is_some() {
            Interest::NONE
        } else {
            Interest::READ
        }
    }

    /// Cumulative accept-path drops.
    pub fn stats(&self) -> AcceptStats {
        self.gate.stats
    }

    /// The raw listener fd, for readiness registration with an event loop
    /// (see `biot-ingest`). The acceptor keeps ownership; do not close it.
    #[cfg(unix)]
    pub fn raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

/// Token under which a [`ConnTable`]'s listener is registered.
const LISTENER_TOKEN: usize = usize::MAX;

/// The lifecycle values of one [`ConnTable`]; each server passes its own.
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Open-connection cap (also the `listen(2)` backlog).
    pub max_conns: usize,
    /// Most connections accepted per wake.
    pub accept_burst: usize,
    /// Silence (ms) after which the sweep closes a connection; `0` never.
    pub idle_timeout_ms: u64,
    /// How often the idle sweep runs (ms).
    pub sweep_every_ms: u64,
    /// Whether the sweep stays scheduled while no connection is open.
    pub sweep_when_empty: bool,
}

/// A [`ConnTable`]'s lifecycle counters, cumulative since bind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// The acceptor's drops.
    pub accept: AcceptStats,
    /// Connections accepted and registered.
    pub accepted: u64,
    /// Accepted connections the poller would not register (closed).
    pub unregistered: u64,
    /// Connections closed for any reason but the idle timeout.
    pub dropped: u64,
    /// Connections closed by the idle timeout.
    pub timed_out: u64,
}

/// One connection of a [`ConnTable`].
#[derive(Debug)]
pub struct Conn<S> {
    /// The socket and its buffers.
    pub transport: TcpTransport,
    /// The server's protocol state.
    pub state: S,
    /// Reads suspended; a hang-up reaps the connection at once.
    pub paused: bool,
    /// When (ms) the client last did something, for the idle sweep.
    pub last_activity_ms: u64,
    /// Interest currently registered with the poller.
    interest: Interest,
}

/// A listener and the connections it accepted: the lifecycle around a
/// server's protocol, shared by the ingest front end and the HTTP query
/// endpoint. It owns the [`TcpAcceptor`] and a nested poller (whose own
/// fd an outer event loop watches), the connections by token, their
/// registered interest, the reap of a paused connection whose peer hung
/// up (`EPOLLHUP` ignores the interest mask, so the dead socket would
/// re-fire every wake until the idle sweep got to it), a resume list for
/// work already buffered in userspace (which a level-triggered poller
/// never reports), and the idle sweep. The server reads and writes the
/// connections [`ConnTable::poll`] hands back.
pub struct ConnTable<S> {
    acceptor: TcpAcceptor,
    poller: Box<dyn Poller>,
    conns: HashMap<usize, Conn<S>>,
    next_token: usize,
    limits: ConnLimits,
    events: Vec<Event>,
    resume: Vec<usize>,
    last_sweep_ms: u64,
    polled_ms: u64,
    stats: ConnStats,
}

impl<S> std::fmt::Debug for ConnTable<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnTable").field("conns", &self.conns.len()).finish_non_exhaustive()
    }
}

impl<S: Default> ConnTable<S> {
    /// Binds the listener and sets up the poller.
    ///
    /// # Errors
    ///
    /// Socket or poller-creation failures.
    pub fn bind(addr: impl ToSocketAddrs, limits: ConnLimits) -> io::Result<Self> {
        let acceptor = TcpAcceptor::bind(addr)?;
        // Deepen the kernel accept backlog to the connection cap: std's
        // 128 overflows under a fleet-sized dial burst, and every dropped
        // SYN costs that client a ~1 s retransmission stall.
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        biot_reactor::sys::listen(
            acceptor.raw_fd(),
            i32::try_from(limits.max_conns).unwrap_or(i32::MAX),
        )?;
        let mut poller = build_poller(PollerKind::Epoll)?;
        poller.register(acceptor.raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(Self {
            acceptor,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            limits,
            events: Vec::new(),
            resume: Vec::new(),
            last_sweep_ms: 0,
            polled_ms: 0,
            stats: ConnStats::default(),
        })
    }

    /// Waits up to `timeout_ms` for readiness, accepts, and reaps paused
    /// connections that hung up. Returns what the server must service:
    /// the resume list (as readable), then the other connection events.
    ///
    /// # Errors
    ///
    /// Poller failures.
    pub fn poll(&mut self, now_ms: u64, timeout_ms: i32) -> io::Result<Vec<Event>> {
        // The resume list produces no kernel readiness, and a parked
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
        self.polled_ms = now_ms;
        if self.acceptor.resume_at().is_some_and(|at| now_ms >= at) {
            self.accept(now_ms);
        }
        let mut ready: Vec<Event> = self
            .resume
            .drain(..)
            .map(|token| Event { token, readable: true, writable: false, hangup: false })
            .collect();
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                self.accept(now_ms);
            } else if ev.hangup && self.conns.get(&ev.token).is_some_and(|c| c.paused) {
                self.close(ev.token);
            } else {
                ready.push(*ev);
            }
        }
        self.events = events;
        Ok(ready)
    }

    fn accept(&mut self, now_ms: u64) {
        let listening = self.acceptor.interest();
        let room = self.limits.max_conns.saturating_sub(self.conns.len());
        let streams = self.acceptor.accept_burst(now_ms, self.limits.accept_burst, room);
        if self.acceptor.interest() != listening {
            // Parked (drop read interest so the doomed accept stops
            // re-firing) or re-armed after the backoff.
            let _ = self.poller.reregister(
                self.acceptor.raw_fd(),
                LISTENER_TOKEN,
                self.acceptor.interest(),
            );
        }
        for stream in streams {
            let mut transport = TcpTransport::accepted(stream);
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.register(transport.raw_fd(), token, Interest::READ).is_err() {
                transport.close();
                self.stats.unregistered += 1;
                continue;
            }
            self.stats.accepted += 1;
            let conn = Conn {
                transport,
                state: S::default(),
                paused: false,
                last_activity_ms: now_ms,
                interest: Interest::READ,
            };
            self.conns.insert(token, conn);
        }
    }
}

impl<S> ConnTable<S> {
    /// The bound listening address.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.acceptor.local_addr()
    }

    /// The nested poller's own fd, when it has one (epoll).
    pub fn poller_fd(&self) -> Option<RawFd> {
        self.poller.raw_fd()
    }

    /// Earliest instant (absolute ms) of work that kernel readiness will
    /// not signal: the resume list (due at the last poll's instant), a
    /// parked listener's re-arm, or the next idle sweep.
    pub fn next_deadline(&self) -> Option<u64> {
        if !self.resume.is_empty() {
            return Some(self.polled_ms);
        }
        let sweep = (self.limits.sweep_when_empty || !self.conns.is_empty())
            .then_some(self.last_sweep_ms + self.limits.sweep_every_ms);
        [self.acceptor.resume_at(), sweep].into_iter().flatten().min()
    }

    /// Cumulative lifecycle counters.
    pub fn stats(&self) -> ConnStats {
        ConnStats { accept: self.acceptor.stats(), ..self.stats }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// The connection behind `token`, while it is open.
    pub fn get_mut(&mut self, token: usize) -> Option<&mut Conn<S>> {
        self.conns.get_mut(&token)
    }

    /// Every open connection with its token.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut Conn<S>)> {
        self.conns.iter_mut().map(|(&token, conn)| (token, conn))
    }

    /// Hands `token` back from the next [`ConnTable::poll`] as readable.
    pub fn resume(&mut self, token: usize) {
        if !self.resume.contains(&token) {
            self.resume.push(token);
        }
    }

    /// Flushes a connection and returns it, or closes it on a write
    /// failure. The caller then updates its interest.
    pub fn flush(&mut self, token: usize) -> Option<&mut Conn<S>> {
        if self.conns.get_mut(&token)?.transport.flush().is_err() {
            self.close(token);
            return None;
        }
        self.conns.get_mut(&token)
    }

    /// Registers the interest `paused` and unflushed bytes call for, if it
    /// changed; a poller that refuses closes the connection.
    pub fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let desired = Interest {
            readable: !conn.paused,
            writable: conn.transport.pending_tx_bytes() > 0,
        };
        if desired == conn.interest {
            return;
        }
        conn.interest = desired;
        if self.poller.reregister(conn.transport.raw_fd(), token, desired).is_err() {
            self.close(token);
        }
    }

    /// Closes a connection, counted as dropped.
    pub fn close(&mut self, token: usize) {
        self.remove(token, false);
    }

    /// Runs the idle sweep if it is due. Returns whether it ran.
    pub fn sweep(&mut self, now_ms: u64) -> bool {
        if now_ms.saturating_sub(self.last_sweep_ms) < self.limits.sweep_every_ms {
            return false;
        }
        self.last_sweep_ms = now_ms;
        let timeout = self.limits.idle_timeout_ms;
        if timeout != 0 {
            let idle: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, c)| now_ms.saturating_sub(c.last_activity_ms) > timeout)
                .map(|(&token, _)| token)
                .collect();
            for token in idle {
                self.remove(token, true);
            }
        }
        true
    }

    fn remove(&mut self, token: usize, timed_out: bool) {
        let Some(mut conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.transport.raw_fd());
        conn.transport.close();
        if timed_out {
            self.stats.timed_out += 1;
        } else {
            self.stats.dropped += 1;
        }
    }
}

/// Redials a fixed address — plug into
/// [`crate::node::GossipNode::connect`] for reconnect-with-backoff.
#[derive(Clone, Debug)]
pub struct TcpConnector {
    /// Address to dial.
    pub addr: SocketAddr,
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        match TcpTransport::connect(self.addr) {
            Ok(t) => Ok(Box::new(t)),
            Err(e) => Err(to_transport_err(&e)),
        }
    }

    fn label(&self) -> String {
        format!("tcp:{}", self.addr)
    }
}

/// Dials addresses learned from peer exchange — plug into
/// [`crate::node::GossipNode::set_dialer`] so gossiped `host:port`
/// strings become live TCP links.
#[derive(Clone, Debug, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&mut self, addr: &str) -> Result<Box<dyn Transport>, TransportError> {
        match TcpTransport::connect(addr) {
            Ok(t) => Ok(Box::new(t)),
            Err(e) => Err(to_transport_err(&e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls `f` until it returns Some, with a hard wall-clock bound so a
    /// regression hangs the test for seconds, not forever.
    fn poll_until<T>(mut f: impl FnMut() -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Some(v) = f() {
                return v;
            }
            assert!(std::time::Instant::now() < deadline, "poll_until timed out");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Waits for one inbound connection on `acceptor`.
    fn accept_one(acceptor: &mut TcpAcceptor) -> TcpTransport {
        poll_until(|| acceptor.accept_burst(0, 1, 1).pop().map(TcpTransport::accepted))
    }

    #[test]
    fn loopback_roundtrip_and_partial_frames() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        let mut server = accept_one(&mut acceptor);

        // A frame big enough to straddle several reads.
        let big = vec![0xABu8; 100_000];
        client.send(&big).unwrap();
        client.send(b"tail").unwrap();
        let got = poll_until(|| server.try_recv().unwrap());
        assert_eq!(got, big);
        let tail = poll_until(|| server.try_recv().unwrap());
        assert_eq!(tail, b"tail");

        server.send(b"pong").unwrap();
        let pong = poll_until(|| client.try_recv().unwrap());
        assert_eq!(pong, b"pong");
    }

    #[test]
    fn peer_shutdown_surfaces_as_closed() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        let mut server = accept_one(&mut acceptor);
        client.send(b"bye").unwrap();
        client.close();
        let got = poll_until(|| server.try_recv().unwrap());
        assert_eq!(got, b"bye");
        let closed = poll_until(|| match server.try_recv() {
            Err(TransportError::Closed) => Some(true),
            Ok(None) => None,
            other => panic!("unexpected: {other:?}"),
        });
        assert!(closed);
        assert!(!server.is_open());
    }

    #[test]
    fn slow_reader_hits_backpressure_not_unbounded_buffering() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        // Accept the peer but never read from it: the OS socket buffers
        // fill, then the client's tx queue, then send must refuse.
        let _server = accept_one(&mut acceptor);

        let frame = vec![0x5Au8; 256 * 1024];
        let mut refused = None;
        // 64 MiB of attempts — far beyond socket buffers + the 4 MiB cap,
        // so a regression to unbounded buffering fails the assert below.
        for _ in 0..256 {
            match client.send(&frame) {
                Ok(()) => {}
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        match refused {
            Some(TransportError::Backpressure { buffered }) => {
                assert!(buffered <= MAX_TX_BUFFER_BYTES);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert!(client.pending_tx_bytes() <= MAX_TX_BUFFER_BYTES);
        assert!(client.is_open(), "backpressure must not kill the connection");
    }

    #[test]
    fn many_small_frames_compact_amortized_not_quadratic() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        let mut server = accept_one(&mut acceptor);

        // 50k 16-byte frames = 1 MB of traffic. The old drain-per-frame
        // scheme memmoved the whole residual buffer per frame — O(n²),
        // potentially ~GBs moved. The cursor scheme moves each byte at
        // most once per RX_COMPACT_THRESHOLD consumed, so total compacted
        // bytes stay below a small multiple of bytes received.
        const FRAMES: usize = 50_000;
        let frame = [0xC3u8; 16];
        let mut sent = 0usize;
        let mut got = 0usize;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while got < FRAMES {
            while sent < FRAMES {
                match client.send(&frame) {
                    Ok(()) => sent += 1,
                    Err(TransportError::Backpressure { .. }) => break,
                    Err(e) => panic!("send failed: {e:?}"),
                }
            }
            while let Some(f) = server.try_recv().unwrap() {
                assert_eq!(f, frame);
                got += 1;
            }
            assert!(std::time::Instant::now() < deadline, "throughput collapsed");
        }
        let wire_bytes = (FRAMES * (4 + frame.len())) as u64;
        assert!(
            server.rx_compacted_bytes() <= 2 * wire_bytes,
            "compaction moved {} bytes for {} received — not amortized",
            server.rx_compacted_bytes(),
            wire_bytes
        );
    }

    #[test]
    fn buffered_frame_detection_tracks_rx_state() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let _client = TcpTransport::connect(addr).unwrap();
        let mut server = accept_one(&mut acceptor);

        // Stuff the rx buffer directly (same module, so internals are
        // reachable) — the socket never has to cooperate, which keeps
        // the multi-frames-in-one-fill case deterministic.
        assert!(!server.has_buffered_frame(), "empty buffer");
        server.rx.extend(&3u32.to_be_bytes());
        server.rx.extend(b"one");
        server.rx.extend(&3u32.to_be_bytes());
        server.rx.extend(b"two");
        assert!(server.has_buffered_frame());
        assert_eq!(server.pop_frame().unwrap().unwrap(), b"one");
        assert!(
            server.has_buffered_frame(),
            "second frame still parked after popping the first"
        );
        assert_eq!(server.pop_frame().unwrap().unwrap(), b"two");
        assert!(!server.has_buffered_frame(), "drained");

        // Partial header, then partial payload: not yet a frame.
        server.rx.extend(&10u32.to_be_bytes()[..2]);
        assert!(!server.has_buffered_frame());
        server.rx.extend(&10u32.to_be_bytes()[2..]);
        server.rx.extend(&[0u8; 9]);
        assert!(!server.has_buffered_frame());
        server.rx.extend(&[0u8; 1]);
        assert!(server.has_buffered_frame());
        assert_eq!(server.pop_frame().unwrap().unwrap(), vec![0u8; 10]);

        // An oversized length prefix is "buffered": the pending error
        // must be revisited, not parked forever.
        server.rx.extend(&u32::MAX.to_be_bytes());
        assert!(server.has_buffered_frame());
        assert!(matches!(server.pop_frame(), Err(TransportError::TooLarge(_))));
    }

    #[test]
    fn accept_burst_drains_in_one_call() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        // Blocking connects complete against the kernel backlog before a
        // single accept runs, so all 32 are pending at once.
        let clients: Vec<TcpStream> =
            (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let burst = |acceptor: &mut TcpAcceptor, max: usize| {
            poll_until(|| {
                let batch = acceptor.accept_burst(0, max, usize::MAX);
                if batch.is_empty() { None } else { Some(batch) }
            })
        };
        let mut accepted = burst(&mut acceptor, 64);
        // One call (plus a grace poll for straggling handshakes) gets all.
        while accepted.len() < clients.len() {
            accepted.extend(burst(&mut acceptor, 64));
        }
        assert_eq!(accepted.len(), clients.len());
        assert!(
            accepted.len() >= 2,
            "a burst must not take one tick per connection"
        );

        // The per-call bound is respected.
        for c in 0..8 {
            let _ = TcpStream::connect(addr).unwrap();
            let _ = c;
        }
        let capped = burst(&mut acceptor, 3);
        assert!(capped.len() <= 3);
    }

    #[test]
    fn accept_error_classification() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
        ] {
            assert!(is_per_connection(&io::Error::from(kind)), "{kind:?}");
        }
        // EMFILE (24 on Linux) and friends surface as uncategorized or
        // resource errors — anything unrecognized must take the backoff
        // path, never the silent-retry path.
        let emfile = io::Error::from_raw_os_error(24);
        assert!(!is_per_connection(&emfile));
        assert!(!is_per_connection(&io::Error::from(io::ErrorKind::OutOfMemory)));
        // An empty backlog ends the burst: nothing counted, nothing parked.
        let mut gate = AcceptGate::default();
        let would_block = || -> io::Result<u32> { Err(io::ErrorKind::WouldBlock.into()) };
        assert!(gate.burst(0, 64, usize::MAX, would_block, |_| Ok(())).is_empty());
        assert_eq!((gate.stats, gate.resume_at), (AcceptStats::default(), None));
    }

    /// Runs one burst over scripted accept results (then an empty
    /// backlog) with a socket setup that always succeeds.
    fn scripted(
        gate: &mut AcceptGate,
        now_ms: u64,
        burst: usize,
        room: usize,
        results: Vec<io::Result<u32>>,
    ) -> Vec<u32> {
        let mut results = std::collections::VecDeque::from(results);
        let accept = || results.pop_front().unwrap_or(Err(io::ErrorKind::WouldBlock.into()));
        gate.burst(now_ms, burst, room, accept, |_| Ok(()))
    }

    fn emfile() -> io::Result<u32> {
        Err(io::Error::from_raw_os_error(24))
    }

    #[test]
    fn burst_skips_a_dead_connection_and_keeps_what_it_got_before_exhaustion() {
        let mut gate = AcceptGate::default();
        let aborted = Err(io::ErrorKind::ConnectionAborted.into());
        let script = vec![Ok(1), aborted, Ok(2), emfile(), Ok(3)];
        let kept = scripted(&mut gate, 1_000, 64, usize::MAX, script);
        assert_eq!(kept, vec![1, 2], "both streams before EMFILE survive it");
        assert_eq!(
            gate.stats,
            AcceptStats { conn_errors: 1, listener_errors: 1, refused: 0 }
        );
        assert_eq!(gate.resume_at, Some(1_000 + ACCEPT_BACKOFF_MS));
    }

    #[test]
    fn burst_closes_and_counts_past_the_room_and_failed_setup() {
        let mut gate = AcceptGate::default();
        let kept = scripted(&mut gate, 0, 64, 2, vec![Ok(1), Ok(2), Ok(3), Ok(4)]);
        assert_eq!(kept, vec![1, 2]);
        assert_eq!(gate.stats.refused, 2);
        assert_eq!(gate.resume_at, None, "a full house is not a listener failure");

        let kept = scripted(&mut gate, 0, 2, usize::MAX, vec![Ok(7), Ok(8), Ok(9)]);
        assert_eq!(kept, vec![7, 8], "the burst bounds accept calls");

        let mut script = vec![Ok(5), Ok(6)].into_iter();
        let accept = || script.next().unwrap_or(Err(io::ErrorKind::WouldBlock.into()));
        let setup = |&c: &u32| match c {
            5 => Err(io::ErrorKind::InvalidInput.into()),
            _ => Ok(()),
        };
        let kept = gate.burst(0, 64, 8, accept, setup);
        assert_eq!(kept, vec![6], "a socket option that will not set costs one connection");
        assert_eq!(gate.stats.conn_errors, 1);
    }

    #[test]
    fn parked_gate_resumes_after_the_backoff() {
        let mut gate = AcceptGate::default();
        assert!(scripted(&mut gate, 100, 64, usize::MAX, vec![emfile()]).is_empty());
        let resume = 100 + ACCEPT_BACKOFF_MS;
        assert_eq!(gate.resume_at, Some(resume));

        // Still parked: the socket is not even asked.
        let untouched = || -> io::Result<u32> { panic!("a parked gate must not accept") };
        assert!(gate.burst(resume - 1, 64, usize::MAX, untouched, |_| Ok(())).is_empty());

        assert_eq!(scripted(&mut gate, resume, 64, usize::MAX, vec![Ok(1)]), vec![1]);
        assert_eq!(gate.resume_at, None);
        assert_eq!(gate.stats.listener_errors, 1);
    }

    #[test]
    fn parked_acceptor_drops_read_interest() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        assert_eq!(acceptor.interest(), Interest::READ);
        acceptor.gate.resume_at = Some(10);
        assert_eq!(acceptor.interest(), Interest::NONE);
        assert!(acceptor.accept_burst(9, 64, usize::MAX).is_empty());
        assert_eq!(acceptor.accept_burst(10, 64, usize::MAX).len(), 0);
        assert_eq!(acceptor.interest(), Interest::READ, "re-armed once due");
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let raw = TcpStream::connect(addr).unwrap();
        let mut server = accept_one(&mut acceptor);
        // Hand-write a frame header declaring 2 GiB.
        let mut raw = raw;
        raw.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        raw.flush().unwrap();
        let err = poll_until(|| match server.try_recv() {
            Err(e) => Some(e),
            Ok(None) => None,
            Ok(Some(f)) => panic!("got frame: {f:?}"),
        });
        assert!(matches!(err, TransportError::TooLarge(_)));
        assert!(!server.is_open());
    }
}
