//! Real-socket transport over `std::net` TCP — plain blocking sockets
//! switched to non-blocking mode and polled, so no async runtime is
//! needed and the same poll-driven [`crate::node::GossipNode`] loop that
//! drives in-memory tests drives production sockets.
//!
//! Framing on the wire is a 4-byte big-endian length prefix followed by
//! one [`crate::wire`] message. The length is validated against
//! [`MAX_FRAME_BYTES`] before any buffering, so a garbage peer cannot
//! make us allocate unboundedly.

use crate::transport::{Connector, Dialer, Transport, TransportError};
use crate::wire::MAX_FRAME_BYTES;
use biot_reactor::Interest;
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

/// Once this many consumed bytes sit in front of the rx read cursor, the
/// buffer is compacted (one memmove). Consuming frames merely advances
/// the cursor, so compaction cost is amortized: each received byte is
/// moved at most once per `RX_COMPACT_THRESHOLD` bytes consumed — O(1)
/// amortized per byte, where the old `Vec::drain`-per-frame scheme moved
/// the whole residual buffer on every frame (quadratic under many small
/// frames).
const RX_COMPACT_THRESHOLD: usize = 64 * 1024;

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
    /// Unparsed inbound bytes. `rx[rx_pos..]` is live; `rx[..rx_pos]` has
    /// been consumed and awaits amortized compaction.
    rx: Vec<u8>,
    /// Read cursor into `rx` (see [`RX_COMPACT_THRESHOLD`]).
    rx_pos: usize,
    /// Total bytes ever moved by rx compaction — diagnostics for the
    /// amortization proof (tests assert this stays linear in traffic).
    rx_compacted: u64,
    /// Outbound bytes the socket has not accepted yet (≤
    /// [`MAX_TX_BUFFER_BYTES`]).
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
            rx: Vec::new(),
            rx_pos: 0,
            rx_compacted: 0,
            tx: Vec::new(),
            open: true,
            peer,
        }
    }

    /// Unflushed outbound bytes currently queued (diagnostics and
    /// backpressure accounting; always ≤ [`MAX_TX_BUFFER_BYTES`]).
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
        self.rx_compacted
    }

    /// Whether the rx buffer already holds a complete frame — i.e. the
    /// next [`Transport::try_recv`] would produce a frame (or a framing
    /// error) without the socket saying anything new. Event loops that
    /// budget frames per tick need this: a level-triggered poller only
    /// reports *kernel* readiness, so frames drained into userspace but
    /// not yet decoded must be revisited explicitly.
    pub fn has_buffered_frame(&self) -> bool {
        let live = &self.rx[self.rx_pos..];
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
                Ok(n) => self.rx.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.open = false;
                    return Err(to_transport_err(&e));
                }
            }
        }
    }

    /// Extracts one complete frame from the rx buffer, if present.
    ///
    /// Consumption advances `rx_pos`; the dead prefix is memmoved out
    /// only once it exceeds [`RX_COMPACT_THRESHOLD`], so a burst of many
    /// small frames costs O(bytes) total instead of O(frames × residual).
    fn pop_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let live = &self.rx[self.rx_pos..];
        if live.len() < 4 {
            self.maybe_compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([live[0], live[1], live[2], live[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            self.open = false;
            return Err(TransportError::TooLarge(len));
        }
        if live.len() < 4 + len {
            self.maybe_compact();
            return Ok(None);
        }
        let frame = live[4..4 + len].to_vec();
        self.rx_pos += 4 + len;
        self.maybe_compact();
        Ok(Some(frame))
    }

    /// Drops the consumed prefix when it is large enough to amortize, or
    /// trivially when nothing live remains.
    fn maybe_compact(&mut self) {
        if self.rx_pos == 0 {
            return;
        }
        let live = self.rx.len() - self.rx_pos;
        if live == 0 {
            self.rx.clear();
            self.rx_pos = 0;
        } else if self.rx_pos >= RX_COMPACT_THRESHOLD && self.rx_pos >= live {
            // Only compact once the dead prefix outweighs the live bytes:
            // the memmove then costs at most the bytes consumed since the
            // last compaction, i.e. O(1) amortized per received byte.
            self.rx_compacted += live as u64;
            self.rx.drain(..self.rx_pos);
            self.rx_pos = 0;
        }
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
        server.rx.extend_from_slice(&3u32.to_be_bytes());
        server.rx.extend_from_slice(b"one");
        server.rx.extend_from_slice(&3u32.to_be_bytes());
        server.rx.extend_from_slice(b"two");
        assert!(server.has_buffered_frame());
        assert_eq!(server.pop_frame().unwrap().unwrap(), b"one");
        assert!(
            server.has_buffered_frame(),
            "second frame still parked after popping the first"
        );
        assert_eq!(server.pop_frame().unwrap().unwrap(), b"two");
        assert!(!server.has_buffered_frame(), "drained");

        // Partial header, then partial payload: not yet a frame.
        server.rx.extend_from_slice(&10u32.to_be_bytes()[..2]);
        assert!(!server.has_buffered_frame());
        server.rx.extend_from_slice(&10u32.to_be_bytes()[2..]);
        server.rx.extend_from_slice(&[0u8; 9]);
        assert!(!server.has_buffered_frame());
        server.rx.extend_from_slice(&[0u8; 1]);
        assert!(server.has_buffered_frame());
        assert_eq!(server.pop_frame().unwrap().unwrap(), vec![0u8; 10]);

        // An oversized length prefix is "buffered": the pending error
        // must be revisited, not parked forever.
        server.rx.extend_from_slice(&u32::MAX.to_be_bytes());
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
