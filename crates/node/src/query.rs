//! The live HTTP query endpoint: a [`TcpAcceptor`] plus a
//! [`biot_reactor::Poller`] driving per-connection [`RequestParser`]s.
//!
//! Same event-loop discipline as `biot-ingest`'s admission front end —
//! the kernel says which sockets are ready and only those are touched —
//! but the workload is inverted: tiny requests in, rendered JSON out.
//! The server owns no ledger state; every [`QueryServer::poll`] call
//! borrows an [`ApiState`] from the runtime, renders whatever requests
//! completed this tick, and queues the bytes for write-readiness.
//!
//! Connection lifecycle:
//!
//! * accept → up to `MAX_CONNECTIONS` open, the rest closed at once;
//!   fd exhaustion parks the listener (see [`TcpAcceptor::accept_burst`]);
//! * parse error → one `400`/`431` response, then close (no resync);
//! * `Connection: close` (or HTTP/1.0 without keep-alive) → respond,
//!   flush, close;
//! * pipelined requests → answered in order within one tick;
//! * response backlog over `MAX_BUFFERED` bytes → the client stops
//!   being read until its backlog drains (write backpressure);
//! * idle longer than `IDLE_TIMEOUT_MS` → reaped by a sweep every
//!   `SWEEP_EVERY_MS`.

use crate::api::{render_http, ApiState};
use crate::http::{write_response, HttpError, RequestParser};
use biot_gossip::tcp::TcpAcceptor;
use biot_reactor::{build_poller, Event, Interest, Poller, PollerKind};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;

const LISTENER_TOKEN: usize = usize::MAX;

/// Connection cap; accepts beyond it are closed immediately.
const MAX_CONNECTIONS: usize = 1_024;

/// Accepts drained per readiness event.
const ACCEPT_BURST: usize = 64;

/// Read size per `read(2)` call.
const READ_CHUNK: usize = 4 * 1_024;

/// Pending response bytes above which a connection stops being read
/// until the backlog flushes.
const MAX_BUFFERED: usize = 256 * 1_024;

/// Connections silent for this long are closed.
const IDLE_TIMEOUT_MS: u64 = 30_000;

/// How often the idle sweep runs.
const SWEEP_EVERY_MS: u64 = 1_000;

/// Lifecycle counters, cumulative since bind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the cap.
    pub refused: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Requests answered with `2xx`.
    pub ok: u64,
    /// Requests answered with `4xx`/`5xx` (including parse errors).
    pub errors: u64,
    /// Connections reaped by the idle timeout.
    pub idle_reaped: u64,
    /// Non-transient accept failures (fd exhaustion and kin); each also
    /// parks the listener for a short backoff.
    pub accept_errors: u64,
    /// Connections lost during accept: aborted or reset in the backlog,
    /// an interrupted accept, a socket option that would not set, or a
    /// failed poller registration.
    pub accept_conn_errors: u64,
}

/// What one poll tick did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryProgress {
    /// Readiness events dispatched.
    pub events: usize,
    /// Requests answered this tick.
    pub answered: usize,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Rendered-but-unsent response bytes.
    out: Vec<u8>,
    /// Close once `out` drains (parse error or `Connection: close`).
    close_after_flush: bool,
    /// Reads suspended: fatal parse error seen, or backpressure.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    last_activity_ms: u64,
}

/// The HTTP query server. Drive it with [`QueryServer::poll`] from the
/// owning runtime's event loop.
pub struct QueryServer {
    acceptor: TcpAcceptor,
    poller: Box<dyn Poller>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    stats: QueryStats,
    events: Vec<Event>,
    last_sweep_ms: u64,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl QueryServer {
    /// Binds the listener (use port 0 for ephemeral) and sets up the
    /// poller.
    ///
    /// # Errors
    ///
    /// Socket or poller-creation failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let acceptor = TcpAcceptor::bind(addr)?;
        let mut poller = build_poller(PollerKind::Epoll)?;
        poller.register(acceptor.raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        Ok(Self {
            acceptor,
            poller,
            conns: HashMap::new(),
            next_token: 0,
            stats: QueryStats::default(),
            events: Vec::new(),
            last_sweep_ms: 0,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.acceptor.local_addr()
    }

    /// The poller's own pollable descriptor, when it has one (epoll).
    /// Lets an outer event loop wake on query-socket readiness by
    /// registering this fd for READ rather than polling on a timer.
    pub fn poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.poller.raw_fd()
    }

    /// Earliest instant (absolute ms) of internal timed work: a parked
    /// listener's re-arm, or the next idle-connection sweep while
    /// connections are open. `None` when only socket readiness matters.
    pub fn next_deadline(&self) -> Option<u64> {
        let sweep = (!self.conns.is_empty()).then_some(self.last_sweep_ms + SWEEP_EVERY_MS);
        match (self.acceptor.resume_at(), sweep) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> QueryStats {
        let accept = self.acceptor.stats();
        QueryStats {
            refused: accept.refused,
            accept_errors: accept.listener_errors,
            accept_conn_errors: self.stats.accept_conn_errors + accept.conn_errors,
            ..self.stats
        }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Runs one event-loop tick: accept, read, render against `state`,
    /// flush. Blocks at most `timeout_ms` waiting for readiness.
    ///
    /// # Errors
    ///
    /// Poller failures only — per-connection I/O errors close that
    /// connection.
    pub fn poll(
        &mut self,
        state: &ApiState<'_>,
        now_ms: u64,
        timeout_ms: i32,
    ) -> io::Result<QueryProgress> {
        let mut progress = QueryProgress::default();
        let mut events = std::mem::take(&mut self.events);
        self.poller.poll(&mut events, timeout_ms)?;
        progress.events = events.len();

        // A parked listener produces no event; once its backoff is over,
        // drain whatever queued in the backlog meanwhile.
        if self.acceptor.resume_at().is_some_and(|at| now_ms >= at) {
            self.accept(now_ms);
        }
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                self.accept(now_ms);
                continue;
            }
            if ev.hangup && self.conns.get(&ev.token).is_some_and(|c| c.paused) {
                // A dead paused socket re-fires HUP forever (the interest
                // mask doesn't gate it); reap it now.
                self.close_conn(ev.token);
                continue;
            }
            if ev.writable {
                self.flush_conn(ev.token);
            }
            if ev.readable {
                self.read_conn(ev.token, state, now_ms, &mut progress);
            }
        }
        self.events = events;
        self.sweep_idle(now_ms);
        Ok(progress)
    }

    fn accept(&mut self, now_ms: u64) {
        let listening = self.acceptor.interest();
        let room = MAX_CONNECTIONS.saturating_sub(self.conns.len());
        let streams = self.acceptor.accept_burst(now_ms, ACCEPT_BURST, room);
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
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                self.stats.accept_conn_errors += 1;
                continue;
            }
            self.stats.accepted += 1;
            self.conns.insert(
                token,
                Conn {
                    stream,
                    parser: RequestParser::new(),
                    out: Vec::new(),
                    close_after_flush: false,
                    paused: false,
                    interest: Interest::READ,
                    last_activity_ms: now_ms,
                },
            );
        }
    }

    fn read_conn(
        &mut self,
        token: usize,
        state: &ApiState<'_>,
        now_ms: u64,
        progress: &mut QueryProgress,
    ) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.paused {
                return;
            }
            conn.last_activity_ms = now_ms;
            let mut chunk = vec![0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        if let Err(e) = conn.parser.push(&chunk[..n]) {
                            Self::queue_parse_error(conn, &mut self.stats, e);
                            break;
                        }
                        // Short read: the socket buffer is drained; more
                        // reading would just earn a WouldBlock.
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Answer everything that completed, in order (pipelining).
            // A half-received request on a dying socket is unanswerable,
            // so a dead connection skips straight to the close.
            while !dead && !conn.paused {
                match conn.parser.next_request() {
                    Ok(Some(req)) => {
                        let response = render_http(state, &req);
                        if response.starts_with(b"HTTP/1.1 2") {
                            self.stats.ok += 1;
                        } else {
                            self.stats.errors += 1;
                        }
                        progress.answered += 1;
                        conn.out.extend_from_slice(&response);
                        if !req.keep_alive {
                            conn.close_after_flush = true;
                            conn.paused = true;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        Self::queue_parse_error(conn, &mut self.stats, e);
                        progress.answered += 1;
                    }
                }
            }
            if conn.out.len() > MAX_BUFFERED {
                conn.paused = true;
            }
        }
        if dead {
            self.close_conn(token);
        } else {
            self.flush_conn(token);
        }
    }

    /// One error response, then never read this peer again.
    fn queue_parse_error(conn: &mut Conn, stats: &mut QueryStats, e: HttpError) {
        let (status, reason) = e.status();
        let body = format!("{{\"error\":\"{e}\"}}");
        write_response(
            &mut conn.out,
            status,
            reason,
            "application/json",
            body.as_bytes(),
            false,
        );
        conn.close_after_flush = true;
        conn.paused = true;
        stats.errors += 1;
    }

    fn flush_conn(&mut self, token: usize) {
        let mut close = false;
        let mut want = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close {
                if conn.out.is_empty() {
                    if conn.close_after_flush {
                        close = true;
                    } else {
                        // Backlog drained: resume reading.
                        conn.paused = false;
                        want = Some(Interest::READ);
                    }
                } else {
                    want = Some(if conn.paused {
                        Interest::WRITE
                    } else {
                        Interest::READ_WRITE
                    });
                }
            }
        }
        if close {
            self.close_conn(token);
        } else if let Some(want) = want {
            self.set_interest(token, want);
        }
    }

    fn set_interest(&mut self, token: usize, want: Interest) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest == want {
            return;
        }
        if self
            .poller
            .reregister(conn.stream.as_raw_fd(), token, want)
            .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.stats.closed += 1;
        }
    }

    fn sweep_idle(&mut self, now_ms: u64) {
        if now_ms < self.last_sweep_ms + SWEEP_EVERY_MS {
            return;
        }
        self.last_sweep_ms = now_ms;
        let cutoff = now_ms.saturating_sub(IDLE_TIMEOUT_MS);
        let stale: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.last_activity_ms < cutoff)
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.stats.idle_reaped += 1;
            self.close_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::HealthInfo;
    use biot_credit::{CreditEvent, CreditLedger, CreditParams};
    use biot_net::time::SimTime;
    use biot_tangle::graph::Tangle;
    use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};

    fn world() -> (Tangle, CreditLedger, HealthInfo) {
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut prev = genesis;
        for i in 0..4u8 {
            let tx = TransactionBuilder::new(NodeId([i + 1; 32]))
                .parents(prev, genesis)
                .payload(Payload::Data(vec![i]))
                .timestamp_ms(u64::from(i))
                .build();
            prev = tangle.attach(tx, u64::from(i)).unwrap();
        }
        let mut credits = CreditLedger::new(CreditParams::default());
        credits.apply(&CreditEvent::validated(
            NodeId([1; 32]),
            1.0,
            SimTime::from_secs(1),
        ));
        let health = HealthInfo {
            role: "archival",
            ready_peers: 0,
            credit_events: 1,
            now_ms: 10_000,
        };
        (tangle, credits, health)
    }

    /// Drives the server until `done` says stop or the wall clock gives
    /// up — real sockets need a few ticks for bytes to land.
    fn drive(
        server: &mut QueryServer,
        state: &ApiState<'_>,
        mut done: impl FnMut(&QueryServer) -> bool,
    ) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut now_ms = 0;
        while !done(server) {
            assert!(std::time::Instant::now() < deadline, "drive timed out");
            now_ms += 1;
            server.poll(state, now_ms, 1).unwrap();
        }
    }

    fn read_until_close(stream: &mut TcpStream) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn serves_request_over_real_socket() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let mut server = QueryServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            read_until_close(&mut c)
        });
        drive(&mut server, &state, |s| {
            handle.is_finished() && s.connections() == 0
        });
        let raw = handle.join().unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("\"tangle_len\":5"), "{text}");
        assert_eq!(server.stats().ok, 1);
    }

    #[test]
    fn pipelined_keep_alive_requests_all_answered() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let mut server = QueryServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(
                b"GET /v1/tips HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\nGET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
            read_until_close(&mut c)
        });
        drive(&mut server, &state, |s| {
            handle.is_finished() && s.connections() == 0
        });
        let text = String::from_utf8(handle.join().unwrap()).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 3, "{text}");
        // The first two responses advertise keep-alive, the last closes.
        assert_eq!(text.matches("Connection: keep-alive").count(), 2);
        assert_eq!(text.matches("Connection: close").count(), 1);
        assert_eq!(server.stats().ok, 3);
    }

    #[test]
    fn garbage_gets_one_error_then_close() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let mut server = QueryServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();

        let handle = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"NOT EVEN CLOSE\r\nTO HTTP\r\n\r\nGET /v1/tips HTTP/1.1\r\n\r\n")
                .unwrap();
            read_until_close(&mut c)
        });
        drive(&mut server, &state, |s| {
            handle.is_finished() && s.connections() == 0
        });
        let text = String::from_utf8(handle.join().unwrap()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        // The pipelined follow-up after garbage was never answered.
        assert_eq!(text.matches("HTTP/1.1").count(), 1);
        assert_eq!(server.stats().errors, 1);
        assert_eq!(server.stats().ok, 0);
    }

    #[test]
    fn idle_connections_are_reaped() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let mut server = QueryServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();

        let mut now_ms = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.stats().idle_reaped == 0 {
            assert!(std::time::Instant::now() < deadline);
            now_ms += IDLE_TIMEOUT_MS + SWEEP_EVERY_MS; // stride past the timeout
            server.poll(&state, now_ms, 1).unwrap();
        }
        assert_eq!(server.connections(), 0);
        drop(c);
    }
}
