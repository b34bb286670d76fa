//! The live HTTP query endpoint: a [`ConnTable`] of connections, each
//! with a [`RequestParser`].
//!
//! The table owns the connection lifecycle (accept, interest, hang-up
//! reap, resume list, idle sweep) it shares with `biot-ingest`'s
//! admission front end; this server keeps the protocol, for tiny
//! requests in and rendered JSON out. It owns no ledger state: every
//! [`QueryServer::poll`] call borrows an [`ApiState`] from the runtime,
//! renders whatever requests completed, and queues the bytes.
//!
//! * parse error → one `400`/`431` response, then close (no resync);
//! * `Connection: close` (or HTTP/1.0 without keep-alive) → respond,
//!   flush, close;
//! * pipelined requests → answered in order, until the unsent backlog
//!   passes `MAX_BUFFERED` bytes; the client is then not read, and the
//!   requests held back are answered once the backlog drains.

use crate::api::{render_http, ApiState};
use crate::http::{write_response, HttpError, RequestParser};
use biot_gossip::tcp::{Conn, ConnLimits, ConnTable};
use biot_gossip::transport::Transport;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

/// Connection cap; accepts beyond it are closed immediately.
const MAX_CONNECTIONS: usize = 1_024;

/// Accepts drained per readiness event.
const ACCEPT_BURST: usize = 64;

/// Pending response bytes above which a connection gets no more answers
/// and is not read until the backlog flushes.
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
    /// Highest per-connection unsent response byte count observed (at
    /// most `MAX_BUFFERED` plus one response).
    pub high_water_out_bytes: usize,
}

/// What one poll tick did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryProgress {
    /// Requests answered this tick.
    pub answered: usize,
}

/// The protocol state of one connection.
#[derive(Debug, Default)]
struct HttpConn {
    parser: RequestParser,
    /// Close once the responses drain (parse error or
    /// `Connection: close`); reads stay paused meanwhile.
    close_after_flush: bool,
}

/// The HTTP query server. Drive it with [`QueryServer::poll`] from the
/// owning runtime's event loop.
#[derive(Debug)]
pub struct QueryServer {
    table: ConnTable<HttpConn>,
    /// Protocol counters; the lifecycle ones come from `table`.
    stats: QueryStats,
}

impl QueryServer {
    /// Binds the listener (use port 0 for ephemeral) and sets up the
    /// poller.
    ///
    /// # Errors
    ///
    /// Socket or poller-creation failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let limits = ConnLimits {
            max_conns: MAX_CONNECTIONS,
            accept_burst: ACCEPT_BURST,
            idle_timeout_ms: IDLE_TIMEOUT_MS,
            sweep_every_ms: SWEEP_EVERY_MS,
            sweep_when_empty: false,
        };
        Ok(Self { table: ConnTable::bind(addr, limits)?, stats: QueryStats::default() })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.table.local_addr()
    }

    /// The poller's own pollable descriptor, when it has one (epoll).
    /// Lets an outer event loop wake on query-socket readiness by
    /// registering this fd for READ rather than polling on a timer.
    pub fn poller_fd(&self) -> Option<std::os::fd::RawFd> {
        self.table.poller_fd()
    }

    /// Earliest instant (absolute ms) of internal timed work: requests
    /// held back until a backlog drained (already due), a parked
    /// listener's re-arm, or the next idle-connection sweep while
    /// connections are open. `None` when only socket readiness matters.
    pub fn next_deadline(&self) -> Option<u64> {
        self.table.next_deadline()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> QueryStats {
        let conns = self.table.stats();
        QueryStats {
            accepted: conns.accepted,
            refused: conns.accept.refused,
            closed: conns.dropped + conns.timed_out,
            idle_reaped: conns.timed_out,
            accept_errors: conns.accept.listener_errors,
            accept_conn_errors: conns.accept.conn_errors + conns.unregistered,
            ..self.stats
        }
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.table.connections()
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
        for ev in self.table.poll(now_ms, timeout_ms)? {
            if ev.writable {
                self.flush_conn(ev.token);
            }
            if ev.readable {
                self.read_conn(ev.token, state, now_ms, &mut progress);
            }
        }
        self.table.sweep(now_ms);
        Ok(progress)
    }

    fn read_conn(
        &mut self,
        token: usize,
        state: &ApiState<'_>,
        now_ms: u64,
        progress: &mut QueryProgress,
    ) {
        let Some(conn) = self.table.get_mut(token) else { return };
        if conn.paused {
            return;
        }
        conn.last_activity_ms = now_ms;
        let pushed = conn.transport.recv_raw(|bytes| conn.state.parser.push(bytes));
        // A half-received request on a dying socket is unanswerable, so a
        // dead connection skips straight to the close.
        let pushed = match pushed {
            Ok(pushed) if conn.transport.is_open() => pushed,
            _ => {
                self.table.close(token);
                return;
            }
        };
        if let Err(e) = pushed {
            Self::queue_parse_error(conn, &mut self.stats, e);
        }
        // Answer what completed, in order (pipelining), until the backlog
        // passes its cap; the rest wait in the parser until it drains.
        while !conn.paused && conn.transport.pending_tx_bytes() <= MAX_BUFFERED {
            match conn.state.parser.next_request() {
                Ok(Some(req)) => {
                    let response = render_http(state, &req);
                    if response.starts_with(b"HTTP/1.1 2") {
                        self.stats.ok += 1;
                    } else {
                        self.stats.errors += 1;
                    }
                    progress.answered += 1;
                    conn.transport.queue_raw(&response);
                    if !req.keep_alive {
                        conn.state.close_after_flush = true;
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
        let backlog = conn.transport.pending_tx_bytes();
        self.stats.high_water_out_bytes = self.stats.high_water_out_bytes.max(backlog);
        if backlog > MAX_BUFFERED {
            conn.paused = true;
        }
        self.flush_conn(token);
    }

    /// One error response, then never read this peer again.
    fn queue_parse_error(conn: &mut Conn<HttpConn>, stats: &mut QueryStats, e: HttpError) {
        let (status, reason) = e.status();
        let body = format!("{{\"error\":\"{e}\"}}");
        let mut response = Vec::new();
        write_response(&mut response, status, reason, "application/json", body.as_bytes(), false);
        conn.transport.queue_raw(&response);
        conn.state.close_after_flush = true;
        conn.paused = true;
        stats.errors += 1;
    }

    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.table.flush(token) else { return };
        if conn.transport.pending_tx_bytes() == 0 {
            if conn.state.close_after_flush {
                self.table.close(token);
                return;
            }
            // Backlog drained: read again, and answer what was held back.
            if std::mem::take(&mut conn.paused) && conn.state.parser.buffered() > 0 {
                self.table.resume(token);
            }
        }
        self.table.update_interest(token);
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
    use std::io::{Read, Write};
    use std::net::TcpStream;

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

    /// A client pipelines far more answers than `MAX_BUFFERED` holds and
    /// reads none: the server answers until the backlog passes the cap,
    /// stops reading, and holds the rest back; once the client reads,
    /// every response arrives, in order.
    #[test]
    fn pipelined_backlog_stays_under_the_cap_then_drains_in_order() {
        const REQUESTS: usize = 12_000;
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let mut server = QueryServer::bind("127.0.0.1:0").unwrap();
        let requests: Vec<String> =
            (0..REQUESTS).map(|i| format!("GET /v1/credit?at_ms={i} HTTP/1.1\r\n\r\n")).collect();
        let responses: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| {
                let mut parser = RequestParser::new();
                parser.push(r.as_bytes()).unwrap();
                render_http(&state, &parser.next_request().unwrap().unwrap())
            })
            .collect();
        let one_response = responses.iter().map(Vec::len).max().unwrap();
        let expected = responses.concat();

        // Written from a thread, since the kernel buffers need not hold it
        // all; the server first polls once the writes are done or stuck.
        let client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let mut writer_end = client.try_clone().unwrap();
        let bytes = requests.concat();
        let writer = std::thread::spawn(move || writer_end.write_all(bytes.as_bytes()).unwrap());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let settle = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while !writer.is_finished() && std::time::Instant::now() < settle {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        // Serve until the server stops answering.
        let mut now_ms = 0;
        let (mut answered, mut quiet) = (0, 0);
        while quiet < 100 {
            assert!(std::time::Instant::now() < deadline, "serving timed out");
            now_ms += 1;
            server.poll(&state, now_ms, 1).unwrap();
            let ok = server.stats().ok;
            quiet = if ok == answered { quiet + 1 } else { 0 };
            answered = ok;
        }
        let high_water = server.stats().high_water_out_bytes;
        assert!(high_water > MAX_BUFFERED, "the backlog reached the cap: {high_water}");
        assert!(
            high_water <= MAX_BUFFERED + one_response,
            "backlog {high_water} B passed the {MAX_BUFFERED} B cap by more than one response"
        );

        let mut reader_end = client;
        let want = expected.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; want];
            reader_end.read_exact(&mut got).unwrap();
            got
        });
        while !reader.is_finished() {
            assert!(std::time::Instant::now() < deadline, "draining timed out");
            now_ms += 1;
            server.poll(&state, now_ms, 1).unwrap();
        }
        writer.join().unwrap();
        assert!(reader.join().unwrap() == expected, "responses arrived out of order or altered");
        assert_eq!(server.stats().ok, REQUESTS as u64);
        assert!(server.stats().high_water_out_bytes <= MAX_BUFFERED + one_response);
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
