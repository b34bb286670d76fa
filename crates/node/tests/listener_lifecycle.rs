//! Silent and hung-up clients against both listeners. The ingest front
//! end and the HTTP query endpoint share one connection lifecycle
//! (`biot_gossip::tcp::ConnTable`), so each case runs against both
//! through one helper.

use biot_core::difficulty::FixedPolicy;
use biot_core::identity::Account;
use biot_core::node::{Gateway, GatewayConfig};
use biot_core::pow::Difficulty;
use biot_credit::{CreditLedger, CreditParams};
use biot_ingest::protocol::{encode_client, ClientMsg};
use biot_ingest::{IngestConfig, IngestServer};
use biot_net::time::SimTime;
use biot_node::{ApiState, HealthInfo, QueryServer};
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Both listeners use this idle timeout (the HTTP endpoint's fixed one).
const IDLE_TIMEOUT_MS: u64 = 30_000;

/// The HTTP flood's request.
const HTTP_REQUEST: &[u8] = b"GET /v1/tips HTTP/1.1\r\n\r\n";

/// One listener with what it needs to serve.
enum Listener {
    Ingest(IngestServer, Box<Gateway>),
    Http(QueryServer, Box<Tangle>, CreditLedger),
}

impl Listener {
    fn both() -> [Listener; 2] {
        let manager = Account::generate_with_bits(256, &mut StdRng::seed_from_u64(7));
        let mut gateway = Gateway::new(
            manager.public_key().clone(),
            Box::new(FixedPolicy(Difficulty::MIN)),
            GatewayConfig::default(),
        );
        gateway.init_genesis(SimTime::ZERO);
        let config = IngestConfig { idle_timeout_ms: IDLE_TIMEOUT_MS, ..IngestConfig::default() };
        let mut tangle = Tangle::new();
        tangle.attach_genesis(NodeId([0; 32]), 0);
        [
            Listener::Ingest(IngestServer::bind("127.0.0.1:0", config).unwrap(), Box::new(gateway)),
            Listener::Http(
                QueryServer::bind("127.0.0.1:0").unwrap(),
                Box::new(tangle),
                CreditLedger::new(CreditParams::default()),
            ),
        ]
    }

    fn name(&self) -> &'static str {
        match self {
            Listener::Ingest(..) => "ingest",
            Listener::Http(..) => "http",
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Listener::Ingest(server, _) => server.local_addr(),
            Listener::Http(server, ..) => server.local_addr(),
        }
        .unwrap()
    }

    /// One tick at virtual instant `now_ms`.
    fn poll(&mut self, now_ms: u64) {
        match self {
            Listener::Ingest(server, gateway) => {
                server.poll(gateway, SimTime::from_millis(now_ms), 1).unwrap();
            }
            Listener::Http(server, tangle, credits) => {
                let health =
                    HealthInfo { role: "archival", ready_peers: 0, credit_events: 0, now_ms };
                let state = ApiState { tangle, credits, health: &health };
                server.poll(&state, now_ms, 1).unwrap();
            }
        }
    }

    fn connections(&self) -> usize {
        match self {
            Listener::Ingest(server, _) => server.connections(),
            Listener::Http(server, ..) => server.connections(),
        }
    }

    /// Connections closed by the idle sweep, and for any other reason.
    fn closes(&self) -> (u64, u64) {
        match self {
            Listener::Ingest(server, _) => {
                let s = server.stats();
                (s.conns_timed_out, s.conns_dropped)
            }
            Listener::Http(server, ..) => {
                let s = server.stats();
                (s.idle_reaped, s.closed - s.idle_reaped)
            }
        }
    }

    /// Requests whose answers, unread, outgrow the socket buffers: the
    /// HTTP endpoint stops reading such a client (pauses it).
    fn flood(&self) -> Vec<u8> {
        match self {
            Listener::Ingest(..) => {
                let tx = TransactionBuilder::new(NodeId([1; 32]))
                    .payload(Payload::Data(vec![1]))
                    .build();
                let frame = encode_client(&ClientMsg::SubmitTx(tx));
                let len = u32::try_from(frame.len()).unwrap().to_be_bytes();
                [&len[..], &frame].concat().repeat(500)
            }
            Listener::Http(..) => HTTP_REQUEST.repeat(100_000),
        }
    }

    /// Polls at `now_ms` until `done`, with a wall-clock bound.
    fn poll_until(&mut self, now_ms: u64, mut done: impl FnMut(&Listener) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done(self) {
            assert!(Instant::now() < deadline, "{}: timed out", self.name());
            self.poll(now_ms);
        }
    }
}

#[test]
fn silent_client_is_reaped_by_the_idle_sweep() {
    for mut listener in Listener::both() {
        let _client = TcpStream::connect(listener.addr()).unwrap();
        listener.poll_until(0, |l| l.connections() == 1);

        listener.poll(IDLE_TIMEOUT_MS);
        assert_eq!(
            listener.connections(),
            1,
            "{}: reaped at the timeout, not past it",
            listener.name()
        );
        listener.poll(2 * IDLE_TIMEOUT_MS);
        assert_eq!(listener.connections(), 0, "{}: silent client kept", listener.name());
        assert_eq!(listener.closes(), (1, 0), "{}: counted as timed out", listener.name());
    }
}

/// A client floods requests, never reads an answer, then hangs up. With
/// virtual time frozen the idle sweep cannot fire, so the server must
/// reap the connection on the hang-up itself — for the HTTP endpoint,
/// while the connection is paused with its backlog unsent.
#[test]
fn hung_up_client_is_reaped_without_waiting_for_the_sweep() {
    for mut listener in Listener::both() {
        let mut client = TcpStream::connect(listener.addr()).unwrap();
        listener.poll_until(0, |l| l.connections() == 1);

        client.set_nonblocking(true).unwrap();
        let flood = listener.flood();
        let (mut sent, mut stuck) = (0, 0);
        while sent < flood.len() && stuck < 200 {
            match client.write(&flood[sent..]) {
                Ok(n) => (sent, stuck) = (sent + n, 0),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => stuck += 1,
                Err(e) => panic!("{}: flood write failed: {e}", listener.name()),
            }
            listener.poll(0);
        }
        if let Listener::Http(server, ..) = &listener {
            let held_back = (sent / HTTP_REQUEST.len()) as u64 - server.stats().ok;
            assert!(held_back > 0, "http: paused with requests held back");
        }
        drop(client);

        listener.poll_until(0, |l| l.connections() == 0);
        assert_eq!(listener.closes(), (0, 1), "{}: reaped on the hang-up", listener.name());
    }
}
