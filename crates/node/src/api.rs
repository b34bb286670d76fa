//! The query API's routing and rendering layer — **pure functions** from
//! ledger state to response bytes.
//!
//! Every endpoint renders through [`respond`], which takes only
//! borrowed state (`&Tangle`, `&CreditLedger`, a [`HealthInfo`]) and a
//! parsed [`Request`]. No clocks, no randomness, no connection state:
//! the same request against the same ledger always yields the same
//! bytes. The mixed-role fleet test exploits this by running the *same*
//! function in-process as an oracle and demanding the live server's TCP
//! answers match byte-for-byte.
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /v1/health` | role, ledger size, peer count, event count |
//! | `GET /v1/stats` | tangle totals: len, tips, sealed/frontier split |
//! | `GET /v1/tips` | current tip ids, lexicographic |
//! | `GET /v1/tx/{id}` | one transaction: parents, issuer, payload kind, status, weight |
//! | `GET /v1/weight/{id}` | cumulative weight + confirmation flag only |
//! | `GET /v1/credit` | (CrP, CrN, Cr) for every node the ledger knows |
//! | `GET /v1/credit/{node}` | one device's breakdown; `?at_ms=` picks the evaluation instant |
//!
//! JSON is emitted by hand (ordered keys, no whitespace variance) for
//! the same reason the HTTP layer omits `Date`: determinism is part of
//! the contract, not a test convenience.

use crate::http::{write_response, Request};
use biot_credit::{CreditBreakdown, CreditLedger};
use biot_crypto::sha256::{from_hex, to_hex};
use biot_net::time::SimTime;
use biot_tangle::graph::{Tangle, TxStatus};
use biot_tangle::tx::{NodeId, Payload, TxId};

/// Liveness facts that come from the runtime rather than the ledger.
#[derive(Clone, Debug, Default)]
pub struct HealthInfo {
    /// Role name (`"archival"`, `"validation"`, `"light"`).
    pub role: &'static str,
    /// Gossip peers currently in the ready state.
    pub ready_peers: usize,
    /// Credit events this node has folded into its ledger.
    pub credit_events: u64,
    /// The node's current virtual time; also the default `at_ms` for
    /// credit queries that don't pass one.
    pub now_ms: u64,
}

/// Borrowed state a response is rendered from. Build one per poll tick
/// (or per oracle check) — it holds no locks of its own.
#[derive(Clone, Copy, Debug)]
pub struct ApiState<'a> {
    /// The replicated DAG.
    pub tangle: &'a Tangle,
    /// The credit projection.
    pub credits: &'a CreditLedger,
    /// Runtime liveness facts.
    pub health: &'a HealthInfo,
}

/// A rendered response before HTTP framing: status, reason, JSON body.
pub type Rendered = (u16, &'static str, String);

/// Routes one parsed request to its renderer.
pub fn respond(state: &ApiState<'_>, req: &Request) -> Rendered {
    if req.method != "GET" {
        return (405, "Method Not Allowed", err_body("method not allowed"));
    }
    match req.path.as_str() {
        "/v1/health" => (200, "OK", render_health(state)),
        "/v1/stats" => (200, "OK", render_stats(state.tangle)),
        "/v1/tips" => (200, "OK", render_tips(state.tangle)),
        "/v1/credit" => (200, "OK", render_credit_all(state, credit_at(state, req))),
        path => {
            if let Some(hex) = path.strip_prefix("/v1/tx/") {
                return match parse_id(hex) {
                    Some(id) => render_tx(state.tangle, &TxId(id)),
                    None => bad_id(),
                };
            }
            if let Some(hex) = path.strip_prefix("/v1/weight/") {
                return match parse_id(hex) {
                    Some(id) => render_weight(state.tangle, &TxId(id)),
                    None => bad_id(),
                };
            }
            if let Some(hex) = path.strip_prefix("/v1/credit/") {
                return match parse_id(hex) {
                    Some(id) => render_credit_one(state, NodeId(id), credit_at(state, req)),
                    None => bad_id(),
                };
            }
            (404, "Not Found", err_body("no such endpoint"))
        }
    }
}

/// Full HTTP bytes for one request — the function the oracle test calls
/// directly and compares against what the socket delivered.
pub fn render_http(state: &ApiState<'_>, req: &Request) -> Vec<u8> {
    let (status, reason, body) = respond(state, req);
    let mut out = Vec::new();
    write_response(
        &mut out,
        status,
        reason,
        "application/json",
        body.as_bytes(),
        req.keep_alive,
    );
    out
}

/// The evaluation instant for credit queries: explicit `?at_ms=`, else
/// the node's own clock. An unparsable `at_ms` falls back to the clock
/// too — the response embeds the instant actually used.
fn credit_at(state: &ApiState<'_>, req: &Request) -> u64 {
    req.query_param("at_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(state.health.now_ms)
}

fn err_body(msg: &str) -> String {
    format!("{{\"error\":\"{msg}\"}}")
}

fn bad_id() -> Rendered {
    (400, "Bad Request", err_body("id must be 64 hex chars"))
}

fn parse_id(hex: &str) -> Option<[u8; 32]> {
    let bytes = from_hex(hex)?;
    let arr: [u8; 32] = bytes.try_into().ok()?;
    Some(arr)
}

fn render_health(state: &ApiState<'_>) -> String {
    let h = state.health;
    format!(
        "{{\"role\":\"{}\",\"now_ms\":{},\"tangle_len\":{},\"tips\":{},\"ready_peers\":{},\"credit_events\":{}}}",
        h.role,
        h.now_ms,
        state.tangle.len(),
        state.tangle.tip_count(),
        h.ready_peers,
        h.credit_events,
    )
}

fn render_stats(tangle: &Tangle) -> String {
    let seal = tangle.seal_stats();
    format!(
        "{{\"len\":{},\"tips\":{},\"sealed_len\":{},\"frontier_len\":{}}}",
        tangle.len(),
        tangle.tip_count(),
        seal.sealed_len,
        seal.frontier_len,
    )
}

fn render_tips(tangle: &Tangle) -> String {
    let tips: Vec<String> = tangle
        .tips_iter()
        .map(|id| format!("\"{}\"", to_hex(id.as_bytes())))
        .collect();
    format!("{{\"count\":{},\"tips\":[{}]}}", tips.len(), tips.join(","))
}

fn payload_kind(payload: &Payload) -> &'static str {
    match payload {
        Payload::Data(_) => "data",
        Payload::EncryptedData { .. } => "encrypted",
        Payload::Spend { .. } => "spend",
        Payload::AuthList { .. } => "auth_list",
    }
}

fn render_tx(tangle: &Tangle, id: &TxId) -> Rendered {
    let Some(tx) = tangle.get(id) else {
        return (404, "Not Found", err_body("unknown transaction"));
    };
    let status = match tangle.status(id) {
        Some(TxStatus::Confirmed) => "confirmed",
        _ => "pending",
    };
    let body = format!(
        "{{\"id\":\"{}\",\"issuer\":\"{}\",\"trunk\":\"{}\",\"branch\":\"{}\",\"payload\":\"{}\",\"payload_len\":{},\"timestamp_ms\":{},\"attach_time_ms\":{},\"status\":\"{}\",\"cumulative_weight\":{},\"approvers\":{}}}",
        to_hex(id.as_bytes()),
        to_hex(tx.issuer.as_bytes()),
        to_hex(tx.trunk.as_bytes()),
        to_hex(tx.branch.as_bytes()),
        payload_kind(&tx.payload),
        tx.payload.len(),
        tx.timestamp_ms,
        tangle.attach_time_ms(id).unwrap_or(0),
        status,
        tangle.cumulative_weight(id),
        tangle.approvers(id).len(),
    );
    (200, "OK", body)
}

fn render_weight(tangle: &Tangle, id: &TxId) -> Rendered {
    if !tangle.contains(id) {
        return (404, "Not Found", err_body("unknown transaction"));
    }
    let confirmed = tangle.status(id) == Some(TxStatus::Confirmed);
    let body = format!(
        "{{\"id\":\"{}\",\"cumulative_weight\":{},\"confirmed\":{}}}",
        to_hex(id.as_bytes()),
        tangle.cumulative_weight(id),
        confirmed,
    );
    (200, "OK", body)
}

/// One device's `(CrP, CrN, Cr)` triple as a JSON fragment. Floats use
/// Rust's shortest round-trip formatting — stable across runs and
/// platforms, so equality on bytes is equality on values.
fn breakdown_fields(b: &CreditBreakdown) -> String {
    format!(
        "\"positive\":{},\"negative\":{},\"combined\":{}",
        b.positive, b.negative, b.combined
    )
}

fn render_credit_one(state: &ApiState<'_>, node: NodeId, at_ms: u64) -> Rendered {
    if !state.credits.known_nodes().any(|n| *n == node) {
        return (404, "Not Found", err_body("unknown device"));
    }
    let b = state
        .credits
        .credit_of(node, SimTime::from_millis(at_ms));
    let body = format!(
        "{{\"node\":\"{}\",\"at_ms\":{},{}}}",
        to_hex(node.as_bytes()),
        at_ms,
        breakdown_fields(&b),
    );
    (200, "OK", body)
}

fn render_credit_all(state: &ApiState<'_>, at_ms: u64) -> String {
    let at = SimTime::from_millis(at_ms);
    // `known_nodes` iterates a BTreeMap, so the report order is the byte
    // order of the ids — identical on every replica.
    let rows: Vec<String> = state
        .credits
        .known_nodes()
        .map(|node| {
            let b = state.credits.credit_of(*node, at);
            format!(
                "{{\"node\":\"{}\",{}}}",
                to_hex(node.as_bytes()),
                breakdown_fields(&b)
            )
        })
        .collect();
    format!(
        "{{\"at_ms\":{},\"count\":{},\"nodes\":[{}]}}",
        at_ms,
        rows.len(),
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_credit::{CreditEvent, CreditParams};
    use biot_tangle::tx::TransactionBuilder;

    fn world() -> (Tangle, CreditLedger, HealthInfo) {
        let mut tangle = Tangle::new();
        let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
        let mut prev = genesis;
        for i in 0..5u8 {
            let tx = TransactionBuilder::new(NodeId([i + 1; 32]))
                .parents(prev, genesis)
                .payload(Payload::Data(vec![i]))
                .timestamp_ms(u64::from(i) * 10)
                .build();
            prev = tangle.attach(tx, u64::from(i) * 10).unwrap();
        }
        let mut credits = CreditLedger::new(CreditParams::default());
        credits.apply(&CreditEvent::validated(
            NodeId([1; 32]),
            1.0,
            SimTime::from_secs(1),
        ));
        credits.apply(&CreditEvent::misbehaved(
            NodeId([2; 32]),
            biot_credit::Misbehavior::LazyTips,
            SimTime::from_secs(2),
        ));
        let health = HealthInfo {
            role: "archival",
            ready_peers: 3,
            credit_events: 2,
            now_ms: 60_000,
        };
        (tangle, credits, health)
    }

    fn get(path: &str) -> Request {
        let (p, q) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "GET".into(),
            path: p.into(),
            query: q.into(),
            keep_alive: true,
        }
    }

    #[test]
    fn routes_cover_the_endpoint_table() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };

        let (s, _, body) = respond(&state, &get("/v1/health"));
        assert_eq!(s, 200);
        assert!(body.contains("\"role\":\"archival\"") && body.contains("\"tangle_len\":6"));

        let (s, _, body) = respond(&state, &get("/v1/stats"));
        assert_eq!(s, 200);
        assert!(body.contains("\"len\":6"));

        let (s, _, body) = respond(&state, &get("/v1/tips"));
        assert_eq!(s, 200);
        for id in tangle.tips() {
            assert!(body.contains(&to_hex(id.as_bytes())));
        }

        let tip = tangle.tips()[0];
        let (s, _, body) = respond(&state, &get(&format!("/v1/tx/{}", to_hex(tip.as_bytes()))));
        assert_eq!(s, 200);
        assert!(body.contains("\"payload\":\"data\""));

        let genesis = tangle.genesis().unwrap();
        let (s, _, body) =
            respond(&state, &get(&format!("/v1/weight/{}", to_hex(genesis.as_bytes()))));
        assert_eq!(s, 200);
        assert!(body.contains(&format!("\"cumulative_weight\":{}", tangle.len())));

        let (s, _, body) = respond(&state, &get("/v1/credit"));
        assert_eq!(s, 200);
        assert!(body.contains("\"count\":2"));

        let hex1 = to_hex(&[1u8; 32]);
        let (s, _, body) = respond(&state, &get(&format!("/v1/credit/{hex1}?at_ms=30000")));
        assert_eq!(s, 200);
        assert!(body.contains("\"at_ms\":30000"));
    }

    #[test]
    fn errors_are_distinguished() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };

        assert_eq!(respond(&state, &get("/v1/nope")).0, 404);
        assert_eq!(respond(&state, &get("/v1/tx/zz")).0, 400);
        assert_eq!(respond(&state, &get(&format!("/v1/tx/{}", to_hex(&[9u8; 32])))).0, 404);
        assert_eq!(respond(&state, &get(&format!("/v1/credit/{}", to_hex(&[9u8; 32])))).0, 404);
        let mut post = get("/v1/tips");
        post.method = "POST".into();
        assert_eq!(respond(&state, &post).0, 405);
    }

    #[test]
    fn credit_query_defaults_to_node_clock() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        let hex1 = to_hex(&[1u8; 32]);
        let (_, _, with_default) = respond(&state, &get(&format!("/v1/credit/{hex1}")));
        let (_, _, explicit) =
            respond(&state, &get(&format!("/v1/credit/{hex1}?at_ms={}", health.now_ms)));
        assert_eq!(with_default, explicit);
    }

    #[test]
    fn rendering_is_a_pure_function() {
        let (tangle, credits, health) = world();
        let state = ApiState { tangle: &tangle, credits: &credits, health: &health };
        for path in ["/v1/health", "/v1/stats", "/v1/tips", "/v1/credit?at_ms=1"] {
            let a = render_http(&state, &get(path));
            let b = render_http(&state, &get(path));
            assert_eq!(a, b, "{path}");
        }
    }
}
