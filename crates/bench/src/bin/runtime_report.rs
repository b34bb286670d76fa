//! Emits `results/BENCH_runtime.json`: what the blocking event loop buys
//! over the legacy 1ms tick loop, measured on a real archival node with
//! its HTTP endpoint bound.
//!
//! Two measurements, each taken under both drivers:
//!
//! * **idle wakeups/s** — the node sits with no traffic. The tick loop
//!   wakes ~1000 times a second to discover nothing happened; the event
//!   loop blocks in `epoll_pwait` and wakes only for gossip timers
//!   (anti-entropy, heartbeat) and its 500ms responsiveness floor. The
//!   report asserts the event loop stays at or under
//!   `BIOT_RT_IDLE_MAX` (default 50) wakeups/s.
//! * **wakeup-to-first-byte latency** — one keep-alive client fires
//!   `GET /v1/health` requests back to back and times each write until
//!   the first response byte lands. For the tick loop that latency is
//!   dominated by the up-to-1ms sleep between polls; the event loop is
//!   woken by the socket itself. The report asserts the event loop's
//!   p99 stays under `BIOT_RT_P99_BOUND_MS` (default 2.0 ms, headroom
//!   over the 0.39 ms the tick-driven API measured on dev hardware).
//!
//! Run with: `cargo run -p biot-bench --release --bin runtime_report`
//!
//! CI shrinks the scale via `BIOT_RT_IDLE_SECS`, `BIOT_RT_REQS`.

use biot_node::role::{ArchivalNode, Role, RoleConfig};
use biot_node::EventLoop;
use biot_gossip::node::GossipConfig;
use std::fs;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// A fresh archival node with HTTP bound on an ephemeral port and the
/// stock gossip timers (digest relay, flush armed only on demand) — the
/// shape an idle fleet node has.
fn archival(node_id: u64) -> ArchivalNode {
    ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: GossipConfig { node_id, ..GossipConfig::default() },
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })
    .expect("archival boots")
}

/// Keep-alive `GET /v1/health` hammer: returns per-request nanoseconds
/// from the request write to the FIRST response byte. The rest of each
/// response is drained by `Content-Length` so requests never pipeline.
fn first_byte_client(
    addr: std::net::SocketAddr,
    reqs: usize,
) -> Result<Vec<u64>, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).ok();
    let request = b"GET /v1/health HTTP/1.1\r\n\r\n";
    let mut latencies_ns = Vec::with_capacity(reqs);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    for _ in 0..reqs {
        buf.clear();
        let t0 = Instant::now();
        stream.write_all(request).map_err(|e| e.to_string())?;
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        buf.extend_from_slice(&chunk[..n]);
        // Drain the rest of the response before the next request.
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed mid-headers".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        if head.split_whitespace().nth(1) != Some("200") {
            return Err(format!("non-200 response: {head}"));
        }
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("no content length")?;
        while buf.len() - head_end < content_length {
            let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }
    Ok(latencies_ns)
}

/// Idle wakeups/s with the legacy driver: poll everything, sleep 1ms.
fn idle_tick(secs: u64) -> f64 {
    let mut node = archival(1);
    let start = Instant::now();
    let until = start + Duration::from_secs(secs);
    let mut iterations = 0u64;
    while Instant::now() < until {
        node.poll(start.elapsed().as_millis() as u64).expect("poll");
        iterations += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    iterations as f64 / start.elapsed().as_secs_f64()
}

/// Idle wakeups/s blocking in the event loop.
fn idle_event(secs: u64) -> f64 {
    let mut el = EventLoop::new().expect("event loop boots");
    el.add_archival(archival(2));
    let start = Instant::now();
    el.run_until(secs * 1_000, |_| false).expect("idle run");
    el.wakeups() as f64 / start.elapsed().as_secs_f64()
}

/// First-byte latencies (sorted ns) against a tick-driven archival node.
fn latency_tick(reqs: usize) -> Vec<u64> {
    let mut node = archival(3);
    let addr = node.http_addr().expect("http addr").expect("http on");
    let client = std::thread::spawn(move || first_byte_client(addr, reqs));
    let start = Instant::now();
    while !client.is_finished() {
        node.poll(start.elapsed().as_millis() as u64).expect("poll");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut lat = client.join().expect("client thread").expect("client io");
    lat.sort_unstable();
    lat
}

/// First-byte latencies (sorted ns) against an event-loop archival node.
fn latency_event(reqs: usize) -> Vec<u64> {
    let mut el = EventLoop::new().expect("event loop boots");
    let id = el.add_archival(archival(4));
    let addr =
        el.archival(id).expect("member").http_addr().expect("http addr").expect("http on");
    let client = std::thread::spawn(move || first_byte_client(addr, reqs));
    let done = el
        .run_until(120_000, |_| client.is_finished())
        .expect("latency run");
    assert!(done, "client never finished against the event loop");
    let mut lat = client.join().expect("client thread").expect("client io");
    lat.sort_unstable();
    lat
}

fn main() -> std::io::Result<()> {
    let idle_secs = env_u64("BIOT_RT_IDLE_SECS", 5);
    let reqs = env_u64("BIOT_RT_REQS", 2_000) as usize;
    let idle_max = env_f64("BIOT_RT_IDLE_MAX", 50.0);
    let p99_bound_ms = env_f64("BIOT_RT_P99_BOUND_MS", 2.0);

    println!("idle: {idle_secs}s per driver, archival node, no traffic");
    let tick_idle = idle_tick(idle_secs);
    let event_idle = idle_event(idle_secs);
    let reduction = tick_idle / event_idle.max(1e-9);
    println!(
        "  tick {tick_idle:.0} wakeups/s vs event loop {event_idle:.1} wakeups/s \
         -> {reduction:.0}x fewer"
    );

    println!("first byte: {reqs} keep-alive /v1/health requests per driver");
    let tick_lat = latency_tick(reqs);
    let event_lat = latency_event(reqs);
    let (tick_p50, tick_p99) =
        (percentile_ms(&tick_lat, 0.50), percentile_ms(&tick_lat, 0.99));
    let (event_p50, event_p99) =
        (percentile_ms(&event_lat, 0.50), percentile_ms(&event_lat, 0.99));
    println!(
        "  tick p50 {tick_p50:.3} ms p99 {tick_p99:.3} ms vs \
         event loop p50 {event_p50:.3} ms p99 {event_p99:.3} ms"
    );

    let idle_ok = event_idle <= idle_max;
    let latency_ok = event_p99 <= p99_bound_ms;
    fs::create_dir_all("results")?;
    let mut f = fs::File::create("results/BENCH_runtime.json")?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"idle_secs\": {idle_secs},")?;
    writeln!(f, "  \"first_byte_requests\": {reqs},")?;
    writeln!(
        f,
        "  \"idle\": {{\"tick_wakeups_per_sec\": {tick_idle:.1}, \
         \"event_wakeups_per_sec\": {event_idle:.2}, \"reduction\": {reduction:.1}}},"
    )?;
    writeln!(
        f,
        "  \"first_byte\": {{\"tick_p50_ms\": {tick_p50:.4}, \"tick_p99_ms\": {tick_p99:.4}, \
         \"event_p50_ms\": {event_p50:.4}, \"event_p99_ms\": {event_p99:.4}}},"
    )?;
    writeln!(f, "  \"acceptance\": {{")?;
    writeln!(f, "    \"idle_wakeups_max\": {idle_max:.1},")?;
    writeln!(f, "    \"idle_wakeups_ok\": {idle_ok},")?;
    writeln!(f, "    \"first_byte_p99_bound_ms\": {p99_bound_ms:.2},")?;
    writeln!(f, "    \"first_byte_ok\": {latency_ok}")?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    println!("wrote results/BENCH_runtime.json");
    assert!(
        idle_ok,
        "idle event loop burned {event_idle:.1} wakeups/s (budget {idle_max})"
    );
    assert!(
        latency_ok,
        "event-loop first-byte p99 {event_p99:.3} ms exceeds {p99_bound_ms} ms"
    );
    Ok(())
}
