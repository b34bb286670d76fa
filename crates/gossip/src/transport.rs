//! Transports: how gossip frames move between nodes.
//!
//! A [`Transport`] is a non-blocking, frame-oriented, bidirectional pipe.
//! [`crate::node::GossipNode`] is written against this trait only, so the
//! same protocol logic runs over an in-memory loopback pair in
//! deterministic tests and over real TCP sockets (see [`crate::tcp`]) in
//! deployments — plus a [`JitterTransport`] wrapper that delays and
//! reorders frames under a seeded RNG and a *virtual* clock, exercising
//! out-of-order delivery with zero wall-clock sleeps.

use biot_net::latency::LatencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer closed the connection (or it was killed).
    Closed,
    /// A frame exceeded [`crate::wire::MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The peer is reading too slowly: queuing this frame would push the
    /// outbound buffer past its cap (see
    /// [`crate::tcp::MAX_TX_BUFFER_BYTES`]). The frame was **not**
    /// queued; the connection is still open. Retry after the peer drains,
    /// or close it.
    Backpressure {
        /// Bytes already queued and unacknowledged by the socket.
        buffered: usize,
    },
    /// An I/O failure (TCP transports only).
    Io(std::io::ErrorKind),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            TransportError::Backpressure { buffered } => {
                write!(f, "peer too slow: {buffered} bytes already buffered")
            }
            TransportError::Io(kind) => write!(f, "i/o failure: {kind:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A non-blocking, frame-oriented connection to one peer.
pub trait Transport: Send {
    /// Queues one frame for delivery.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the connection is dead.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Takes the next delivered frame, if one is ready. Never blocks.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] once the connection is dead **and** all
    /// previously delivered frames have been drained.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError>;

    /// False once the connection is known dead.
    fn is_open(&self) -> bool;

    /// Closes the connection (both directions).
    fn close(&mut self);

    /// Human-readable peer label for logs.
    fn label(&self) -> String {
        "peer".to_string()
    }

    /// The raw socket fd when this transport is socket-backed, for
    /// readiness registration with a [`biot_reactor::Poller`]. `None`
    /// for in-memory transports — an event loop then drives them off
    /// timers instead of kernel readiness. The transport keeps
    /// ownership; do not close it.
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    /// True while unsent outbound bytes are queued — the event loop's
    /// cue to register write interest so the backlog drains on
    /// writability instead of on the next incidental poll.
    fn wants_write(&self) -> bool {
        false
    }

    /// True when a frame is already buffered in userspace (decoded or
    /// decodable without touching the socket). Level-triggered pollers
    /// only report *kernel* readiness, so a loop that budgets frames per
    /// wake must re-visit transports reporting this without waiting for
    /// the socket to speak again.
    fn has_pending_input(&self) -> bool {
        false
    }
}

/// Dials new connections to one peer — the retry/backoff machinery in
/// [`crate::node::GossipNode`] calls this after a connection dies.
pub trait Connector: Send {
    /// Attempts one connection.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`]; the node schedules a backed-off retry.
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError>;

    /// Label for logs.
    fn label(&self) -> String {
        "connector".to_string()
    }
}

/// A [`Connector`] built from a closure (tests wire these to mint fresh
/// in-memory pairs on every dial).
pub struct FnConnector<F>(pub F);

impl<F> Connector for FnConnector<F>
where
    F: FnMut() -> Result<Box<dyn Transport>, TransportError> + Send,
{
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        (self.0)()
    }
}

/// Turns a peer address *discovered at runtime* (via
/// [`crate::wire::Message::PeerExchange`]) into a live transport. Where a
/// [`Connector`] redials one fixed peer, a `Dialer` reaches any address
/// the mesh gossips — `host:port` for TCP, registry keys for simulated
/// fleets.
pub trait Dialer: Send {
    /// Attempts one connection to `addr`.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`]; the node schedules a backed-off retry.
    fn dial(&mut self, addr: &str) -> Result<Box<dyn Transport>, TransportError>;
}

/// A [`Dialer`] built from a closure.
pub struct FnDialer<F>(pub F);

impl<F> Dialer for FnDialer<F>
where
    F: FnMut(&str) -> Result<Box<dyn Transport>, TransportError> + Send,
{
    fn dial(&mut self, addr: &str) -> Result<Box<dyn Transport>, TransportError> {
        (self.0)(addr)
    }
}

/// Shared bytes-on-wire counters for one node, incremented by every
/// [`CountingTransport`] wrapped around its links. Each frame is costed
/// at `4 + len` — the TCP framing overhead — so in-memory mesh runs
/// report the same wire bytes a socket deployment would. Sent frames
/// are also counted per message tag (the frame's first byte).
#[derive(Clone, Debug, Default)]
pub struct ByteCounter {
    received: Arc<AtomicU64>,
    sent_by_tag: Arc<Mutex<BTreeMap<u8, (u64, u64)>>>,
}

impl ByteCounter {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes sent (including per-frame length prefixes).
    pub fn sent(&self) -> u64 {
        self.sent_by_tag().values().map(|&(_, bytes)| bytes).sum()
    }

    /// Total bytes received.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Total frames sent.
    pub fn frames_sent(&self) -> u64 {
        self.sent_by_tag().values().map(|&(frames, _)| frames).sum()
    }

    /// Frames and bytes sent, by message tag: tag → (frames, bytes).
    pub fn sent_by_tag(&self) -> BTreeMap<u8, (u64, u64)> {
        self.sent_by_tag.lock().expect("counter lock poisoned").clone()
    }
}

/// Wraps a transport and attributes its traffic to a [`ByteCounter`].
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    counter: ByteCounter,
}

impl CountingTransport {
    /// Wraps `inner`; all traffic is booked against `counter`.
    pub fn new(inner: Box<dyn Transport>, counter: ByteCounter) -> Self {
        Self { inner, counter }
    }
}

impl Transport for CountingTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(frame)?;
        let mut by_tag = self.counter.sent_by_tag.lock().expect("counter lock poisoned");
        let tag = by_tag.entry(frame.first().copied().unwrap_or(u8::MAX)).or_default();
        *tag = (tag.0 + 1, tag.1 + 4 + frame.len() as u64);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let got = self.inner.try_recv()?;
        if let Some(frame) = &got {
            self.counter.received.fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
        }
        Ok(got)
    }

    fn is_open(&self) -> bool {
        self.inner.is_open()
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn raw_fd(&self) -> Option<RawFd> {
        self.inner.raw_fd()
    }

    fn wants_write(&self) -> bool {
        self.inner.wants_write()
    }

    fn has_pending_input(&self) -> bool {
        self.inner.has_pending_input()
    }
}

// --- In-memory loopback ------------------------------------------------------

#[derive(Debug, Default)]
struct MemQueues {
    /// Frames travelling a → b and b → a.
    a_to_b: Mutex<VecDeque<Vec<u8>>>,
    b_to_a: Mutex<VecDeque<Vec<u8>>>,
    open: AtomicBool,
}

/// A kill switch for an in-memory pair: tests hold one to sever the
/// connection mid-sync and watch the nodes reconnect.
#[derive(Clone, Debug)]
pub struct MemLink(Arc<MemQueues>);

impl MemLink {
    /// Severs the connection; both ends observe [`TransportError::Closed`]
    /// after draining already-delivered frames.
    pub fn kill(&self) {
        self.0.open.store(false, Ordering::SeqCst);
    }

    /// True while the pair is connected.
    pub fn is_open(&self) -> bool {
        self.0.open.load(Ordering::SeqCst)
    }
}

/// One end of an in-memory loopback pair.
#[derive(Debug)]
pub struct MemTransport {
    queues: Arc<MemQueues>,
    /// True for the "a" end (sends into `a_to_b`, receives from `b_to_a`).
    is_a: bool,
    name: String,
}

impl MemTransport {
    /// Creates a connected pair plus its kill switch.
    pub fn pair() -> (MemTransport, MemTransport, MemLink) {
        let queues = Arc::new(MemQueues {
            open: AtomicBool::new(true),
            ..MemQueues::default()
        });
        (
            MemTransport { queues: Arc::clone(&queues), is_a: true, name: "mem:a".into() },
            MemTransport { queues: Arc::clone(&queues), is_a: false, name: "mem:b".into() },
            MemLink(queues),
        )
    }

    fn out_queue(&self) -> &Mutex<VecDeque<Vec<u8>>> {
        if self.is_a { &self.queues.a_to_b } else { &self.queues.b_to_a }
    }

    fn in_queue(&self) -> &Mutex<VecDeque<Vec<u8>>> {
        if self.is_a { &self.queues.b_to_a } else { &self.queues.a_to_b }
    }
}

impl Transport for MemTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !self.queues.open.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        if frame.len() > crate::wire::MAX_FRAME_BYTES {
            return Err(TransportError::TooLarge(frame.len()));
        }
        self.out_queue().lock().unwrap().push_back(frame.to_vec());
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(frame) = self.in_queue().lock().unwrap().pop_front() {
            return Ok(Some(frame));
        }
        if !self.queues.open.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        Ok(None)
    }

    fn is_open(&self) -> bool {
        self.queues.open.load(Ordering::SeqCst)
    }

    fn close(&mut self) {
        self.queues.open.store(false, Ordering::SeqCst);
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    fn has_pending_input(&self) -> bool {
        !self.in_queue().lock().unwrap().is_empty()
    }
}

// --- Virtual clock + jitter wrapper ------------------------------------------

// The virtual clock moved into `biot-reactor` when the event loop grew a
// unified `Clock` trait (wall vs virtual); re-exported here so existing
// gossip-level callers keep working unchanged.
pub use biot_reactor::{Clock, VirtualClock};

/// Wraps any transport and delays each **inbound** frame by a latency
/// drawn from a seeded [`LatencyModel`] against a [`VirtualClock`].
/// Frames whose sampled latencies overlap are delivered in due-time
/// order, not send order — so the wrapped node sees out-of-order arrival
/// exactly as it would across a real network, while staying bit-for-bit
/// deterministic given the seed.
pub struct JitterTransport {
    inner: Box<dyn Transport>,
    model: Box<dyn LatencyModel + Send>,
    rng: StdRng,
    clock: VirtualClock,
    /// Held frames keyed by (due instant, arrival sequence).
    held: BTreeMap<(u64, u64), Vec<u8>>,
    seq: u64,
    /// Set once the inner transport reports closed; held frames still
    /// drain first.
    inner_closed: bool,
}

impl fmt::Debug for JitterTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitterTransport")
            .field("held", &self.held.len())
            .field("inner_closed", &self.inner_closed)
            .finish()
    }
}

impl JitterTransport {
    /// Wraps `inner`, delaying inbound frames per `model` with a
    /// deterministic RNG seeded by `seed`.
    pub fn new(
        inner: Box<dyn Transport>,
        model: Box<dyn LatencyModel + Send>,
        seed: u64,
        clock: VirtualClock,
    ) -> Self {
        Self {
            inner,
            model,
            rng: StdRng::seed_from_u64(seed),
            clock,
            held: BTreeMap::new(),
            seq: 0,
            inner_closed: false,
        }
    }

    /// Pulls everything ready on the inner transport into the held map.
    fn absorb(&mut self) {
        if self.inner_closed {
            return;
        }
        loop {
            match self.inner.try_recv() {
                Ok(Some(frame)) => {
                    let delay = self.model.sample_ms(&mut self.rng);
                    let due = self.clock.now_ms().saturating_add(delay);
                    self.held.insert((due, self.seq), frame);
                    self.seq += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    self.inner_closed = true;
                    break;
                }
            }
        }
    }
}

impl Transport for JitterTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.inner.send(frame)
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.absorb();
        let now = self.clock.now_ms();
        if let Some((&key, _)) = self.held.iter().next() {
            if key.0 <= now {
                return Ok(self.held.remove(&key));
            }
        }
        if self.inner_closed && self.held.is_empty() {
            return Err(TransportError::Closed);
        }
        Ok(None)
    }

    fn is_open(&self) -> bool {
        !self.inner_closed && self.inner.is_open()
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn label(&self) -> String {
        format!("jitter:{}", self.inner.label())
    }

    fn raw_fd(&self) -> Option<RawFd> {
        self.inner.raw_fd()
    }

    fn wants_write(&self) -> bool {
        self.inner.wants_write()
    }

    fn has_pending_input(&self) -> bool {
        // A held frame only counts once its virtual due time has passed.
        self.held.keys().next().is_some_and(|&(due, _)| due <= self.clock.now_ms())
            || self.inner.has_pending_input()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_net::latency::{FixedLatency, UniformLatency};

    #[test]
    fn mem_pair_delivers_in_order() {
        let (mut a, mut b, _link) = MemTransport::pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"one");
        assert_eq!(b.try_recv().unwrap().unwrap(), b"two");
        assert_eq!(b.try_recv().unwrap(), None);
        b.send(b"back").unwrap();
        assert_eq!(a.try_recv().unwrap().unwrap(), b"back");
    }

    #[test]
    fn killed_link_drains_then_closes() {
        let (mut a, mut b, link) = MemTransport::pair();
        a.send(b"last words").unwrap();
        link.kill();
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
        // Already-delivered frames still drain before the close surfaces.
        assert_eq!(b.try_recv().unwrap().unwrap(), b"last words");
        assert_eq!(b.try_recv(), Err(TransportError::Closed));
        assert!(!a.is_open());
    }

    #[test]
    fn oversized_frame_refused() {
        let (mut a, _b, _link) = MemTransport::pair();
        let huge = vec![0u8; crate::wire::MAX_FRAME_BYTES + 1];
        assert!(matches!(a.send(&huge), Err(TransportError::TooLarge(_))));
    }

    #[test]
    fn jitter_delays_until_virtual_time_passes() {
        let clock = VirtualClock::new();
        let (a, b, _link) = MemTransport::pair();
        let mut a = a;
        let mut j = JitterTransport::new(
            Box::new(b),
            Box::new(FixedLatency(50)),
            1,
            clock.clone(),
        );
        a.send(b"delayed").unwrap();
        assert_eq!(j.try_recv().unwrap(), None, "not due yet");
        clock.advance(49);
        assert_eq!(j.try_recv().unwrap(), None, "still 1ms early");
        clock.advance(1);
        assert_eq!(j.try_recv().unwrap().unwrap(), b"delayed");
    }

    #[test]
    fn jitter_reorders_deterministically() {
        // Two runs with the same seed must deliver the same order; with
        // a wide uniform latency, that order differs from send order for
        // at least one of the frame batches.
        let deliver = |seed: u64| -> Vec<Vec<u8>> {
            let clock = VirtualClock::new();
            let (mut a, b, _link) = MemTransport::pair();
            let mut j = JitterTransport::new(
                Box::new(b),
                Box::new(UniformLatency::new(1, 1000)),
                seed,
                clock.clone(),
            );
            for i in 0..20u8 {
                a.send(&[i]).unwrap();
            }
            let mut out = Vec::new();
            for _ in 0..2000 {
                clock.advance(1);
                while let Ok(Some(f)) = j.try_recv() {
                    out.push(f);
                }
            }
            out
        };
        let run1 = deliver(7);
        let run2 = deliver(7);
        assert_eq!(run1.len(), 20, "all frames eventually delivered");
        assert_eq!(run1, run2, "same seed, same order");
        let in_order: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
        assert_ne!(run1, in_order, "wide jitter must reorder");
    }

    #[test]
    fn jitter_flushes_held_frames_after_close() {
        let clock = VirtualClock::new();
        let (mut a, b, link) = MemTransport::pair();
        let mut j = JitterTransport::new(
            Box::new(b),
            Box::new(FixedLatency(10)),
            3,
            clock.clone(),
        );
        a.send(b"in flight").unwrap();
        assert_eq!(j.try_recv().unwrap(), None); // absorbed, held
        link.kill();
        clock.advance(10);
        assert_eq!(j.try_recv().unwrap().unwrap(), b"in flight");
        assert_eq!(j.try_recv(), Err(TransportError::Closed));
    }
}
