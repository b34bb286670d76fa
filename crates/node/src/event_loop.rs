//! One reactor to run a node: a blocking, timer-driven event loop.
//!
//! Before this module, every runtime in the repo spun: `loop { poll(now);
//! sleep(1ms) }` — a thousand wakeups a second to usually discover
//! nothing happened. The [`EventLoop`] inverts that. Each subsystem now
//! answers two questions — *which fds can create work for you?* and
//! *when is your next timed work due?* — and the loop blocks in one
//! `epoll_pwait` until the earliest of {socket readiness, next timer}.
//! The subsystems' own pollers nest under the top-level epoll via their
//! [`poller_fd`](crate::query::QueryServer::poller_fd)s (an epoll fd is
//! itself a file that reads ready while its interest list has pending
//! events), so one kernel wait covers gossip TCP, ingest admission, and
//! the HTTP query endpoint at once.
//!
//! Dispatch is deliberately coarse: every wake runs **every** member's
//! full handler sequence at the wake instant, so a fleet's state depends
//! only on the instants it wakes at — what the roles oracle suite in
//! `biot-sim` (`tests/roles_equiv.rs`) compares against a single-gateway
//! oracle twin. It costs only a few no-op handler calls per wake, which
//! is nothing next to the thousand sleeps of a 1 ms poll loop.
//!
//! Time comes from a [`Clock`]. The wall build blocks for real in the
//! poller; a [`VirtualClock`](biot_reactor::VirtualClock) build (used by
//! the simulator) never blocks — [`EventLoop::pump`] jumps the clock
//! straight to the next deadline instead, keeping seeded fleet runs
//! deterministic.

use crate::role::{ArchivalBootError, ArchivalNode, ValidationNode};
use biot_credit::{CreditLedger, CreditParams};
use biot_gossip::node::GossipNode;
use biot_gossip::tcp::{TcpAcceptor, TcpTransport};
use biot_reactor::{build_poller, Clock, Event, Interest, Poller, PollerKind, WallClock};
use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;

/// How long a wall-clock wait may block even with no deadline in sight,
/// so the loop stays responsive to work the poller cannot see (fds that
/// appear between registration syncs, scan-poller fallbacks).
const MAX_WAIT_MS: u64 = 500;

/// How many pending connections one acceptor drains per wake.
const ACCEPTS_PER_WAKE: usize = 64;

/// Handle to a member added to an [`EventLoop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberId(usize);

/// One runtime driven by the loop.
enum Member {
    /// An [`ArchivalNode`]: gossip + store + HTTP.
    Archival(Box<ArchivalNode>),
    /// A [`ValidationNode`]: ingest + gateway bridge + gossip.
    Validation(Box<ValidationNode>),
    /// A bare gossip node folding mesh credit events into a local
    /// ledger projection (the relay/mesh-demo shape).
    Gossip {
        node: Box<GossipNode>,
        ledger: CreditLedger,
    },
}

/// Why the loop stopped.
#[derive(Debug)]
pub enum EventLoopError {
    /// Poller failure.
    Io(io::Error),
    /// An archival member's store or HTTP layer failed.
    Archival(ArchivalBootError),
}

impl std::fmt::Display for EventLoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLoopError::Io(e) => write!(f, "io: {e}"),
            EventLoopError::Archival(e) => write!(f, "archival: {e}"),
        }
    }
}

impl std::error::Error for EventLoopError {}

impl From<io::Error> for EventLoopError {
    fn from(e: io::Error) -> Self {
        EventLoopError::Io(e)
    }
}

impl From<ArchivalBootError> for EventLoopError {
    fn from(e: ArchivalBootError) -> Self {
        EventLoopError::Archival(e)
    }
}

/// The blocking, timer-driven runtime driving any mix of node roles.
pub struct EventLoop {
    poller: Box<dyn Poller>,
    clock: Box<dyn Clock>,
    members: Vec<Member>,
    acceptors: Vec<(TcpAcceptor, MemberId)>,
    /// Current kernel registrations, diff-synced against the members'
    /// live fd sets before every wait. Tokens are the fd itself — fds
    /// are unique while open, and dispatch doesn't route by token.
    registered: HashMap<RawFd, Interest>,
    events: Vec<Event>,
    wakeups: u64,
    max_wait_ms: u64,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("members", &self.members.len())
            .field("acceptors", &self.acceptors.len())
            .field("registered", &self.registered.len())
            .field("wakeups", &self.wakeups)
            .finish()
    }
}

impl EventLoop {
    /// A wall-clock loop on the platform's best poller. Time is
    /// milliseconds since this call.
    ///
    /// # Errors
    ///
    /// Poller creation failures.
    pub fn new() -> io::Result<Self> {
        Self::with_clock(Box::new(WallClock::new()))
    }

    /// A loop on an explicit clock — pass a
    /// [`VirtualClock`](biot_reactor::VirtualClock) for deterministic,
    /// never-blocking simulation (drive it with [`EventLoop::pump`]).
    ///
    /// # Errors
    ///
    /// Poller creation failures.
    pub fn with_clock(clock: Box<dyn Clock>) -> io::Result<Self> {
        Ok(Self {
            poller: build_poller(PollerKind::Epoll)?,
            clock,
            members: Vec::new(),
            acceptors: Vec::new(),
            registered: HashMap::new(),
            events: Vec::new(),
            wakeups: 0,
            max_wait_ms: MAX_WAIT_MS,
        })
    }

    /// Adds an archival runtime.
    pub fn add_archival(&mut self, node: ArchivalNode) -> MemberId {
        self.members.push(Member::Archival(Box::new(node)));
        MemberId(self.members.len() - 1)
    }

    /// Adds a validation runtime.
    pub fn add_validation(&mut self, node: ValidationNode) -> MemberId {
        self.members.push(Member::Validation(Box::new(node)));
        MemberId(self.members.len() - 1)
    }

    /// Adds a bare gossip node; mesh credit events it receives are
    /// folded into a fresh ledger readable via [`EventLoop::ledger`].
    pub fn add_gossip(&mut self, node: GossipNode) -> MemberId {
        self.members.push(Member::Gossip {
            node: Box::new(node),
            ledger: CreditLedger::new(CreditParams::default()),
        });
        MemberId(self.members.len() - 1)
    }

    /// Routes connections accepted on `acceptor` into `member`'s gossip
    /// layer as TCP transports.
    pub fn add_acceptor(&mut self, acceptor: TcpAcceptor, member: MemberId) {
        self.acceptors.push((acceptor, member));
    }

    /// The gossip acceptors and the members they feed — read an
    /// acceptor's [`stats`](TcpAcceptor::stats) for its accept failures.
    pub fn acceptors(&self) -> impl Iterator<Item = (&TcpAcceptor, MemberId)> {
        self.acceptors.iter().map(|(a, m)| (a, *m))
    }

    /// The loop's notion of now, in ms.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// How many times the loop has woken and dispatched: `runtime_report`
    /// measures it per idle second, and the roles oracle suite bounds it
    /// per scripted step.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// The archival member behind `id`, if that's what it is.
    pub fn archival(&self, id: MemberId) -> Option<&ArchivalNode> {
        match self.members.get(id.0) {
            Some(Member::Archival(n)) => Some(n),
            _ => None,
        }
    }

    /// Mutable [`EventLoop::archival`].
    pub fn archival_mut(&mut self, id: MemberId) -> Option<&mut ArchivalNode> {
        match self.members.get_mut(id.0) {
            Some(Member::Archival(n)) => Some(n),
            _ => None,
        }
    }

    /// The validation member behind `id`, if that's what it is.
    pub fn validation(&self, id: MemberId) -> Option<&ValidationNode> {
        match self.members.get(id.0) {
            Some(Member::Validation(n)) => Some(n),
            _ => None,
        }
    }

    /// Mutable [`EventLoop::validation`].
    pub fn validation_mut(&mut self, id: MemberId) -> Option<&mut ValidationNode> {
        match self.members.get_mut(id.0) {
            Some(Member::Validation(n)) => Some(n),
            _ => None,
        }
    }

    /// Any member's gossip layer, whatever its role.
    pub fn gossip(&self, id: MemberId) -> Option<&GossipNode> {
        match self.members.get(id.0)? {
            Member::Archival(n) => Some(n.gossip()),
            Member::Validation(n) => Some(n.gossip()),
            Member::Gossip { node, .. } => Some(node),
        }
    }

    /// Mutable [`EventLoop::gossip`] (to wire transports/connectors).
    pub fn gossip_mut(&mut self, id: MemberId) -> Option<&mut GossipNode> {
        match self.members.get_mut(id.0)? {
            Member::Archival(n) => Some(n.gossip_mut()),
            Member::Validation(n) => Some(n.gossip_mut()),
            Member::Gossip { node, .. } => Some(node),
        }
    }

    /// The credit projection of a bare-gossip member.
    pub fn ledger(&self, id: MemberId) -> Option<&CreditLedger> {
        match self.members.get(id.0) {
            Some(Member::Gossip { ledger, .. }) => Some(ledger),
            _ => None,
        }
    }

    /// Mutable [`EventLoop::ledger`] (simulators fold locally injected
    /// events into the origin's own projection, as a broadcast does not
    /// loop back).
    pub fn ledger_mut(&mut self, id: MemberId) -> Option<&mut CreditLedger> {
        match self.members.get_mut(id.0) {
            Some(Member::Gossip { ledger, .. }) => Some(ledger),
            _ => None,
        }
    }

    /// Earliest absolute instant (ms) of timed work across every member
    /// and the loop itself (a parked acceptor's re-arm). `None` when only
    /// socket readiness (or an external injection) can create work.
    pub fn next_deadline(&self) -> Option<u64> {
        let now_ms = self.clock.now_ms();
        let mut next: Option<u64> = None;
        let mut fold = |d: Option<u64>| {
            if let Some(d) = d {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        };
        for (acceptor, _) in &self.acceptors {
            fold(acceptor.resume_at());
        }
        for m in &self.members {
            match m {
                Member::Archival(n) => fold(n.next_deadline()),
                Member::Validation(n) => fold(n.next_deadline(now_ms)),
                Member::Gossip { node, .. } => fold(node.next_deadline()),
            }
        }
        next
    }

    /// One blocking iteration (wall clocks): sync fd registrations,
    /// wait in the poller until the earliest of {socket readiness, next
    /// deadline}, then dispatch every member at the wake instant.
    ///
    /// # Errors
    ///
    /// See [`EventLoopError`].
    pub fn turn(&mut self) -> Result<(), EventLoopError> {
        self.sync_registrations();
        let now = self.clock.now_ms();
        let timeout = match self.next_deadline() {
            Some(d) if d <= now => 0,
            Some(d) => (d - now).min(self.max_wait_ms),
            None => self.max_wait_ms,
        };
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let polled = self.poller.poll(&mut events, timeout as i32);
        self.events = events;
        polled?;
        let now = self.clock.now_ms();
        self.wakeups += 1;
        self.dispatch(now)
    }

    /// Runs [`EventLoop::turn`] until `done` reports true or the clock
    /// passes `deadline_ms`. Returns whether `done` was reached.
    ///
    /// # Errors
    ///
    /// See [`EventLoopError`].
    pub fn run_until(
        &mut self,
        deadline_ms: u64,
        mut done: impl FnMut(&EventLoop) -> bool,
    ) -> Result<bool, EventLoopError> {
        loop {
            if done(self) {
                return Ok(true);
            }
            if self.clock.now_ms() >= deadline_ms {
                return Ok(false);
            }
            self.turn()?;
        }
    }

    /// Virtual-clock driver: process every deadline up to and including
    /// `until_ms`, jumping the clock from one deadline straight to the
    /// next (no blocking, no wall time), and leave the clock at
    /// `until_ms`. Between calls the simulator injects scripted work —
    /// submissions, membership changes — and each wake dispatches every
    /// member at that instant.
    ///
    /// # Errors
    ///
    /// See [`EventLoopError`].
    pub fn pump(&mut self, until_ms: u64) -> Result<(), EventLoopError> {
        loop {
            let now = self.clock.now_ms();
            match self.next_deadline() {
                Some(d) if d <= until_ms => {
                    let at = d.max(now);
                    self.clock.advance_to(at);
                    self.wakeups += 1;
                    self.dispatch(at)?;
                }
                _ => break,
            }
        }
        self.clock.advance_to(until_ms);
        Ok(())
    }

    /// Diff-syncs kernel registrations against the members' live fd
    /// sets: gossip TCP transports (write interest only while they hold
    /// unflushed bytes), nested subsystem pollers, acceptors (no interest
    /// while parked).
    /// Registration failures are tolerated — an fd that cannot be
    /// watched is still serviced on the next timer wake.
    fn sync_registrations(&mut self) {
        let mut desired: HashMap<RawFd, Interest> = HashMap::new();
        for (acceptor, _) in &self.acceptors {
            desired.insert(acceptor.raw_fd(), acceptor.interest());
        }
        for m in &self.members {
            let gossip = match m {
                Member::Archival(n) => {
                    if let Some(fd) = n.http_poller_fd() {
                        desired.insert(fd, Interest::READ);
                    }
                    n.gossip()
                }
                Member::Validation(n) => {
                    if let Some(fd) = n.ingest_poller_fd() {
                        desired.insert(fd, Interest::READ);
                    }
                    n.gossip()
                }
                Member::Gossip { node, .. } => node,
            };
            for (fd, wants_write) in gossip.transport_fds() {
                let interest = if wants_write { Interest::READ_WRITE } else { Interest::READ };
                desired.insert(fd, interest);
            }
        }
        let gone: Vec<RawFd> =
            self.registered.keys().filter(|fd| !desired.contains_key(fd)).copied().collect();
        for fd in gone {
            let _ = self.poller.deregister(fd);
            self.registered.remove(&fd);
        }
        for (fd, want) in desired {
            let token = fd as usize;
            match self.registered.get(&fd) {
                Some(have) if *have == want => {}
                Some(_) => {
                    // A closed-and-reopened fd number looks re-registered
                    // to us but is new to the kernel: fall back.
                    if self.poller.reregister(fd, token, want).is_err() {
                        let _ = self.poller.register(fd, token, want);
                    }
                    self.registered.insert(fd, want);
                }
                None => {
                    if self.poller.register(fd, token, want).is_err() {
                        let _ = self.poller.reregister(fd, token, want);
                    }
                    self.registered.insert(fd, want);
                }
            }
        }
    }

    /// One wake: accept pending connections into their members, then
    /// run every member's full handler sequence at `now_ms`.
    fn dispatch(&mut self, now_ms: u64) -> Result<(), EventLoopError> {
        // Accept first so a brand-new transport is serviced this wake.
        let mut accepted = Vec::new();
        for (acceptor, member) in &mut self.acceptors {
            let fresh = acceptor.accept_burst(now_ms, ACCEPTS_PER_WAKE, usize::MAX);
            if !fresh.is_empty() {
                accepted.push((*member, fresh));
            }
        }
        for (member, streams) in accepted {
            if let Some(gossip) = self.gossip_mut(member) {
                for stream in streams {
                    gossip.add_transport(Box::new(TcpTransport::accepted(stream)), now_ms);
                }
            }
        }
        for m in &mut self.members {
            match m {
                Member::Archival(n) => {
                    n.poll(now_ms)?;
                }
                Member::Validation(n) => {
                    n.poll(now_ms)?;
                }
                Member::Gossip { node, ledger } => {
                    node.poll(now_ms);
                    for (_, ev) in node.take_credit_events() {
                        ledger.apply(&ev);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biot_gossip::node::GossipConfig;
    use biot_gossip::transport::MemTransport;
    use biot_reactor::VirtualClock;
    use biot_tangle::tx::NodeId;

    #[test]
    fn pump_syncs_two_gossip_members_without_wall_time() {
        let clock = VirtualClock::new();
        let mut el = EventLoop::with_clock(Box::new(clock.clone())).unwrap();

        let mut a = GossipNode::with_empty_tangle(GossipConfig::default());
        let genesis = a.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);
        let tx = biot_tangle::tx::TransactionBuilder::new(NodeId([1; 32]))
            .parents(genesis, genesis)
            .payload(biot_tangle::tx::Payload::Data(vec![1]))
            .timestamp_ms(1)
            .build();
        a.tangle().lock().unwrap().attach(tx, 1).unwrap();

        let mut b = GossipNode::with_empty_tangle(GossipConfig::default());
        b.tangle().lock().unwrap().attach_genesis(NodeId([0; 32]), 0);

        let (ta, tb, _link) = MemTransport::pair();
        a.add_transport(Box::new(ta), 0);
        b.add_transport(Box::new(tb), 0);
        let ia = el.add_gossip(a);
        let ib = el.add_gossip(b);

        el.pump(10_000).unwrap();
        assert_eq!(el.now_ms(), 10_000, "clock lands on the pump horizon");
        assert_eq!(el.gossip(ib).unwrap().tangle().lock().unwrap().len(), 2, "b synced");
        assert_eq!(el.gossip(ia).unwrap().ready_peers(), 1);
        // Deadline-hopping, not ms-stepping: far fewer wakes than ticks.
        assert!(el.wakeups() < 200, "pump took {} wakes for 10s", el.wakeups());
    }

    #[test]
    fn next_deadline_tracks_member_timers() {
        let mut el = EventLoop::with_clock(Box::new(VirtualClock::new())).unwrap();
        assert_eq!(el.next_deadline(), None, "no members, no deadlines");
        let g = GossipNode::with_empty_tangle(GossipConfig::default());
        el.add_gossip(g);
        assert_eq!(el.next_deadline(), Some(0), "fresh gossip timers are due at 0");
    }
}
