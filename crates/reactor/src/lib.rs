//! # biot-reactor
//!
//! The shared readiness reactor: who is worth reading *right now*?
//!
//! A [`Poller`] owns the mapping from raw socket fds to caller tokens
//! and answers one question per tick: which registered sockets are ready
//! for the interest we declared. Two implementations:
//!
//! * [`EpollPoller`] — the kernel's answer via `epoll` ([`sys`]),
//!   O(ready) per tick. One syscall replaces N speculative reads.
//! * [`ScanPoller`] — no kernel help: every registered fd is reported
//!   ready every tick and the caller's non-blocking reads discover the
//!   truth. This is exactly the per-connection poll loop the gossip layer
//!   uses (PR 4), kept both as the portable fallback and as the measured
//!   **naive baseline** in `results/BENCH_ingest.json`.
//!
//! Both are level-triggered: unconsumed readiness is reported again next
//! tick, so a bounded per-tick read budget never loses data.
//!
//! Extracted from `biot-ingest` (PR 9) so the ingestion front end and the
//! archival node's HTTP query endpoint (`biot-node`) drive their sockets
//! through one readiness loop.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub mod sys;

pub mod time;

pub use time::{Clock, DeadlineQueue, VirtualClock, WallClock};

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes (or a pending accept) to read.
    pub readable: bool,
    /// Wake when the fd can accept more outbound bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest — a paused reader still draining its acks.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Both directions.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
    /// Neither direction (parked: registered but silent).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token given at registration.
    pub token: usize,
    /// The fd is readable (data, pending accept, EOF, or error).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the socket errored (`EPOLLHUP`/`EPOLLERR`).
    /// The kernel reports these regardless of the registered interest,
    /// so even a parked (zero-interest) fd gets them — the caller must
    /// reap such connections instead of ignoring the event, or a dead
    /// parked socket re-fires every tick. Always `false` for the scan
    /// poller, whose reads discover failures in-band.
    pub hangup: bool,
}

/// Which poller implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// Kernel readiness via `epoll` — O(ready) dispatch. Falls back to
    /// [`PollerKind::Scan`] where the syscalls are unavailable.
    #[default]
    Epoll,
    /// Level-triggered scan over every registered fd — O(n) dispatch,
    /// the naive per-connection-poll baseline.
    Scan,
}

/// Polls readiness for a set of registered fds.
pub trait Poller: Send {
    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Kernel failures (epoll) — never fails for the scan poller.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Changes the interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Kernel failures (epoll) — never fails for the scan poller.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Kernel failures (epoll) — never fails for the scan poller.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Fills `events` with ready fds. Blocks at most `timeout_ms`
    /// (epoll); the scan poller returns immediately, reporting everything
    /// registered — its callers pace themselves.
    ///
    /// # Errors
    ///
    /// Kernel failures (epoll) — never fails for the scan poller.
    fn poll(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;

    /// Which implementation this is (for reports).
    fn kind(&self) -> PollerKind;

    /// The poller's own pollable fd, when it has one. An epoll instance
    /// is itself a file: it reads as ready whenever its interest list has
    /// pending events, so an outer loop can nest a whole subsystem's
    /// poller under one top-level `epoll_pwait` by registering this fd
    /// with read interest. `None` for pollers with no kernel backing
    /// (the scan poller) — the outer loop must then poll the subsystem
    /// on a timer instead.
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }
}

/// Builds the requested poller, falling back to [`ScanPoller`] when the
/// platform has no epoll support compiled in.
pub fn build_poller(kind: PollerKind) -> io::Result<Box<dyn Poller>> {
    match kind {
        PollerKind::Scan => Ok(Box::new(ScanPoller::new())),
        PollerKind::Epoll => {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                Ok(Box::new(EpollPoller::new()?))
            }
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            {
                Ok(Box::new(ScanPoller::new()))
            }
        }
    }
}

// --- Scan fallback / naive baseline ------------------------------------------

/// Reports every registered fd as ready for its declared interest, every
/// tick — the caller's non-blocking I/O then discovers which were lying.
/// O(connections) per tick; the measured baseline the reactor beats.
#[derive(Debug, Default)]
pub struct ScanPoller {
    regs: BTreeMap<RawFd, (usize, Interest)>,
}

impl ScanPoller {
    /// An empty scan poller.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Poller for ScanPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.regs.insert(fd, (token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.regs.insert(fd, (token, interest));
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.regs.remove(&fd);
        Ok(())
    }

    fn poll(&mut self, events: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
        events.clear();
        events.extend(self.regs.values().filter_map(|&(token, interest)| {
            if !interest.readable && !interest.writable {
                return None;
            }
            Some(Event {
                token,
                readable: interest.readable,
                writable: interest.writable,
                hangup: false,
            })
        }));
        Ok(())
    }

    fn kind(&self) -> PollerKind {
        PollerKind::Scan
    }
}

// --- Epoll reactor ------------------------------------------------------------

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub use epoll_impl::EpollPoller;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod epoll_impl {
    use super::{Event, Interest, Poller, PollerKind};
    use crate::sys;
    use std::io;
    use std::os::fd::RawFd;

    fn bits_of(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Kernel-backed readiness: one `epoll_wait` per tick, dispatching
    /// only sockets with actual news.
    #[derive(Debug)]
    pub struct EpollPoller {
        epfd: RawFd,
        /// Scratch readiness buffer reused across ticks.
        buf: Vec<sys::EpollEvent>,
    }

    impl EpollPoller {
        /// Creates the epoll instance.
        ///
        /// # Errors
        ///
        /// Kernel failures (fd exhaustion).
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                epfd: sys::epoll_create1()?,
                buf: vec![sys::EpollEvent::default(); 1024],
            })
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            sys::close(self.epfd);
        }
    }

    impl Poller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, bits_of(interest), token as u64)
        }

        fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, bits_of(interest), token as u64)
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn poll(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let n = sys::epoll_wait(self.epfd, &mut self.buf, timeout_ms)?;
            for ev in &self.buf[..n] {
                let bits = ev.bits();
                events.push(Event {
                    token: ev.cookie() as usize,
                    // Errors and hangups surface as readable: the next
                    // non-blocking read reports the failure in-band.
                    readable: bits
                        & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                        != 0,
                    writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                    // Reported even for zero-interest registrations —
                    // the caller's cue to reap a parked dead socket.
                    hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
                });
            }
            // A full buffer means more may be pending: grow so a flood
            // converges to one syscall per tick instead of truncating.
            if n == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, sys::EpollEvent::default());
            }
            Ok(())
        }

        fn kind(&self) -> PollerKind {
            PollerKind::Epoll
        }

        fn raw_fd(&self) -> Option<RawFd> {
            Some(self.epfd)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn poll_collect(p: &mut dyn Poller, timeout_ms: i32) -> Vec<Event> {
        let mut events = Vec::new();
        p.poll(&mut events, timeout_ms).unwrap();
        events
    }

    #[test]
    fn scan_poller_reports_everything_registered() {
        let mut p = ScanPoller::new();
        p.register(10, 1, Interest::READ).unwrap();
        p.register(11, 2, Interest::READ_WRITE).unwrap();
        p.register(12, 3, Interest::NONE).unwrap();
        let evs = poll_collect(&mut p, 0);
        assert_eq!(evs.len(), 2, "parked fds are not reported");
        p.deregister(10).unwrap();
        assert_eq!(poll_collect(&mut p, 0).len(), 1);
    }

    #[test]
    fn default_poller_dispatches_only_ready_sockets() {
        // With epoll available this proves O(ready) dispatch; on scan
        // fallback platforms it degenerates to "reports registered".
        let mut p = build_poller(PollerKind::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();

        let mut quiet: Vec<(TcpStream, TcpStream)> = Vec::new();
        for i in 0..8 {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            s.set_nonblocking(true).unwrap();
            p.register(s.as_raw_fd(), i, Interest::READ).unwrap();
            quiet.push((c, s));
        }
        if p.kind() == PollerKind::Epoll {
            assert!(poll_collect(p.as_mut(), 0).is_empty(), "nobody spoke yet");
        }
        quiet[3].0.write_all(b"hi").unwrap();
        quiet[6].0.write_all(b"hi").unwrap();
        let evs = poll_collect(p.as_mut(), 5_000);
        if p.kind() == PollerKind::Epoll {
            let mut tokens: Vec<usize> = evs.iter().map(|e| e.token).collect();
            tokens.sort_unstable();
            assert_eq!(tokens, vec![3, 6], "exactly the ready sockets");
        } else {
            assert_eq!(evs.len(), 8);
        }
    }

    #[test]
    fn epoll_interest_mod_defers_reads() {
        let mut p = build_poller(PollerKind::Epoll).unwrap();
        if p.kind() != PollerKind::Epoll {
            return; // platform fallback — nothing to assert here
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        p.register(server.as_raw_fd(), 9, Interest::READ).unwrap();
        client.write_all(b"backlog").unwrap();
        assert_eq!(poll_collect(p.as_mut(), 5_000).len(), 1);

        // Deferred read interest: data still pending, but parked fds stay
        // silent — exactly how the server pauses a flooding connection.
        p.reregister(server.as_raw_fd(), 9, Interest::NONE).unwrap();
        assert!(poll_collect(p.as_mut(), 50).is_empty());
        p.reregister(server.as_raw_fd(), 9, Interest::READ).unwrap();
        assert_eq!(poll_collect(p.as_mut(), 5_000).len(), 1, "level-triggered: news re-reported");
    }
}
