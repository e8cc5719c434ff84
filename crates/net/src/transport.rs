//! The transport layer: a `mio`-style readiness reactor built on
//! `poll(2)` and non-blocking sockets (in-tree, like the workspace's
//! other stand-ins — the build box has no network, so no `mio`/`libc`
//! crates).
//!
//! The pieces, bottom-up:
//!
//! * [`Poller`] — fd registration keyed by caller-chosen [`Token`]s,
//!   [`Interest`] flags, and a [`Poller::poll`] call that fills a
//!   caller-owned [`Event`] buffer. The kernel interface is
//!   level-triggered `poll(2)`; drivers use it in the edge-triggered
//!   style (drain a ready fd until `WouldBlock`) or lean on the
//!   level-triggered re-delivery for fairness — the reactor server
//!   reads one bounded chunk per wakeup and lets the next wakeup
//!   continue, so one flooding connection cannot starve the rest.
//! * [`WriteBuf`] — write-backpressure via partial-write buffering: a
//!   response that does not fit the socket buffer stays queued, the
//!   connection switches its interest to `WRITABLE`, and the next
//!   wakeup continues from the exact byte where the kernel stopped.
//! * [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` raise so
//!   idle-scale runs (10⁴ connections = 2·10⁴ fds in-process on
//!   loopback) fit; callers size their fleets from the returned
//!   limit rather than assuming the raise succeeded.
//!
//! Nothing here knows about frames or the protocol: bytes in, bytes
//! out, readiness in between. The session layer ([`crate::session`])
//! is the pure other half; `server::Server::run` glues the two.
//!
//! Unix-only (the workspace targets Linux); `poll(2)` and
//! `get/setrlimit(2)` are declared directly — Rust already links libc
//! on every Unix target, so no external crate is needed. Their four
//! calls are `unsafe` blocks, and the only other one in the workspace
//! is the call into the carry-less-multiply CRC kernel
//! ([`crate::crc`]). Each states its contract in a `// SAFETY:`
//! comment, which the crate's `clippy::undocumented_unsafe_blocks`
//! denial enforces, and the tests below pin the FFI contracts.

use std::io::{self, Write};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_ulong};
use std::time::Duration;

// ---------------------------------------------------------------------
// poll(2) FFI
// ---------------------------------------------------------------------

/// `struct pollfd` from `<poll.h>` (identical layout on every Linux
/// target this workspace builds for).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct RawPollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut RawPollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

// ---------------------------------------------------------------------
// Tokens, interest, events
// ---------------------------------------------------------------------

/// Caller-chosen registration key: the reactor hands it back in every
/// [`Event`], so drivers can index straight into their connection slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// What readiness a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub const READABLE: Interest = Interest(1);
    /// Wake when the fd accepts more bytes.
    pub const WRITABLE: Interest = Interest(2);
    /// Both directions.
    pub const BOTH: Interest = Interest(3);
    /// No wakeups except errors/hangup — how a driver parks a
    /// connection (paused accepts at capacity, read-side backpressure)
    /// without losing error delivery.
    pub const NONE: Interest = Interest(0);

    /// Whether `READABLE` is included.
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether `WRITABLE` is included.
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// The union of two interests.
    pub fn with(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    fn poll_bits(self) -> i16 {
        let mut bits = 0;
        if self.is_readable() {
            bits |= POLLIN;
        }
        if self.is_writable() {
            bits |= POLLOUT;
        }
        bits
    }
}

/// One readiness wakeup for one registration.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd accepts more bytes.
    pub writable: bool,
    /// The peer hung up (`POLLHUP`); a read drains what remains, then
    /// returns 0.
    pub hangup: bool,
    /// The fd is in an error state (`POLLERR`/`POLLNVAL`); close it.
    pub error: bool,
}

// ---------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Slot {
    fd: RawFd,
    interest: Interest,
}

/// The readiness reactor: a token-keyed fd table polled with one
/// `poll(2)` call per turn. Registration, re-registration and
/// deregistration are O(1) against the table; the pollfd array is
/// rebuilt lazily when the registration set changes.
#[derive(Debug, Default)]
pub struct Poller {
    slots: Vec<Option<Slot>>,
    registered: usize,
    pollfds: Vec<RawPollFd>,
    /// `pollfds[i]` belongs to token `index[i]`.
    index: Vec<usize>,
    dirty: bool,
}

impl Poller {
    /// An empty reactor.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Register `fd` under `token`. The token must be free.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if self.slots.len() <= token.0 {
            self.slots.resize(token.0 + 1, None);
        }
        if self.slots[token.0].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("token {} is already registered", token.0),
            ));
        }
        self.slots[token.0] = Some(Slot { fd, interest });
        self.registered += 1;
        self.dirty = true;
        Ok(())
    }

    /// Replace the interest of an existing registration.
    pub fn reregister(&mut self, token: Token, interest: Interest) -> io::Result<()> {
        match self.slots.get_mut(token.0).and_then(Option::as_mut) {
            Some(slot) => {
                if slot.interest != interest {
                    slot.interest = interest;
                    self.dirty = true;
                }
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("token {} is not registered", token.0),
            )),
        }
    }

    /// Remove a registration (the fd itself is untouched — closing it
    /// is the caller's business).
    pub fn deregister(&mut self, token: Token) -> io::Result<()> {
        match self.slots.get_mut(token.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.registered -= 1;
                self.dirty = true;
                Ok(())
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("token {} is not registered", token.0),
            )),
        }
    }

    /// How many fds are currently registered.
    pub fn registered(&self) -> usize {
        self.registered
    }

    /// Wait up to `timeout` (forever when `None`) for readiness and
    /// fill `events` with every ready registration. Returns the number
    /// of events delivered; an interrupting signal delivers zero (the
    /// caller just polls again), so callers never see `EINTR`.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        if self.dirty {
            self.pollfds.clear();
            self.index.clear();
            for (token, slot) in self.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    self.pollfds.push(RawPollFd {
                        fd: slot.fd,
                        events: slot.interest.poll_bits(),
                        revents: 0,
                    });
                    self.index.push(token);
                }
            }
            self.dirty = false;
        }
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round sub-millisecond timeouts up so a 50µs deadline does
            // not become a busy loop.
            Some(d) => d
                .as_millis()
                .clamp(u128::from(d.as_nanos() > 0), c_int::MAX as u128)
                as c_int,
        };
        // SAFETY: `pollfds` is a live, exclusively borrowed buffer of
        // `#[repr(C)]` `struct pollfd`s and `nfds` is its length, so the
        // kernel reads and writes (`revents` only) inside it, and only
        // until the call returns. A closed or stale fd is not undefined
        // behaviour: poll(2) reports it as `POLLNVAL`.
        let n = unsafe {
            poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as c_ulong,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        if n > 0 {
            for (i, pfd) in self.pollfds.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token: Token(self.index[i]),
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & POLLHUP != 0,
                    error: pfd.revents & (POLLERR | POLLNVAL) != 0,
                });
                if events.len() == n as usize {
                    break;
                }
            }
        }
        Ok(events.len())
    }
}

// ---------------------------------------------------------------------
// Write-backpressure buffer
// ---------------------------------------------------------------------

/// Whether a [`WriteBuf::flush_to`] drained everything or hit a kernel
/// buffer limit mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushProgress {
    /// Every queued byte is on the wire.
    Done,
    /// The sink reported `WouldBlock`; the remainder stays queued and
    /// the caller should wait for a `WRITABLE` wakeup.
    Partial,
}

/// Queued outbound bytes with partial-write continuation: what turns a
/// slow-reading peer into buffered bytes instead of a blocked reactor.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Queue `bytes` behind whatever is already pending. With nothing
    /// pending the vector becomes the buffer, so a reply is queued
    /// without a copy.
    pub fn push(&mut self, bytes: Vec<u8>) {
        if self.is_empty() {
            self.buf = bytes;
            self.pos = 0;
        } else {
            self.compact();
            self.buf.extend_from_slice(&bytes);
        }
    }

    /// Bytes still waiting to go out.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Write as much as the sink takes right now. `WouldBlock` is not
    /// an error — it returns [`FlushProgress::Partial`] with the
    /// remainder (continuing from the exact byte the kernel stopped
    /// at); `Interrupted` retries in place. Everything else is fatal
    /// for the connection.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<FlushProgress> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(FlushProgress::Partial);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(FlushProgress::Done)
    }

    /// Drop already-written bytes once they dominate the buffer, so a
    /// long-lived trickling connection cannot grow it without bound.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

// ---------------------------------------------------------------------
// RLIMIT_NOFILE
// ---------------------------------------------------------------------

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

/// Best-effort raise of the fd limit to at least `want`, returning the
/// soft limit actually in force afterwards. Idle-scale callers (10⁴
/// loopback connections are 2·10⁴ fds in one process) size their fleet
/// from the return value instead of assuming the raise worked: with
/// privilege the hard limit is raised too, without it the soft limit
/// moves up to the hard cap and no further.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live, writable `RLimit`, and getrlimit(2)
    // writes that one struct and nothing else. `RLimit` and
    // `RLIMIT_NOFILE` match Linux's `struct rlimit` and resource number
    // on the 64-bit targets this workspace builds for. Failure comes
    // back as a non-zero return, never as a partial write we read.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024; // the POSIX floor; nothing better to report
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    if lim.rlim_max < want {
        // Raising the hard limit needs privilege; try, ignore failure.
        let raised = RLimit {
            rlim_cur: want,
            rlim_max: want,
        };
        // SAFETY: `raised` is a live `RLimit` that setrlimit(2) only
        // reads; layout as for getrlimit above. An unprivileged raise is
        // refused with a non-zero return, which falls through.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return want;
        }
    }
    let capped = RLimit {
        rlim_cur: want.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    // SAFETY: as above; `capped` is a live `RLimit` that setrlimit(2)
    // only reads, and a refusal is a non-zero return.
    if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } == 0 {
        capped.rlim_cur
    } else {
        lim.rlim_cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readiness_follows_data() {
        let (a, mut b) = pair();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new();
        poller
            .register(a.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "nothing written yet");

        b.write_all(b"ping").unwrap();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);

        let mut got = [0u8; 8];
        let read = (&a).read(&mut got).unwrap();
        assert_eq!(&got[..read], b"ping");
    }

    #[test]
    fn interest_none_suppresses_read_wakeups() {
        let (a, mut b) = pair();
        let mut poller = Poller::new();
        poller
            .register(a.as_raw_fd(), Token(0), Interest::NONE)
            .unwrap();
        b.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "parked registration must not wake on data");
        poller.reregister(Token(0), Interest::READABLE).unwrap();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn deregister_frees_the_token() {
        let (a, b) = pair();
        let mut poller = Poller::new();
        poller
            .register(a.as_raw_fd(), Token(3), Interest::READABLE)
            .unwrap();
        assert!(poller
            .register(b.as_raw_fd(), Token(3), Interest::READABLE)
            .is_err());
        poller.deregister(Token(3)).unwrap();
        assert_eq!(poller.registered(), 0);
        poller
            .register(b.as_raw_fd(), Token(3), Interest::WRITABLE)
            .unwrap();
        assert_eq!(poller.registered(), 1);
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = pair();
        let mut poller = Poller::new();
        poller
            .register(a.as_raw_fd(), Token(1), Interest::READABLE)
            .unwrap();
        drop(b);
        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable || events[0].hangup);
    }

    #[test]
    fn write_buf_continues_partial_writes() {
        struct Throttle {
            accepted: Vec<u8>,
            budget: usize,
        }
        impl Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                let n = buf.len().min(self.budget);
                self.accepted.extend_from_slice(&buf[..n]);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut sink = Throttle {
            accepted: Vec::new(),
            budget: 3,
        };
        let mut wbuf = WriteBuf::new();
        wbuf.push(b"hello".to_vec());
        assert_eq!(wbuf.flush_to(&mut sink).unwrap(), FlushProgress::Partial);
        assert_eq!(wbuf.pending(), 2);
        wbuf.push(b" world".to_vec());
        sink.budget = usize::MAX;
        assert_eq!(wbuf.flush_to(&mut sink).unwrap(), FlushProgress::Done);
        assert_eq!(sink.accepted, b"hello world");
        assert!(wbuf.is_empty());

        // A push onto a fully drained buffer becomes the buffer: the
        // reply's allocation is queued as it is, not copied.
        let reply = b", again".to_vec();
        let at = reply.as_ptr();
        wbuf.push(reply);
        assert_eq!(wbuf.buf.as_ptr(), at);
        assert_eq!(wbuf.pending(), 7);
        assert_eq!(wbuf.flush_to(&mut sink).unwrap(), FlushProgress::Done);
        assert_eq!(sink.accepted, b"hello world, again");

        // A push behind a partial write queues after the unsent bytes.
        sink.budget = 2;
        wbuf.push(b"abcd".to_vec());
        assert_eq!(wbuf.flush_to(&mut sink).unwrap(), FlushProgress::Partial);
        wbuf.push(b"ef".to_vec());
        assert_eq!(wbuf.pending(), 4);
        sink.budget = usize::MAX;
        assert_eq!(wbuf.flush_to(&mut sink).unwrap(), FlushProgress::Done);
        assert_eq!(sink.accepted, b"hello world, againabcdef");
        assert!(wbuf.is_empty());
    }

    /// The `poll` call's contract: an fd that is not open is reported,
    /// not undefined behaviour. `c_int::MAX` is above any fd limit, so
    /// no other thread can open it meanwhile (a closed socket's number
    /// could be reused by a concurrent test).
    #[test]
    fn poll_reports_an_fd_that_cannot_be_open() {
        let mut poller = Poller::new();
        poller
            .register(c_int::MAX, Token(5), Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1, "POLLNVAL must be delivered at once");
        assert_eq!(events[0].token, Token(5));
        assert!(events[0].error, "POLLNVAL maps to an error event");
    }

    /// The `getrlimit`/`setrlimit` contracts, which hold with or without
    /// the privilege to raise the hard limit. One test, so no other test
    /// in this process moves the limit between its reads.
    #[test]
    fn nofile_limit_reports_a_usable_value() {
        let limit = raise_nofile_limit(256);
        assert!(limit >= 256 || limit >= 1024);

        // Asking for nothing reads the soft limit in force, which is
        // what the raise above reported, and sets nothing.
        let before = raise_nofile_limit(0);
        assert_eq!(before, limit);
        assert_eq!(raise_nofile_limit(0), before);
        // A raise never lowers the limit, and reports what is in force.
        let got = raise_nofile_limit(before + 1);
        assert!(got >= before, "raise lowered the limit: {before} -> {got}");
        assert_eq!(raise_nofile_limit(0), got);
    }
}
