//! Readiness polling behind a tiny [`Poller`] trait — the only unsafe code
//! in the service crate.
//!
//! The service's reactor ([`crate::PlacementService`]) needs "tell me which
//! fds are readable/writable" without pulling in an async runtime or any
//! dependency. `std` deliberately does not expose this, so this module binds
//! the two relevant POSIX syscalls directly:
//!
//! * [`EpollPoller`] — Linux `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   level-triggered, O(ready) per wakeup. The production path.
//! * [`PollPoller`] — portable POSIX `poll(2)`, O(registered) per wakeup.
//!   Compiled (and unit-tested) on every Unix, so the Linux-only epoll
//!   bindings always have a living fallback.
//! * non-Unix — [`new_poller`] returns `Unsupported`, and so does
//!   [`crate::PlacementService::start`].
//!
//! [`WakePipe`] is the classic self-pipe: a nonblocking pipe whose read end
//! is registered in the poller, so another thread (a worker finishing a job,
//! [`crate::PlacementService::shutdown`]) can interrupt a blocked
//! `poll`/`epoll_wait` by writing one byte — no sleep ticks, no throwaway
//! TCP connects.
//!
//! All bindings are `extern "C"` declarations of syscall wrappers that every
//! libc this crate can build against exports; no new dependency is added.

#![allow(unsafe_code)]

use std::io;
use std::time::Duration;

#[cfg(unix)]
pub(crate) use imp::{new_poller, WakePipe, WakeSender};

/// Readiness interest for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    /// Wake when the fd becomes readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd becomes writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Interest = Interest { read: true, write: false };
}

/// One readiness event out of [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (includes EOF: a read will not block).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// Error/hangup condition (delivered regardless of interest).
    pub hangup: bool,
}

/// A minimal readiness selector: register fds under integer tokens, block
/// until one is ready.
///
/// Implementations are level-triggered: an event keeps firing while the
/// condition holds, so a handler that drains only part of a socket's data is
/// woken again. The reactor relies on this for its pause/resume backpressure
/// (deregistering read interest is the only thing that silences a readable
/// fd).
#[cfg(unix)]
pub(crate) trait Poller: Send {
    /// Starts watching `fd` under `token` with the given interest.
    fn register(
        &mut self,
        fd: std::os::unix::io::RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()>;
    /// Replaces the interest of an already-registered fd.
    fn reregister(
        &mut self,
        fd: std::os::unix::io::RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()>;
    /// Stops watching `fd`.
    fn deregister(&mut self, fd: std::os::unix::io::RawFd) -> io::Result<()>;
    /// Blocks until at least one fd is ready (or `timeout` expires), filling
    /// `events`. Returns the number of events. `None` blocks indefinitely.
    fn poll(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>)
        -> io::Result<usize>;
    /// Implementation name, surfaced in `stats` for observability.
    fn name(&self) -> &'static str;
}

/// Builds the platform poller.
///
/// # Errors
///
/// Always `Unsupported`: non-Unix targets have no readiness poller.
#[cfg(not(unix))]
pub(crate) fn new_poller() -> io::Result<std::convert::Infallible> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "no readiness poller on this platform"))
}

#[cfg(unix)]
mod imp {
    use super::{Interest, PollEvent, Poller};
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::RawFd;
    use std::sync::Arc;
    use std::time::Duration;

    extern "C" {
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const F_SETFD: c_int = 2;
    const FD_CLOEXEC: c_int = 1;
    // O_NONBLOCK is 0o4000 on Linux/x86 but differs on other Unixes
    // (e.g. 0x0004 on the BSDs); resolve it per target.
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x0004;

    /// Converts a `-1` syscall return into the thread's errno as an
    /// [`io::Error`].
    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret == -1 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned raw fd, closed on drop.
    #[derive(Debug)]
    struct OwnedFd(RawFd);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this struct and closed exactly once.
            unsafe {
                close(self.0);
            }
        }
    }

    /// The receiving half of the self-pipe: registered in the poller and
    /// drained on wakeup.
    #[derive(Debug)]
    pub(crate) struct WakePipe {
        rx: OwnedFd,
        tx: Arc<OwnedFd>,
    }

    /// The sending half of the self-pipe: cheap to clone, safe to use from
    /// any thread. Writing to a full pipe is fine — the reader is already
    /// guaranteed a wakeup.
    #[derive(Debug, Clone)]
    pub(crate) struct WakeSender(Arc<OwnedFd>);

    impl WakePipe {
        /// Creates a nonblocking close-on-exec pipe.
        ///
        /// # Errors
        ///
        /// Propagates `pipe(2)`/`fcntl(2)` failures (fd exhaustion).
        pub(crate) fn new() -> io::Result<WakePipe> {
            let mut fds: [c_int; 2] = [-1, -1];
            // SAFETY: fds points at two writable c_ints.
            cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
            let rx = OwnedFd(fds[0]);
            let tx = OwnedFd(fds[1]);
            for fd in [rx.0, tx.0] {
                // SAFETY: plain fcntl on fds this function owns.
                unsafe {
                    let flags = cvt(fcntl(fd, F_GETFL, 0))?;
                    cvt(fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
                    cvt(fcntl(fd, F_SETFD, FD_CLOEXEC))?;
                }
            }
            Ok(WakePipe { rx, tx: Arc::new(tx) })
        }

        /// The fd to register for read interest.
        pub(crate) fn fd(&self) -> RawFd {
            self.rx.0
        }

        /// A clonable waker for other threads.
        pub(crate) fn sender(&self) -> WakeSender {
            WakeSender(Arc::clone(&self.tx))
        }

        /// Consumes every pending wake byte (level-triggered pollers would
        /// otherwise spin on the readable pipe).
        pub(crate) fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: buf is a valid writable buffer of the given length.
                let n = unsafe { read(self.rx.0, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
                if n <= 0 {
                    break; // empty (EAGAIN) or closed — either way, drained
                }
            }
        }
    }

    impl WakeSender {
        /// Interrupts a blocked poll. Best-effort: a full pipe already
        /// guarantees a pending wakeup, so errors are ignored.
        pub(crate) fn wake(&self) {
            let byte = 1u8;
            // SAFETY: writes one byte from a valid buffer to an owned fd.
            unsafe {
                let _ = write(self.0 .0, std::ptr::addr_of!(byte).cast::<c_void>(), 1);
            }
        }
    }

    // ---------------------------------------------------------------- epoll

    #[cfg(target_os = "linux")]
    mod epoll {
        use super::{cvt, Interest, OwnedFd, PollEvent, Poller};
        use std::io;
        use std::os::raw::c_int;
        use std::os::unix::io::RawFd;
        use std::time::Duration;

        // x86-64 packs epoll_event to match the 32-bit layout; every other
        // Linux target uses natural alignment.
        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        const EPOLL_CLOEXEC: c_int = 0o2000000;
        const EPOLL_CTL_ADD: c_int = 1;
        const EPOLL_CTL_DEL: c_int = 2;
        const EPOLL_CTL_MOD: c_int = 3;
        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;

        fn mask(interest: Interest) -> u32 {
            let mut mask = EPOLLRDHUP;
            if interest.read {
                mask |= EPOLLIN;
            }
            if interest.write {
                mask |= EPOLLOUT;
            }
            mask
        }

        /// Level-triggered epoll selector (Linux).
        pub(crate) struct EpollPoller {
            epfd: OwnedFd,
            buf: Vec<EpollEvent>,
        }

        impl EpollPoller {
            pub(crate) fn new() -> io::Result<EpollPoller> {
                // SAFETY: plain syscall, no pointers.
                let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
                Ok(EpollPoller {
                    epfd: OwnedFd(epfd),
                    buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
                })
            }

            fn ctl(
                &self,
                op: c_int,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                let mut event = EpollEvent { events: mask(interest), data: token as u64 };
                // SAFETY: event is a valid EpollEvent for the duration of
                // the call; epfd and fd are live fds.
                cvt(unsafe { epoll_ctl(self.epfd.0, op, fd, &mut event) })?;
                Ok(())
            }
        }

        impl Poller for EpollPoller {
            fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, interest)
            }

            fn reregister(
                &mut self,
                fd: RawFd,
                token: usize,
                interest: Interest,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, interest)
            }

            fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
            }

            fn poll(
                &mut self,
                events: &mut Vec<PollEvent>,
                timeout: Option<Duration>,
            ) -> io::Result<usize> {
                events.clear();
                let timeout_ms: c_int = match timeout {
                    None => -1,
                    Some(t) => c_int::try_from(t.as_millis().min(i32::MAX as u128)).unwrap_or(0),
                };
                let n = loop {
                    // SAFETY: buf is a live array of maxevents EpollEvents.
                    let ret = unsafe {
                        epoll_wait(
                            self.epfd.0,
                            self.buf.as_mut_ptr(),
                            self.buf.len() as c_int,
                            timeout_ms,
                        )
                    };
                    match cvt(ret) {
                        Ok(n) => break n as usize,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                };
                for raw in &self.buf[..n] {
                    let bits = raw.events;
                    events.push(PollEvent {
                        token: raw.data as usize,
                        readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                        writable: bits & EPOLLOUT != 0,
                        hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                Ok(n)
            }

            fn name(&self) -> &'static str {
                "epoll"
            }
        }
    }

    // ---------------------------------------------------------- poll(2)

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// Portable `poll(2)` selector: O(registered fds) per wakeup, used where
    /// epoll is unavailable and as the always-compiled fallback.
    #[derive(Debug, Default)]
    pub(crate) struct PollPoller {
        /// Registered fds in insertion order: (fd, token, interest).
        entries: Vec<(RawFd, usize, Interest)>,
    }

    impl PollPoller {
        pub(crate) fn new() -> PollPoller {
            PollPoller::default()
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.entries.iter().position(|(f, _, _)| *f == fd)
        }
    }

    impl Poller for PollPoller {
        fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("fd {fd} is already registered"),
                ));
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }

        fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let i = self.position(fd).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} is not registered"))
            })?;
            self.entries[i] = (fd, token, interest);
            Ok(())
        }

        fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.position(fd).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} is not registered"))
            })?;
            self.entries.remove(i);
            Ok(())
        }

        fn poll(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|(fd, _, interest)| {
                    let mut mask: i16 = 0;
                    if interest.read {
                        mask |= POLLIN;
                    }
                    if interest.write {
                        mask |= POLLOUT;
                    }
                    PollFd { fd: *fd, events: mask, revents: 0 }
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(t) => c_int::try_from(t.as_millis().min(i32::MAX as u128)).unwrap_or(0),
            };
            loop {
                // SAFETY: fds is a live array of nfds PollFds.
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
                match cvt(ret) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            for (slot, raw) in fds.iter().enumerate() {
                if raw.revents == 0 {
                    continue;
                }
                let token = self.entries[slot].1;
                events.push(PollEvent {
                    token,
                    readable: raw.revents & POLLIN != 0,
                    writable: raw.revents & POLLOUT != 0,
                    hangup: raw.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(events.len())
        }

        fn name(&self) -> &'static str {
            "poll"
        }
    }

    /// Builds the platform poller: epoll on Linux, `poll(2)` elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure when the epoll fd cannot be
    /// created *and* no fallback applies (the Linux path silently falls back
    /// to `poll(2)` instead).
    pub(crate) fn new_poller() -> io::Result<Box<dyn Poller>> {
        #[cfg(target_os = "linux")]
        {
            match epoll::EpollPoller::new() {
                Ok(poller) => Ok(Box::new(poller)),
                Err(_) => Ok(Box::new(PollPoller::new())),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Box::new(PollPoller::new()))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        fn pollers() -> Vec<Box<dyn Poller>> {
            let mut pollers: Vec<Box<dyn Poller>> = vec![Box::new(PollPoller::new())];
            #[cfg(target_os = "linux")]
            pollers.push(Box::new(super::epoll::EpollPoller::new().expect("epoll fd")));
            pollers
        }

        #[test]
        fn readable_sockets_fire_and_silence_follows_deregistration() {
            for mut poller in pollers() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                server.set_nonblocking(true).unwrap();
                poller.register(server.as_raw_fd(), 7, Interest::READ).unwrap();

                // nothing pending: a zero timeout returns no events
                let mut events = Vec::new();
                poller.poll(&mut events, Some(Duration::from_millis(0))).unwrap();
                assert!(events.is_empty(), "{}: {events:?}", poller.name());

                client.write_all(b"x").unwrap();
                client.flush().unwrap();
                poller.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert_eq!(events.len(), 1, "{}", poller.name());
                assert_eq!(events[0].token, 7);
                assert!(events[0].readable);

                // level-triggered: unread data keeps firing
                poller.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 7 && e.readable), "{}", poller.name());

                poller.deregister(server.as_raw_fd()).unwrap();
                poller.poll(&mut events, Some(Duration::from_millis(0))).unwrap();
                assert!(events.is_empty(), "{}: deregistered fd still fires", poller.name());
            }
        }

        #[test]
        fn write_interest_and_reregistration() {
            for mut poller in pollers() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                server.set_nonblocking(true).unwrap();

                // an idle socket with an empty send buffer is writable
                poller
                    .register(server.as_raw_fd(), 3, Interest { read: false, write: true })
                    .unwrap();
                let mut events = Vec::new();
                poller.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 3 && e.writable), "{}", poller.name());

                // dropping write interest silences it
                poller.reregister(server.as_raw_fd(), 3, Interest::READ).unwrap();
                poller.poll(&mut events, Some(Duration::from_millis(0))).unwrap();
                assert!(events.is_empty(), "{}: {events:?}", poller.name());
            }
        }

        #[test]
        fn peer_eof_reads_as_readable() {
            for mut poller in pollers() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (mut server, _) = listener.accept().unwrap();
                server.set_nonblocking(true).unwrap();
                poller.register(server.as_raw_fd(), 9, Interest::READ).unwrap();
                drop(client);

                let mut events = Vec::new();
                poller.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
                let ev = events.iter().find(|e| e.token == 9).expect("event for the closed peer");
                assert!(ev.readable || ev.hangup, "{}: {ev:?}", poller.name());
                let mut buf = [0u8; 8];
                assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF");
            }
        }

        #[test]
        fn wake_pipe_interrupts_a_blocked_poll_and_drains() {
            for mut poller in pollers() {
                let pipe = WakePipe::new().expect("pipe");
                poller.register(pipe.fd(), 1, Interest::READ).unwrap();
                let sender = pipe.sender();
                let waker = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    sender.wake();
                });
                let mut events = Vec::new();
                // no timeout: only the wake can unblock this
                poller.poll(&mut events, Some(Duration::from_secs(30))).unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.readable), "{}", poller.name());
                waker.join().unwrap();

                pipe.drain();
                poller.poll(&mut events, Some(Duration::from_millis(0))).unwrap();
                assert!(events.is_empty(), "{}: drained pipe still readable", poller.name());

                // many wakes coalesce into (at least) one readable event
                let sender = pipe.sender();
                for _ in 0..100 {
                    sender.wake();
                }
                poller.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.readable), "{}", poller.name());
                pipe.drain();
            }
        }
    }
}
