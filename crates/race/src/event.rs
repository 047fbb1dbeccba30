//! The synchronization-event vocabulary the hooks record and the checker
//! replays.
//!
//! Events are deliberately coarse: the checker does not model memory, only
//! *named* things — locks, channels, and shared resources are identified by
//! the strings the instrumentation sites choose
//! (`store/index-shard:7`, `metrics/registry`). That keeps the hooks trivial
//! and the reports readable: a finding names the protocol object that was
//! misused, not an address.

use std::fmt;

/// What a recorded [`Event`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The recording thread minted rendezvous token `token` and is about to
    /// spawn (or hand work to) another thread.
    Fork {
        /// The rendezvous token, unique per fork.
        token: u64,
    },
    /// First event of a spawned thread: adopts the ordering published by
    /// the matching [`EventKind::Fork`].
    Begin {
        /// The token received from the forker.
        token: u64,
    },
    /// Last event of a spawned thread: publishes its ordering for the
    /// matching [`EventKind::Join`].
    End {
        /// The token received from the forker.
        token: u64,
    },
    /// The recording thread finished waiting for the thread behind
    /// `token`.
    Join {
        /// The token being joined.
        token: u64,
    },
    /// Exclusive lock acquired; the lock is named by [`Event::what`].
    Acquire,
    /// Exclusive lock released.
    Release,
    /// Shared (read) lock acquired.
    AcquireRead,
    /// Shared (read) lock released.
    ReleaseRead,
    /// Message sent on the channel named by [`Event::what`].
    Send,
    /// Message received on the channel named by [`Event::what`]; pairs
    /// FIFO with sends on the same name.
    Recv,
    /// The shared resource named by [`Event::what`] was read.
    Read,
    /// The shared resource named by [`Event::what`] was written.
    Write,
}

impl EventKind {
    /// The rendezvous token, for the four token-carrying kinds.
    pub fn token(&self) -> Option<u64> {
        match *self {
            EventKind::Fork { token }
            | EventKind::Begin { token }
            | EventKind::End { token }
            | EventKind::Join { token } => Some(token),
            _ => None,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EventKind::Fork { .. } => "fork",
            EventKind::Begin { .. } => "begin",
            EventKind::End { .. } => "end",
            EventKind::Join { .. } => "join",
            EventKind::Acquire => "acquire",
            EventKind::Release => "release",
            EventKind::AcquireRead => "acquire-read",
            EventKind::ReleaseRead => "release-read",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Read => "read",
            EventKind::Write => "write",
        };
        f.write_str(name)
    }
}

/// One recorded synchronization event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The recording thread (process-unique small id; any small id for a
    /// hand-built stream).
    pub thread: u32,
    /// What happened.
    pub kind: EventKind,
    /// The lock / channel / resource name; empty for the token kinds.
    pub what: String,
}

impl Event {
    /// Convenience constructor for hand-built event streams.
    pub fn new(thread: u32, kind: EventKind, what: &str) -> Event {
        Event {
            thread,
            kind,
            what: what.to_string(),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(token) = self.kind.token() {
            write!(f, "t{} {}({token})", self.thread, self.kind)
        } else {
            write!(f, "t{} {}({})", self.thread, self.kind, self.what)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_token_or_resource() {
        let e = Event::new(3, EventKind::Fork { token: 7 }, "");
        assert_eq!(e.to_string(), "t3 fork(7)");
        let e = Event::new(1, EventKind::Acquire, "sched/failures");
        assert_eq!(e.to_string(), "t1 acquire(sched/failures)");
    }

    #[test]
    fn token_accessor_covers_exactly_the_token_kinds() {
        assert_eq!(EventKind::Begin { token: 4 }.token(), Some(4));
        assert_eq!(EventKind::Write.token(), None);
    }
}
