//! Injectable I/O degradations for the taint-delivering syscalls.
//!
//! The paper's detector sits on the kernel→user boundary (§4.4): `read` and
//! `recv` are where taint enters the system. A dependability evaluation has
//! to exercise exactly that boundary under degraded conditions — short
//! reads, interrupted calls, connection resets, fragmented socket delivery —
//! because every libc and server in the guest corpus assumes the happy
//! path. An [`IoFaultPlan`] maps *taint-delivering call indices* to
//! [`IoFault`]s; the kernel model consults it on each delivery and applies
//! the scheduled degradation, so a seeded campaign replays byte-identically.

use std::collections::BTreeMap;

/// The errno-style result of an interrupted call (`-EINTR`), as the guest
/// sees it in `$v0`.
pub const EINTR: i32 = -4;

/// One injectable I/O degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Deliver at most `keep` bytes. On a socket message the remainder is
    /// *dropped* (truncated datagram); on stdin/file reads the remainder
    /// stays queued, so only this call's count shrinks.
    ShortRead {
        /// Maximum bytes delivered by the faulted call.
        keep: u32,
    },
    /// The call is interrupted before any data moves: returns [`EINTR`]
    /// and consumes nothing, like a signal landing mid-syscall.
    Eintr,
    /// Connection reset by peer: all remaining input on the session is
    /// dropped and the call returns `-1`. On non-socket descriptors this
    /// degrades to a plain transient I/O error.
    Reset,
    /// Deliver at most `keep` bytes and *requeue* the remainder — lossless
    /// stream fragmentation (a TCP segment boundary landing mid-message).
    Fragment {
        /// Maximum bytes delivered by the faulted call.
        keep: u32,
    },
}

impl IoFault {
    /// The delivery cap, for the two truncating kinds.
    #[must_use]
    pub const fn keep(self) -> Option<u32> {
        match self {
            IoFault::ShortRead { keep } | IoFault::Fragment { keep } => Some(keep),
            IoFault::Eintr | IoFault::Reset => None,
        }
    }
}

/// A deterministic schedule of I/O faults, keyed by the 0-based index of
/// the taint-delivering call (`read`/`recv` deliveries, counted together in
/// service order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    faults: BTreeMap<u64, IoFault>,
}

impl IoFaultPlan {
    /// An empty plan (no degradation — the default for every run).
    #[must_use]
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// Schedules `fault` on the `call`-th taint-delivering call (builder).
    #[must_use]
    pub fn on_call(mut self, call: u64, fault: IoFault) -> IoFaultPlan {
        self.faults.insert(call, fault);
        self
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault scheduled for call index `call`, if any.
    #[must_use]
    pub fn at(&self, call: u64) -> Option<IoFault> {
        self.faults.get(&call).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_schedules_by_call_index() {
        let plan = IoFaultPlan::new()
            .on_call(0, IoFault::Eintr)
            .on_call(2, IoFault::ShortRead { keep: 3 });
        assert!(!plan.is_empty());
        assert_eq!(plan.at(0), Some(IoFault::Eintr));
        assert_eq!(plan.at(1), None);
        assert_eq!(plan.at(2), Some(IoFault::ShortRead { keep: 3 }));
        assert!(IoFaultPlan::new().is_empty());
    }

    #[test]
    fn caps() {
        assert_eq!(IoFault::Fragment { keep: 8 }.keep(), Some(8));
        assert_eq!(IoFault::Reset.keep(), None);
    }
}
