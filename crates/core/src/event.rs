//! The computation model of §2.2: processes, events, and event kinds.
//!
//! A *computation* is one or more processes working together on a task. Each
//! process is modeled as a state machine that computes by executing *events*
//! (state transitions). Events carry a [`EventKind`] describing their role in
//! recovery theory: deterministic internal transitions, non-deterministic
//! events (further split into *transient* and *fixed*, §2.5), message sends
//! and receives, user-visible outputs, commits, crashes, and the
//! fault-activation markers used by the Table 1 methodology.

/// Identifier of a process within a computation.
///
/// Process ids are small dense integers so they can index vector clocks and
/// per-process trace vectors directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense `usize` index (the inverse of
    /// [`ProcessId::index`]), centralizing the narrowing so call sites
    /// don't each carry an unchecked `as u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        ProcessId(u32::try_from(i).expect("process indices are small and dense"))
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of an event: the `seq`'th event executed by process `pid`.
///
/// This mirrors the paper's notation `e_p^i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The executing process.
    pub pid: ProcessId,
    /// Zero-based position in that process's event sequence.
    pub seq: u64,
}

impl EventId {
    /// Creates an event id.
    pub fn new(pid: ProcessId, seq: u64) -> Self {
        Self { pid, seq }
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e_{}^{}", self.pid.0, self.seq)
    }
}

/// Identifier of a message, unique within a computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// The source of a non-deterministic event.
///
/// The source determines the *default* classification of the event as
/// transient or fixed (§2.5), which governs the dangerous-path analysis:
/// transient non-determinism may resolve differently after a failure and so
/// bounds dangerous paths; fixed non-determinism cannot be relied upon to
/// change and so extends them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NdSource {
    /// User input *values* — the user cannot be depended on to type
    /// something different after a failure, so values are fixed. (The
    /// *timing* of user input is transient and modeled as [`NdSource::TimeOfDay`]
    /// or scheduling non-determinism where relevant.)
    UserInput,
    /// `gettimeofday` and friends: transient.
    TimeOfDay,
    /// Asynchronous signal delivery: transient.
    Signal,
    /// Message receipt (ordering and timing): transient by default; the
    /// multi-process dangerous-path algorithm (§2.5) may reclassify a
    /// specific receive as fixed when the sender will deterministically
    /// regenerate the same message.
    MessageRecv,
    /// `select`-style readiness probing: transient.
    Select,
    /// Scheduler decisions (e.g. thread interleaving): transient.
    SchedDecision,
    /// Resource probes whose results depend on slowly-changing global state,
    /// such as disk fullness (`write`) or free slots in the kernel open-file
    /// table (`open`): fixed.
    ResourceProbe,
    /// A pseudo-random value drawn from an OS entropy source: transient.
    Random,
}

impl NdSource {
    /// The default transient/fixed classification for this source (§2.5).
    pub fn default_class(self) -> NdClass {
        match self {
            NdSource::UserInput | NdSource::ResourceProbe => NdClass::Fixed,
            NdSource::TimeOfDay
            | NdSource::Signal
            | NdSource::MessageRecv
            | NdSource::Select
            | NdSource::SchedDecision
            | NdSource::Random => NdClass::Transient,
        }
    }
}

impl std::fmt::Display for NdSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NdSource::UserInput => "user-input",
            NdSource::TimeOfDay => "time-of-day",
            NdSource::Signal => "signal",
            NdSource::MessageRecv => "message-recv",
            NdSource::Select => "select",
            NdSource::SchedDecision => "sched-decision",
            NdSource::ResourceProbe => "resource-probe",
            NdSource::Random => "random",
        };
        f.write_str(s)
    }
}

/// Classification of a non-deterministic event (§2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NdClass {
    /// May have a different result when re-executed after a failure
    /// (scheduling, signals, message ordering, `gettimeofday`, …).
    Transient,
    /// Expected to have the *same* result after a failure (user input
    /// values, disk fullness, open-file-table occupancy, …). The recovery
    /// system cannot depend on these events to steer execution away from a
    /// crash.
    Fixed,
}

/// The kind of an event in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A deterministic internal state transition.
    Internal,
    /// A non-deterministic event with its source and classification.
    NonDeterministic {
        /// Where the non-determinism came from.
        source: NdSource,
        /// Transient or fixed (§2.5).
        class: NdClass,
    },
    /// Sending message `msg` to process `to`.
    Send {
        /// The receiving process.
        to: ProcessId,
        /// The message's computation-unique id.
        msg: MsgId,
    },
    /// Receiving message `msg` from process `from`.
    ///
    /// A receive is itself a non-deterministic event (its timing and
    /// ordering are not determined by the receiver) unless it has been
    /// rendered deterministic by logging; see [`Event::logged`].
    Recv {
        /// The sending process.
        from: ProcessId,
        /// The message's computation-unique id.
        msg: MsgId,
    },
    /// A user-visible output event ("output event" in earlier literature).
    /// The token identifies the output content for equivalence checking.
    Visible {
        /// Token identifying the output content.
        token: u64,
    },
    /// A commit event: the process preserves its current state so it can be
    /// restored after a failure (§2.1).
    Commit {
        /// Computation-unique commit number.
        commit_id: u32,
        /// For a commit executed as part of a coordinated (two-phase)
        /// commit: the round's computation-unique group number. Commits in
        /// the same group are *atomic with* one another in the Save-work
        /// theorem's sense.
        group: Option<u32>,
    },
    /// A crash event: the process transitions to a state from which it
    /// cannot continue (§2.5).
    Crash,
    /// Journal marker recording that an injected fault's buggy code was
    /// executed (Table 1 methodology, §4.1). Not part of the paper's event
    /// taxonomy; it is instrumentation, invisible to the protocols.
    FaultActivation {
        /// Identifier of the injected fault.
        fault: u32,
    },
    /// Journal marker recording that recovery rolled this process back:
    /// its events with `seq` in `[to_seq, this event's seq)` were undone
    /// and no longer causally precede anything that follows. Recorded by
    /// the recovery runtime, invisible to the protocols.
    Rollback {
        /// First undone sequence number (the restore point).
        to_seq: u64,
    },
}

impl EventKind {
    /// Is this a visible event?
    pub fn is_visible(&self) -> bool {
        matches!(self, EventKind::Visible { .. })
    }

    /// Is this a commit event?
    pub fn is_commit(&self) -> bool {
        matches!(self, EventKind::Commit { .. })
    }

    /// Is this a crash event?
    pub fn is_crash(&self) -> bool {
        matches!(self, EventKind::Crash)
    }
}

/// A single executed event, as recorded in a [`crate::trace::Trace`]:
/// 24 bytes, what its kind and logging flag need and nothing more.
///
/// An event carries no identity and no vector clock. Its [`EventId`] is
/// its position — the process whose sequence holds it and its index there
/// — so the trace hands the id out beside the event
/// ([`crate::trace::Trace::recorded`]). Clocks are a function of the
/// per-process sequences and the message edges, and the checkers derive
/// them with [`crate::clock::replay`] at the events they test. The
/// coordinated-commit group lives inside [`EventKind::Commit`], the one
/// kind it means something for, in the space the kind's widest variant
/// already takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What the event did.
    pub kind: EventKind,
    /// True if the event's non-determinism has been rendered deterministic
    /// by logging (§2.4): its result is on stable storage and constrained
    /// re-execution will reproduce it. Logged events do not count as
    /// non-deterministic for the Save-work invariant.
    pub logged: bool,
}

// Recording is three words per event whatever the process count; a field
// that makes the event larger must earn it here.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

impl Event {
    /// The coordinated-commit group of a commit executed in a two-phase
    /// round; `None` for a local commit and for every other kind.
    pub fn group(&self) -> Option<u32> {
        match self.kind {
            EventKind::Commit { group, .. } => group,
            _ => None,
        }
    }

    /// Is this event *effectively non-deterministic*: a non-deterministic
    /// event (including an unlogged receive) whose result may differ on
    /// re-execution and which therefore falls under the Save-work invariant?
    pub fn is_effectively_nd(&self) -> bool {
        if self.logged {
            return false;
        }
        matches!(
            self.kind,
            EventKind::NonDeterministic { .. } | EventKind::Recv { .. }
        )
    }

    /// The transient/fixed classification of this event, if it is
    /// effectively non-deterministic.
    pub fn nd_class(&self) -> Option<NdClass> {
        if self.logged {
            return None;
        }
        match self.kind {
            EventKind::NonDeterministic { class, .. } => Some(class),
            EventKind::Recv { .. } => Some(NdClass::Transient),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nd_source_default_classes_match_the_paper() {
        // §2.5 enumerates the classes explicitly.
        assert_eq!(NdSource::UserInput.default_class(), NdClass::Fixed);
        assert_eq!(NdSource::ResourceProbe.default_class(), NdClass::Fixed);
        assert_eq!(NdSource::TimeOfDay.default_class(), NdClass::Transient);
        assert_eq!(NdSource::Signal.default_class(), NdClass::Transient);
        assert_eq!(NdSource::MessageRecv.default_class(), NdClass::Transient);
        assert_eq!(NdSource::Select.default_class(), NdClass::Transient);
        assert_eq!(NdSource::SchedDecision.default_class(), NdClass::Transient);
        assert_eq!(NdSource::Random.default_class(), NdClass::Transient);
    }

    #[test]
    fn logged_events_are_not_effectively_nd() {
        let mut e = Event {
            kind: EventKind::NonDeterministic {
                source: NdSource::TimeOfDay,
                class: NdClass::Transient,
            },
            logged: false,
        };
        assert!(e.is_effectively_nd());
        e.logged = true;
        assert!(!e.is_effectively_nd());
        assert_eq!(e.nd_class(), None);
    }

    #[test]
    fn unlogged_recv_is_transient_nd() {
        let e = Event {
            kind: EventKind::Recv {
                from: ProcessId(0),
                msg: MsgId(7),
            },
            logged: false,
        };
        assert!(e.is_effectively_nd());
        assert_eq!(e.nd_class(), Some(NdClass::Transient));
    }

    #[test]
    fn only_a_commit_has_a_group() {
        let commit = |group| Event {
            kind: EventKind::Commit {
                commit_id: 4,
                group,
            },
            logged: false,
        };
        assert_eq!(commit(Some(9)).group(), Some(9));
        assert_eq!(commit(None).group(), None);
        let visible = Event {
            kind: EventKind::Visible { token: 9 },
            logged: false,
        };
        assert_eq!(visible.group(), None);
    }

    #[test]
    fn event_id_display_matches_paper_notation() {
        assert_eq!(EventId::new(ProcessId(2), 5).to_string(), "e_2^5");
    }

    #[test]
    fn kind_predicates() {
        assert!(EventKind::Visible { token: 1 }.is_visible());
        assert!(EventKind::Commit {
            commit_id: 0,
            group: None
        }
        .is_commit());
        assert!(EventKind::Crash.is_crash());
        assert!(!EventKind::Internal.is_visible());
    }
}
