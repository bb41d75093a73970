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
        commit_id: u64,
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

/// A single executed event, as recorded in a [`crate::trace::Trace`].
///
/// An event carries no vector clock: clocks are a function of the
/// per-process sequences and the message edges, and the checkers derive
/// them with [`crate::clock::replay`] at the events they test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The event's identity (`e_p^i`).
    pub id: EventId,
    /// What the event did.
    pub kind: EventKind,
    /// True if the event's non-determinism has been rendered deterministic
    /// by logging (§2.4): its result is on stable storage and constrained
    /// re-execution will reproduce it. Logged events do not count as
    /// non-deterministic for the Save-work invariant.
    pub logged: bool,
    /// For commit events executed as part of a coordinated (two-phase)
    /// commit: the round's group id. Commits in the same group are *atomic
    /// with* one another in the Save-work theorem's sense.
    pub atomic_group: Option<u64>,
}

impl Event {
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
            id: EventId::new(ProcessId(0), 0),
            kind: EventKind::NonDeterministic {
                source: NdSource::TimeOfDay,
                class: NdClass::Transient,
            },
            logged: false,
            atomic_group: None,
        };
        assert!(e.is_effectively_nd());
        e.logged = true;
        assert!(!e.is_effectively_nd());
        assert_eq!(e.nd_class(), None);
    }

    #[test]
    fn unlogged_recv_is_transient_nd() {
        let e = Event {
            id: EventId::new(ProcessId(1), 3),
            kind: EventKind::Recv {
                from: ProcessId(0),
                msg: MsgId(7),
            },
            logged: false,
            atomic_group: None,
        };
        assert!(e.is_effectively_nd());
        assert_eq!(e.nd_class(), Some(NdClass::Transient));
    }

    #[test]
    fn an_event_is_at_most_one_cache_line() {
        // Recording is O(1) words per event whatever the process count.
        assert!(std::mem::size_of::<Event>() <= 64);
    }

    #[test]
    fn event_id_display_matches_paper_notation() {
        assert_eq!(EventId::new(ProcessId(2), 5).to_string(), "e_2^5");
    }

    #[test]
    fn kind_predicates() {
        assert!(EventKind::Visible { token: 1 }.is_visible());
        assert!(EventKind::Commit { commit_id: 0 }.is_commit());
        assert!(EventKind::Crash.is_crash());
        assert!(!EventKind::Internal.is_visible());
    }
}
