//! The syscall surface simulated processes run against, and the `App`
//! trait the workload applications implement.
//!
//! Every operation here corresponds to an interposition point of Discount
//! Checking (§3): "Discount Checking intercepts a process's signals and
//! non-deterministic system calls such as `gettimeofday`, `bind`, `select`,
//! `read`, `recvmsg`, `recv`, and `recvfrom`. To learn of a process'
//! visible and send events, Discount Checking intercepts calls to `write`,
//! `send`, `sendto`, and `sendmsg`." The checkpointing runtime in `ft-dc`
//! wraps a raw [`Syscalls`] with exactly those interpositions.

use std::ops::Deref;
use std::sync::Arc;

use ft_core::event::ProcessId;
use ft_core::fault::FaultPlan;
use ft_core::protocol::DepSet;
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::Mem;

use crate::cost::SimTime;

/// Errors returned by the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysError {
    /// Bad file descriptor.
    BadFd,
    /// No free slot in the open-file table (a *fixed* non-deterministic
    /// outcome of `open` — §2.5).
    TableFull,
    /// The disk is full (a *fixed* non-deterministic outcome of `write`).
    NoSpace,
    /// The kernel has panicked beneath this process.
    KernelPanic,
}

impl std::fmt::Display for SysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SysError::BadFd => "bad file descriptor",
            SysError::TableFull => "open file table full",
            SysError::NoSpace => "no space left on device",
            SysError::KernelPanic => "kernel panic",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SysError {}

/// Result alias for syscalls.
pub type SysResult<T> = Result<T, SysError>;

/// Bytes a [`Payload`] holds in place: every kvstore message (at most 38
/// bytes), every scripted keystroke and DSM lock request, so only larger
/// messages — DSM diffs, game world frames — reach the heap.
pub const PAYLOAD_INLINE: usize = 38;

/// An immutable message or input payload: its bytes in place up to
/// [`PAYLOAD_INLINE`], in one shared buffer beyond.
///
/// A small payload is copied wherever it goes — the network's buffered
/// copy (sender-side retention for recovery), every delivery, every
/// committed `PendingNd` snapshot — and never allocates: building it from
/// the sender's stack bytes is the only copy a send pays. A larger one is
/// copied once into a shared slice `Arc` (header and bytes in one block)
/// at construction, and every later holder shares it, so cloning is a
/// refcount bump and broadcasts and snapshots are free. `Arc` (not `Rc`)
/// because applications are `Send` and trials run on campaign worker
/// threads. The form follows from the length alone and is invisible:
/// reads go through `Deref<Target = [u8]>`, and payloads compare and
/// print as the bytes they hold.
#[derive(Clone)]
pub struct Payload(Bytes);

/// Where a [`Payload`]'s bytes live.
#[derive(Clone)]
enum Bytes {
    /// The first `len` bytes of `bytes`.
    Inline {
        len: u8,
        bytes: [u8; PAYLOAD_INLINE],
    },
    /// More than [`PAYLOAD_INLINE`] bytes, shared by every holder.
    Shared(Arc<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Payload>() <= PAYLOAD_INLINE + 2);

impl Payload {
    /// Copies `bytes` into a payload: in place when they fit, else into
    /// a fresh shared buffer (the one copy).
    pub fn new(bytes: &[u8]) -> Self {
        match u8::try_from(bytes.len()) {
            Ok(len) if bytes.len() <= PAYLOAD_INLINE => {
                let mut inline = [0; PAYLOAD_INLINE];
                inline[..bytes.len()].copy_from_slice(bytes);
                Payload(Bytes::Inline { len, bytes: inline })
            }
            _ => Payload(Bytes::Shared(Arc::from(bytes))),
        }
    }

    /// Mutable access for the rare in-kernel corruption fault path. A
    /// payload held in place is this holder's own copy already; a shared
    /// buffer is unshared first, so other holders keep the pristine bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Bytes::Inline { len, bytes } => &mut bytes[..usize::from(*len)],
            Bytes::Shared(shared) => {
                if Arc::get_mut(shared).is_none() {
                    *shared = Arc::from(&**shared);
                }
                Arc::get_mut(shared).expect("buffer was just unshared")
            }
        }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Bytes::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Bytes::Shared(shared) => shared,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::new(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Payload::new(&bytes)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::new(&bytes)
    }
}

// Formats as the bytes it holds, whatever the form.
impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending process.
    pub from: ProcessId,
    /// Per-channel sequence number assigned by the sender.
    pub seq: u64,
    /// Payload bytes (this view's own copy, or a shared view of the
    /// sender's buffer for a large payload).
    pub payload: Payload,
    /// Dependency snapshot piggybacked by the sender's recovery runtime
    /// (empty when no runtime is interposed).
    pub deps: DepSet,
    /// True if the sender had uncommitted non-determinism at send time (the
    /// message may not be regenerated after a sender failure).
    pub tainted: bool,
}

/// What a blocked process is waiting for. Any satisfied condition wakes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitCond {
    /// Wake when a message is deliverable.
    pub message: bool,
    /// Wake when the next scripted user input is due.
    pub input: bool,
    /// Wake at this absolute simulated time.
    pub until: Option<SimTime>,
}

impl WaitCond {
    /// Wait for a message.
    pub fn message() -> Self {
        WaitCond {
            message: true,
            ..Default::default()
        }
    }

    /// Wait for user input.
    pub fn input() -> Self {
        WaitCond {
            input: true,
            ..Default::default()
        }
    }

    /// Sleep until an absolute time.
    pub fn until(t: SimTime) -> Self {
        WaitCond {
            until: Some(t),
            ..Default::default()
        }
    }

    /// Wait for a message or a timeout.
    pub fn message_or_until(t: SimTime) -> Self {
        WaitCond {
            message: true,
            until: Some(t),
            ..Default::default()
        }
    }
}

/// The status an application step reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    /// Ready to run again immediately (after the charged time elapses).
    Running,
    /// Blocked until the condition is satisfied.
    Blocked(WaitCond),
    /// The computation is complete.
    Done,
}

/// The system interface a process sees. Implemented by the raw simulator
/// context and, with recovery interposition, by `ft-dc`'s wrapper.
pub trait Syscalls {
    /// This process's id.
    fn pid(&self) -> ProcessId;

    /// Current simulated time including time charged so far in this step.
    /// (Scheduler-internal; reading it is free and records no event — use
    /// [`Syscalls::gettimeofday`] for the observable clock.)
    fn now(&self) -> SimTime;

    /// Burns CPU time.
    fn compute(&mut self, ns: SimTime);

    /// Reads the time-of-day clock: a *transient* non-deterministic event.
    fn gettimeofday(&mut self) -> SimTime;

    /// Draws entropy: a *transient* non-deterministic event.
    fn random(&mut self) -> u64;

    /// Takes the next due scripted user input, if any: a *fixed*
    /// non-deterministic event when it returns `Some`. Returns `None` when
    /// no input is due yet (block with [`WaitCond::input`]) — no event is
    /// recorded in that case.
    fn read_input(&mut self) -> Option<Payload>;

    /// True when the input script is exhausted (the session is over).
    fn input_exhausted(&self) -> bool;

    /// Sends a message: a send event. The bytes are copied into the
    /// message's [`Payload`], so a sender can build them on its stack.
    fn send(&mut self, to: ProcessId, payload: &[u8]) -> SysResult<()>;

    /// Receives the next deliverable message, if any: a *transient*
    /// non-deterministic (receive) event when it returns `Some`.
    fn try_recv(&mut self) -> Option<Message>;

    /// Emits user-visible output: a visible event. `token` identifies the
    /// content for output-equivalence checking.
    fn visible(&mut self, token: u64);

    /// Takes a pending signal, if one is due: a *transient*
    /// non-deterministic event when it returns `Some`.
    fn take_signal(&mut self) -> Option<u32>;

    /// Opens (creating if absent) a file: a *fixed* non-deterministic event
    /// (its outcome depends on open-file-table occupancy).
    fn open(&mut self, name: &str) -> SysResult<u32>;

    /// Appends to an open file: a *fixed* non-deterministic event (its
    /// outcome depends on disk fullness).
    fn write_file(&mut self, fd: u32, bytes: &[u8]) -> SysResult<()>;

    /// Reads from an open file at the current position.
    fn read_file(&mut self, fd: u32, len: usize) -> SysResult<Vec<u8>>;

    /// Closes a descriptor.
    fn close(&mut self, fd: u32) -> SysResult<()>;

    /// Journals that an injected fault's buggy code executed (§4
    /// instrumentation: "instrumenting Discount Checking to log each fault
    /// activation and commit event"). A no-op event for the protocols.
    fn note_fault_activation(&mut self, fault: u32);

    /// Reports a DSM-layer shared-memory operation (page read/write, lock
    /// acquire/release, barrier completion) to the access stream consumed
    /// by `ft-analyze`. Pure instrumentation: records no event, charges no
    /// time, and never perturbs the run. The default discards the record —
    /// only the simulator-backed implementations persist it.
    fn shm_op(&mut self, op: ft_core::access::ShmOp) {
        let _ = op;
    }
}

/// System interface plus access to the process's recoverable memory.
///
/// Applications reach their [`Mem`] *through* the syscall layer so the
/// checkpointing runtime can checkpoint and roll it back without aliasing
/// the application's borrow. Hold the `&mut Mem` only between syscalls.
pub trait SysMem: Syscalls {
    /// The process's recoverable memory image.
    fn mem(&mut self) -> &mut Mem;
}

/// A workload application: a state machine whose **entire recoverable
/// state lives in its [`Mem`]** — the application struct itself holds only
/// immutable configuration. That is the §2.2 process model made literal,
/// and it is what makes commits at arbitrary interposition points sound.
///
/// # The one-event-per-step discipline
///
/// Each `step` must execute **at most one syscall that generates an event
/// or mutates kernel state** (`read_input`, `try_recv`, `gettimeofday`,
/// `random`, `take_signal`, `open`, `write_file`, `read_file` — which
/// advances the file position — `close`, `send`, or `visible`). Pure
/// operations (`compute`, `now`, memory access) are unrestricted. The
/// recovery runtime commits *at* interposition points; with one event per
/// step and the state-machine phase stored in the arena, re-executing the
/// enclosing step after a rollback is equivalent to resuming the saved
/// program counter: duplicated sends are deduplicated by the network,
/// duplicated visibles are permitted by consistent recovery, and a
/// commit-after-nd checkpoint carries the nd result as a pending value.
///
/// `Send` is a supertrait so a fully built trial — simulator plus
/// applications — is self-contained and can be constructed and run on any
/// worker thread of the parallel campaign runner (`ft-bench`). Every
/// application is plain owned data; the bound just makes that a
/// compile-time guarantee.
pub trait App: Send {
    /// Executes one step. Memory faults are crash events.
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus>;

    /// The arena layout this application needs.
    fn layout(&self) -> Layout {
        Layout::small()
    }

    /// Called by the recovery harness after this process is rolled back.
    /// Fault-study applications suppress further fault activations here —
    /// "we suppress the fault activation during recovery" (§4.1).
    fn on_recovered(&mut self) {}

    /// Arms the application fault `plan` (a fault schedule's activation),
    /// seeding its injector from the scenario `seed`. False for an
    /// application with no fault sites, the default.
    fn arm_fault(&mut self, _plan: FaultPlan, _seed: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_cond_constructors() {
        assert!(WaitCond::message().message);
        assert!(!WaitCond::message().input);
        assert!(WaitCond::input().input);
        assert_eq!(WaitCond::until(5).until, Some(5));
        let mu = WaitCond::message_or_until(9);
        assert!(mu.message);
        assert_eq!(mu.until, Some(9));
    }

    #[test]
    fn payloads_read_the_same_in_place_and_shared() {
        for len in [0, PAYLOAD_INLINE - 1, PAYLOAD_INLINE, PAYLOAD_INLINE + 1] {
            let bytes: Vec<u8> = (0..=u8::MAX).cycle().step_by(7).take(len).collect();
            let arc: Arc<[u8]> = Arc::from(&bytes[..]);
            let payload = Payload::new(&bytes);
            assert!(matches!(payload.0, Bytes::Inline { .. }) == (len <= PAYLOAD_INLINE));
            for p in [&payload, &payload.clone(), &Payload::from(bytes.clone())] {
                assert_eq!(**p, *arc, "len={len}");
                assert_eq!(*p, payload, "len={len}");
                assert_eq!(*p, bytes, "len={len}");
                assert_eq!(format!("{p:?}"), format!("{arc:?}"), "len={len}");
            }
            let mut other = bytes.clone();
            other.push(1);
            assert_ne!(payload, Payload::new(&other), "len={len}");
        }
    }

    #[test]
    fn make_mut_changes_only_its_own_copy() {
        for len in [PAYLOAD_INLINE, PAYLOAD_INLINE + 1] {
            let original = Payload::new(&vec![5u8; len]);
            let mut delivered = original.clone();
            delivered.make_mut()[0] ^= 1;
            assert_eq!(original, vec![5u8; len], "len={len}");
            assert_eq!(delivered[0], 4, "len={len}");
            assert_eq!(delivered[1..], original[1..], "len={len}");
        }
    }

    #[test]
    fn sys_error_display() {
        assert_eq!(SysError::NoSpace.to_string(), "no space left on device");
        assert_eq!(SysError::TableFull.to_string(), "open file table full");
    }
}
