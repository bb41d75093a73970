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

/// An immutable, reference-counted message payload.
///
/// The sender's bytes are copied into a shared buffer once at `send` —
/// the same single copy the old per-delivery `Vec<u8>` clone paid, moved
/// to the producer side. The network's buffered copy (sender-side
/// retention for recovery), every delivery, and every committed
/// `PendingNd` snapshot then share it: cloning is a refcount bump, never
/// a byte copy, so broadcasts and snapshots are free. A slice `Arc`
/// (header and bytes in one allocation) rather than `Arc<Vec<u8>>`, which
/// would add a second heap block per message. `Arc` (not `Rc`) because
/// applications are `Send` and trials run on campaign worker threads.
/// Reads go through `Deref<Target = [u8]>`, so payload slicing and
/// indexing look exactly like they did when this was a `Vec<u8>`.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Packs the sender's bytes into the shared buffer (the one copy).
    pub fn new(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }

    /// Extracts the bytes into an owned buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Mutable access for the rare in-kernel corruption fault path:
    /// unshares the buffer first so other holders keep the pristine bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::from(&*self.0);
        }
        Arc::get_mut(&mut self.0).expect("buffer was just unshared")
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::new(bytes)
    }
}

// Formats as the bytes it holds, without the `Arc` wrapper.
impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

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
    /// Payload bytes (a shared view of the sender's buffer).
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

    /// Wait for input or a message.
    pub fn input_or_message() -> Self {
        WaitCond {
            message: true,
            input: true,
            until: None,
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
    fn read_input(&mut self) -> Option<Vec<u8>>;

    /// True when the input script is exhausted (the session is over).
    fn input_exhausted(&self) -> bool;

    /// Sends a message: a send event.
    fn send(&mut self, to: ProcessId, payload: Vec<u8>) -> SysResult<()>;

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
        let im = WaitCond::input_or_message();
        assert!(im.input && im.message);
    }

    #[test]
    fn sys_error_display() {
        assert_eq!(SysError::NoSpace.to_string(), "no space left on device");
        assert_eq!(SysError::TableFull.to_string(), "open file table full");
    }
}
