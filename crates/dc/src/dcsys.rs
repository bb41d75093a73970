//! The interposition layer: a [`Syscalls`]/[`SysMem`] implementation that
//! wraps the raw simulator context with Discount Checking's protocol logic.
//!
//! Exactly the §3 interposition set, written as two rules. Every
//! non-deterministic syscall (`gettimeofday`, entropy, input reads,
//! receives, signals, `open`, `write`) goes through [`DcSys::nd`]: served
//! from the armed replay during post-recovery constrained re-execution,
//! otherwise executed with the protocol's logging choice and followed by
//! the commit-after the planner asks for. Every other intercepted syscall
//! (visible, send, `read`, `close`) goes through [`DcSys::around`]: the
//! planner's commit before it (local or coordinated), the call, the
//! planner's commit after it.

use ft_core::event::{NdSource, ProcessId};
use ft_core::protocol::{CommitScope, InterceptedEvent};
use ft_mem::cost::ND_LOG_RECORD_NS;
use ft_mem::mem::Mem;
use ft_sim::cost::SimTime;
use ft_sim::sim::SysCtx;
use ft_sim::syscalls::{Message, Payload, SysMem, SysResult, Syscalls};

use crate::runtime::DcRuntime;
use crate::state::{Mutation, PendingNd, ProcState};

/// The checkpointing syscall wrapper for one step of one process.
pub struct DcSys<'a, 'b> {
    ctx: &'a mut SysCtx<'b>,
    rt: &'a mut DcRuntime,
}

/// The `unwrap` half of an nd syscall's [`PendingNd`] variant (the variant
/// constructor is the `wrap` half): yields the payload of a matching
/// pending result and hands any other back untouched.
macro_rules! pending {
    ($variant:ident) => {
        |p| match p {
            PendingNd::$variant(v) => Ok(v),
            other => Err(other),
        }
    };
}

/// The `on_arrival` of an nd syscall whose result carries no cross-process
/// dependence (everything but a receive).
fn local<T>(_: &mut ProcState, _: &T, _: bool) {}

impl<'a, 'b> DcSys<'a, 'b> {
    /// Wraps a raw context with the runtime.
    pub fn new(ctx: &'a mut SysCtx<'b>, rt: &'a mut DcRuntime) -> Self {
        DcSys { ctx, rt }
    }

    /// The rule for a non-deterministic syscall from `source`; `None` when
    /// nothing arrived (no event happened).
    ///
    /// An armed replay of this syscall's variant is served as a logged
    /// (deterministic) event at log-read cost (reads are memory-speed on
    /// both media — the log tail is cached). Otherwise `raw` runs with the
    /// protocol's logging choice; if a result arrives, `on_arrival` sees
    /// it first, then dirty/dependency tracking and log accounting, then
    /// the commit-after, which captures the result as the pending value.
    ///
    /// Once a mid-commit kill has fired in this step the process is dead:
    /// `raw` (which `SysCtx` already suppresses) is all that runs — no
    /// replay served, no planner consulted, no further commit.
    fn nd<T: Clone>(
        &mut self,
        source: NdSource,
        wrap: fn(T) -> PendingNd,
        unwrap: fn(PendingNd) -> Result<T, PendingNd>,
        raw: impl FnOnce(&mut SysCtx<'b>) -> Option<T>,
        on_arrival: impl FnOnce(&mut ProcState, &T, bool),
    ) -> Option<T> {
        if self.ctx.step_killed() {
            return raw(self.ctx);
        }
        let pid = self.ctx.pid();
        if let Some(v) = self.rt.take_replay(pid, unwrap) {
            self.ctx.sim_mut().tracer_mut().nd_logged(pid, source);
            self.ctx.charge(ND_LOG_RECORD_NS);
            return Some(v);
        }
        let logged = self.rt.protocol().logs(source);
        self.ctx.set_log_next(logged);
        let arrived = raw(self.ctx);
        self.ctx.set_log_next(false);
        let v = arrived?;
        let st = self.rt.state_mut(pid);
        on_arrival(st, &v, logged);
        let d = st.planner.decide(InterceptedEvent::Nd { source });
        debug_assert_eq!(d.log, logged);
        debug_assert_eq!(d.before, CommitScope::None);
        if logged {
            st.stats.logged_events += 1;
            let cost = self.rt.cfg().medium.log_record_cost(64);
            self.ctx.charge(cost);
        } else {
            st.tracker.on_nd();
        }
        if d.after {
            self.rt.local_commit(self.ctx, Some(wrap(v.clone())));
        }
        Some(v)
    }

    /// The rule for every other intercepted syscall: the planner's commit
    /// before `event` (local, coordinated, or — for a send under the
    /// `SkipPresendCommit` mutation — suppressed), then `raw`, then the
    /// planner's commit after it. As in [`DcSys::nd`], only `raw` runs
    /// once the step has been killed.
    fn around<R>(
        &mut self,
        event: InterceptedEvent,
        raw: impl FnOnce(&mut SysCtx<'b>, &mut DcRuntime) -> R,
    ) -> R {
        if self.ctx.step_killed() {
            return raw(self.ctx, self.rt);
        }
        let pid = self.ctx.pid();
        let d = self.rt.state_mut(pid).planner.decide(event);
        debug_assert!(!d.log, "only nd events are logged");
        let skipped = event == InterceptedEvent::Send
            && self.rt.cfg().mutation == Mutation::SkipPresendCommit;
        match d.before {
            CommitScope::Local if !skipped => self.rt.local_commit(self.ctx, None),
            CommitScope::Coordinated => self.rt.coordinated_commit(self.ctx),
            CommitScope::Local | CommitScope::None => {}
        }
        let r = raw(self.ctx, self.rt);
        if d.after {
            self.rt.local_commit(self.ctx, None);
        }
        r
    }
}

impl Syscalls for DcSys<'_, '_> {
    fn pid(&self) -> ProcessId {
        self.ctx.pid()
    }

    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn compute(&mut self, ns: SimTime) {
        self.ctx.compute(ns);
    }

    fn gettimeofday(&mut self) -> SimTime {
        self.nd(
            NdSource::TimeOfDay,
            PendingNd::Time,
            pending!(Time),
            |ctx| Some(ctx.gettimeofday()),
            local,
        )
        .expect("gettimeofday always returns")
    }

    fn random(&mut self) -> u64 {
        self.nd(
            NdSource::Random,
            PendingNd::Rand,
            pending!(Rand),
            |ctx| Some(ctx.random()),
            local,
        )
        .expect("random always returns")
    }

    fn read_input(&mut self) -> Option<Payload> {
        self.nd(
            NdSource::UserInput,
            PendingNd::Input,
            pending!(Input),
            Syscalls::read_input,
            local,
        )
    }

    fn input_exhausted(&self) -> bool {
        self.ctx.input_exhausted()
    }

    fn send(&mut self, to: ProcessId, payload: &[u8]) -> SysResult<()> {
        self.around(InterceptedEvent::Send, |ctx, rt| {
            // Read after the commit-before: a commit clears both. A clean
            // process with no dependencies sends the default metadata.
            let st = rt.state_mut(ctx.pid());
            let tainted = st.planner.is_dirty();
            if tainted || !st.tracker.deps().is_empty() {
                ctx.set_send_meta(st.tracker.snapshot(), tainted);
            }
            let sent = ctx.send(to, payload);
            // A killed step's send is suppressed and a refused one takes no
            // sequence number: neither moves the channel's counter.
            if sent.is_ok() && !ctx.step_killed() {
                st.sent_to.push(to.0);
            }
            sent
        })
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.nd(
            NdSource::MessageRecv,
            PendingNd::Recv,
            pending!(Recv),
            Syscalls::try_recv,
            |st, msg, logged| {
                st.recv_from.push(msg.from.0);
                st.tracker.on_recv(&msg.deps, logged);
                if msg.tainted {
                    // A dependence on the sender's uncommitted
                    // non-determinism flowed in; a dirty bit alone would
                    // miss it under logging.
                    st.planner.note_tainted();
                }
            },
        )
    }

    fn visible(&mut self, token: u64) {
        self.around(InterceptedEvent::Visible, |ctx, _| ctx.visible(token));
    }

    fn take_signal(&mut self) -> Option<u32> {
        self.nd(
            NdSource::Signal,
            PendingNd::Signal,
            pending!(Signal),
            Syscalls::take_signal,
            local,
        )
    }

    fn open(&mut self, name: &str) -> SysResult<u32> {
        self.nd(
            NdSource::ResourceProbe,
            PendingNd::OpenFd,
            pending!(OpenFd),
            |ctx| Some(ctx.open(name)),
            local,
        )
        .expect("open always returns")
    }

    fn write_file(&mut self, fd: u32, bytes: &[u8]) -> SysResult<()> {
        // A replayed write serves only the result: its kernel effect is
        // inside the committed kernel snapshot.
        self.nd(
            NdSource::ResourceProbe,
            PendingNd::WriteRes,
            pending!(WriteRes),
            |ctx| Some(ctx.write_file(fd, bytes)),
            local,
        )
        .expect("write always returns")
    }

    fn read_file(&mut self, fd: u32, len: usize) -> SysResult<Vec<u8>> {
        self.around(InterceptedEvent::Other, |ctx, _| ctx.read_file(fd, len))
    }

    fn close(&mut self, fd: u32) -> SysResult<()> {
        self.around(InterceptedEvent::Other, |ctx, _| ctx.close(fd))
    }

    fn note_fault_activation(&mut self, fault: u32) {
        self.ctx.note_fault_activation(fault);
    }

    fn shm_op(&mut self, op: ft_core::access::ShmOp) {
        self.ctx.shm_op(op);
    }
}

impl SysMem for DcSys<'_, '_> {
    fn mem(&mut self) -> &mut Mem {
        let pid = self.ctx.pid();
        &mut self.rt.state_mut(pid).mem
    }
}
