//! DSM locks with release-consistency diff propagation.
//!
//! TreadMarks synchronizes through locks as well as barriers; a lock
//! *release* publishes the holder's modifications and the next *acquire*
//! receives them — consistency travels with the synchronization, not with
//! every write. We implement a centralized manager: clients send acquire
//! requests; the manager queues them and forwards, with each grant, the
//! diffs the previous holder attached to its release.
//!
//! The memory model is **entry consistency** (Midway-style, a strictly
//! weaker cousin of TreadMarks' lazy release consistency): data protected
//! by a lock is guaranteed coherent only *while holding that lock* —
//! grants carry the accumulated write notices of every release the
//! acquirer hasn't seen. Barriers synchronize barrier-shared data; they
//! do **not** flush other nodes' lock-protected updates to you (full LRC
//! would need interval timestamps). Read lock-protected data inside a
//! critical section.
//!
//! All client lock state lives in the client's arena (it checkpoints and
//! rolls back like everything else); the manager's queues and stored
//! release-diffs live in the manager's arena. The whole primitive
//! therefore recovers under the runtime like any other state: the
//! protocols see lock traffic as ordinary messages, and the task-farm
//! kill sweep (`ft-bench/tests/taskfarm_recovery.rs`) kills workers
//! mid-critical-section *and the manager itself* under every Figure 8
//! protocol. The one structural requirement is [`LockServer::service`]'s
//! compute → send → mutate ordering (see its docs).
//!
//! ## Wire protocol (bincode, tagged)
//!
//! * `Req { lock }` — client → manager.
//! * `Grant { lock, diffs }` — manager → client, carrying the previous
//!   release's diffs.
//! * `Rel { lock, diffs }` — client → manager.

use ft_core::event::ProcessId;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_mem::vec::ArenaVec;
use ft_sim::cost::US;
use ft_sim::syscalls::SysMem;

use crate::Dsm;

/// A lock-protocol message.
#[derive(Debug, Clone)]
pub enum LockMsg {
    /// Acquire request.
    Req {
        /// Lock id.
        lock: u32,
    },
    /// Grant, carrying the previous holder's release diffs (opaque
    /// serialized page diffs; empty on first acquisition).
    Grant {
        /// Lock id.
        lock: u32,
        /// The previous release's diff payload.
        diffs: Vec<u8>,
    },
    /// Release, publishing the holder's modifications.
    Rel {
        /// Lock id.
        lock: u32,
        /// Serialized page diffs of the protected-section writes.
        diffs: Vec<u8>,
    },
}

impl LockMsg {
    /// Serializes for the wire: a variant tag byte, the lock id, and (for
    /// Grant/Rel) a length-prefixed diff payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            LockMsg::Req { lock } => {
                out.push(0);
                out.extend_from_slice(&lock.to_le_bytes());
            }
            LockMsg::Grant { lock, diffs } => {
                out.push(1);
                out.extend_from_slice(&lock.to_le_bytes());
                ft_mem::diff::put_blob(&mut out, diffs);
            }
            LockMsg::Rel { lock, diffs } => {
                out.push(2);
                out.extend_from_slice(&lock.to_le_bytes());
                ft_mem::diff::put_blob(&mut out, diffs);
            }
        }
        out
    }

    /// Deserializes from the wire.
    pub fn decode(bytes: &[u8]) -> MemResult<Self> {
        let bad = MemFault::InvariantViolated { check: 0xD9 };
        let mut r = ft_mem::diff::Reader::new(bytes);
        let msg = match r.u8().map_err(|_| bad)? {
            0 => LockMsg::Req {
                lock: r.u32().map_err(|_| bad)?,
            },
            1 => LockMsg::Grant {
                lock: r.u32().map_err(|_| bad)?,
                diffs: r.blob().map_err(|_| bad)?,
            },
            2 => LockMsg::Rel {
                lock: r.u32().map_err(|_| bad)?,
                diffs: r.blob().map_err(|_| bad)?,
            },
            _ => return Err(bad),
        };
        r.finish().map_err(|_| bad)?;
        Ok(msg)
    }
}

/// Client-side lock phase values (stored in the Dsm control block).
const PHASE_IDLE: u64 = 0;
const PHASE_WAITING: u64 = 1;
const PHASE_HELD: u64 = 2;

/// Result of pumping a lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStatus {
    /// The lock is held; the critical section may proceed.
    Granted,
    /// Waiting for the grant; block on a message wait.
    Waiting,
}

impl Dsm {
    fn lock_phase_cell(&self) -> ArenaCell<u64> {
        ArenaCell::at(self.lock_ctrl_off())
    }

    /// Pumps a lock acquisition toward `manager`. Call repeatedly (one
    /// event syscall per call): sends the request once, then consumes the
    /// grant — applying the diffs it carries to the region *and* the twin
    /// (they are received state, not ours to re-publish).
    ///
    /// Demultiplexes by sender: messages from anyone other than the
    /// manager are barrier diffs from a fast peer that already entered
    /// the next barrier, and are absorbed (applied or stashed) so the
    /// barrier doesn't lose them while we wait for the grant.
    pub fn lock_pump(
        &self,
        sys: &mut dyn SysMem,
        manager: ProcessId,
        lock: u32,
    ) -> MemResult<LockStatus> {
        let phase = self.lock_phase_cell();
        match phase.get(&sys.mem().arena)? {
            PHASE_IDLE => {
                sys.send(manager, &LockMsg::Req { lock }.encode())
                    .expect("manager exists");
                phase.set(&mut sys.mem().arena, PHASE_WAITING)?;
                Ok(LockStatus::Waiting)
            }
            PHASE_WAITING => match sys.try_recv() {
                None => Ok(LockStatus::Waiting),
                Some(msg) if msg.from != manager => {
                    self.absorb_barrier_payload(sys, &msg.payload)?;
                    Ok(LockStatus::Waiting)
                }
                Some(msg) => match LockMsg::decode(&msg.payload)? {
                    LockMsg::Grant { lock: l, diffs } if l == lock => {
                        if !diffs.is_empty() {
                            let applied = self.apply_diffs(
                                sys.mem(),
                                ft_mem::diff::Diffs::parse(&diffs)?,
                                &[self.region_off, self.twin_off],
                            )?;
                            sys.compute((applied as u64 / 256 + 1) * US);
                        }
                        phase.set(&mut sys.mem().arena, PHASE_HELD)?;
                        // Acquire edge: the previous holder's release
                        // happens-before this critical section.
                        sys.shm_op(ft_core::access::ShmOp::LockAcq { lock });
                        Ok(LockStatus::Granted)
                    }
                    _ => Err(MemFault::InvariantViolated { check: 0xDA }),
                },
            },
            PHASE_HELD => Ok(LockStatus::Granted),
            _ => Err(MemFault::InvariantViolated { check: 0xDB }),
        }
    }

    /// Releases the lock, publishing this process's modifications (diffs
    /// vs. the twin) to the manager and folding them into the twin so they
    /// are not re-published at the next barrier.
    pub fn unlock(&self, sys: &mut dyn SysMem, manager: ProcessId, lock: u32) -> MemResult<()> {
        let phase = self.lock_phase_cell();
        if phase.get(&sys.mem().arena)? != PHASE_HELD {
            return Err(MemFault::InvariantViolated { check: 0xDC });
        }
        // Release edge: recorded before the publishing send, so the
        // critical section's accesses sit between acquire and release in
        // the stream.
        sys.shm_op(ft_core::access::ShmOp::LockRel { lock });
        let (diffs, _) = self.encode_my_diffs(sys.mem(), &[])?;
        sys.send(manager, &LockMsg::Rel { lock, diffs }.encode())
            .expect("manager exists");
        let m = sys.mem();
        self.fold_my_diffs_into_twin(m)?;
        phase.set(&mut m.arena, PHASE_IDLE)?;
        Ok(())
    }
}

// Manager-side state layout, all in the manager's arena:
// per lock: [held: u64][waiters handle: 24 bytes][diff handle: 24 bytes].
const SLOT_BYTES: usize = 8 + 24 + 24;
const NO_HOLDER: u64 = u64::MAX;

/// The centralized lock manager, embedded in a manager application's step
/// loop: construct once (allocating manager state), then call
/// [`LockServer::service`] for each received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockServer {
    base: usize,
    n_locks: u32,
}

impl LockServer {
    /// Allocates manager state for `n_locks` locks.
    pub fn init(mem: &mut Mem, n_locks: u32) -> MemResult<Self> {
        let base = mem
            .alloc
            .alloc(&mut mem.arena, n_locks as usize * SLOT_BYTES)?;
        for l in 0..n_locks {
            let slot = base + l as usize * SLOT_BYTES;
            mem.arena.write_pod(slot, NO_HOLDER)?;
            let waiters = ArenaVec::<u64>::with_capacity(&mut mem.arena, &mut mem.alloc, 4)?;
            waiters.store_handle(&mut mem.arena, slot + 8)?;
            let diffs = ArenaVec::<u8>::with_capacity(&mut mem.arena, &mut mem.alloc, 16)?;
            diffs.store_handle(&mut mem.arena, slot + 32)?;
        }
        Ok(LockServer { base, n_locks })
    }

    fn slot(&self, lock: u32) -> MemResult<usize> {
        if lock >= self.n_locks {
            return Err(MemFault::InvariantViolated { check: 0xDD });
        }
        Ok(self.base + lock as usize * SLOT_BYTES)
    }

    /// Handles one lock message from `from`. May send one grant (the
    /// caller's step should treat this as its event syscall).
    ///
    /// Structured compute → send → mutate: the recovery runtime may
    /// interpose a commit at the send, and re-execution after a rollback
    /// to that commit must find the pre-mutation queue state (the resent
    /// grant itself is deduplicated by the network). Mutating before the
    /// send would make re-execution see an already-transferred lock and
    /// crash-loop on the holder invariant.
    pub fn service(&self, sys: &mut dyn SysMem, from: ProcessId, msg: &LockMsg) -> MemResult<()> {
        match msg {
            LockMsg::Req { lock } => {
                let slot = self.slot(*lock)?;
                let holder: u64 = sys.mem().arena.read_pod(slot)?;
                if holder == NO_HOLDER {
                    let diffs = {
                        let m = sys.mem();
                        ArenaVec::<u8>::load_handle(&m.arena, slot + 32)?.to_vec(&m.arena)?
                    };
                    sys.send(from, &LockMsg::Grant { lock: *lock, diffs }.encode())
                        .expect("client exists");
                    sys.mem().arena.write_pod(slot, from.0 as u64)?;
                } else {
                    let mut waiters = ArenaVec::<u64>::load_handle(&sys.mem().arena, slot + 8)?;
                    let m = sys.mem();
                    waiters.push(&mut m.arena, &mut m.alloc, from.0 as u64)?;
                    waiters.store_handle(&mut m.arena, slot + 8)?;
                }
                Ok(())
            }
            LockMsg::Rel { lock, diffs } => {
                let slot = self.slot(*lock)?;
                let holder: u64 = sys.mem().arena.read_pod(slot)?;
                if holder != from.0 as u64 {
                    return Err(MemFault::InvariantViolated { check: 0xDE });
                }
                // Compute: accumulate the release diffs into the stored
                // write notices (byte-wise, later-wins — a future acquirer
                // needs everything it hasn't seen, not just this release)
                // and pick the next holder.
                let merged = {
                    let m = sys.mem();
                    let stored = ArenaVec::<u8>::load_handle(&m.arena, slot + 32)?;
                    Dsm::merge_diff_payloads(&stored.to_vec(&m.arena)?, diffs)?
                };
                let waiters = ArenaVec::<u64>::load_handle(&sys.mem().arena, slot + 8)?;
                let next = if waiters.is_empty() {
                    None
                } else {
                    Some(waiters.get(&sys.mem().arena, 0)?)
                };
                // Send: hand the lock (with the accumulated notices) to
                // the next waiter, if any.
                if let Some(n) = next {
                    let waiter =
                        ProcessId(u32::try_from(n).expect("waiter ids were u32 at enqueue"));
                    sys.send(
                        waiter,
                        &LockMsg::Grant {
                            lock: *lock,
                            diffs: merged.clone(),
                        }
                        .encode(),
                    )
                    .expect("client exists");
                }
                // Mutate.
                let m = sys.mem();
                let mut stored = ArenaVec::<u8>::load_handle(&m.arena, slot + 32)?;
                stored.clear();
                for b in merged {
                    stored.push(&mut m.arena, &mut m.alloc, b)?;
                }
                stored.store_handle(&mut m.arena, slot + 32)?;
                if next.is_some() {
                    let mut w = ArenaVec::<u64>::load_handle(&m.arena, slot + 8)?;
                    w.remove(&mut m.arena, 0)?;
                    w.store_handle(&mut m.arena, slot + 8)?;
                }
                m.arena.write_pod(slot, next.unwrap_or(NO_HOLDER))?;
                Ok(())
            }
            LockMsg::Grant { .. } => Err(MemFault::InvariantViolated { check: 0xDF }),
        }
    }
}

/// A ready-made lock-manager process: wraps [`LockServer`] in the two-step
/// receive/service loop the one-event-per-step discipline requires, and
/// terminates after a known number of releases.
///
/// Run it as the process every client addresses as `manager`. Like any
/// app, all its mutable state (queues, stored write notices, the pending
/// message) lives in the arena, so it checkpoints and recovers under the
/// runtime like the clients do.
#[derive(Debug, Clone, Copy)]
pub struct ManagerApp {
    expected_releases: u64,
    /// The attached server state and pending-message buffer: what
    /// [`ManagerApp::init_state`] returns in a fresh arena.
    server: LockServer,
    buf: usize,
}

// Manager globals: 0 = phase (0 init, 1 recv, 2 service), 8 = releases
// serviced. The pending-message buffer lives in the heap.
const MGR_BUF_BYTES: usize = 16 * 1024;
const MGR_LAYOUT: ft_mem::arena::Layout = ft_mem::arena::Layout {
    globals_pages: 1,
    stack_pages: 2,
    heap_pages: 16,
};

impl ManagerApp {
    /// A manager for `n_locks` locks that exits once it has serviced
    /// `expected_releases` release messages (each client acquire/release
    /// pair contributes one).
    ///
    /// Attaches the manager's heap state here, once: its offsets are a
    /// pure function of the layout and the deterministic allocation order
    /// (see [`Dsm`]), so the init step's live allocation lands on them at
    /// every start and after every rollback to the initial commit.
    ///
    /// # Panics
    ///
    /// Panics if `n_locks` locks do not fit the manager's heap.
    pub fn new(n_locks: u32, expected_releases: u64) -> Self {
        let (server, buf) = Self::init_state(&mut Mem::new(MGR_LAYOUT), n_locks)
            .expect("the manager's heap holds its lock table");
        ManagerApp {
            expected_releases,
            server,
            buf,
        }
    }

    /// Allocates the server state and the pending-message buffer.
    fn init_state(mem: &mut Mem, n_locks: u32) -> MemResult<(LockServer, usize)> {
        let server = LockServer::init(mem, n_locks)?;
        let buf = mem.alloc.alloc(&mut mem.arena, MGR_BUF_BYTES)?;
        Ok((server, buf))
    }
}

impl ft_sim::syscalls::App for ManagerApp {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<ft_sim::syscalls::AppStatus> {
        use ft_sim::syscalls::{AppStatus, WaitCond};
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        let rels: ArenaCell<u64> = ArenaCell::at(8);
        let (server, buf) = (self.server, self.buf);
        match phase.get(&sys.mem().arena)? {
            0 => {
                let m = sys.mem();
                if Self::init_state(m, server.n_locks)? != (server, buf) {
                    return Err(MemFault::InvariantViolated { check: 0xE1 });
                }
                phase.set(&mut m.arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => match sys.try_recv() {
                None => {
                    if rels.get(&sys.mem().arena)? >= self.expected_releases {
                        Ok(AppStatus::Done)
                    } else {
                        Ok(AppStatus::Blocked(WaitCond::message()))
                    }
                }
                Some(msg) => {
                    // Stash the payload; servicing may send a grant, which
                    // must be its own step's event syscall.
                    if msg.payload.len() > MGR_BUF_BYTES - 8 {
                        return Err(MemFault::InvariantViolated { check: 0xE0 });
                    }
                    let m = sys.mem();
                    let tag = (msg.from.0 as u64) << 32 | msg.payload.len() as u64;
                    m.arena.write_pod(buf, tag)?;
                    m.arena.write(buf + 8, &msg.payload)?;
                    phase.set(&mut m.arena, 2)?;
                    Ok(AppStatus::Running)
                }
            },
            _ => {
                let (from, len) = {
                    let m = sys.mem();
                    let tag: u64 = m.arena.read_pod(buf)?;
                    (ProcessId((tag >> 32) as u32), (tag & 0xFFFF_FFFF) as usize)
                };
                let payload = sys.mem().arena.read(buf + 8, len)?.to_vec();
                let msg = LockMsg::decode(&payload)?;
                server.service(sys, from, &msg)?;
                if matches!(msg, LockMsg::Rel { .. }) {
                    let m = sys.mem();
                    let n = rels.get(&m.arena)? + 1;
                    rels.set(&mut m.arena, n)?;
                }
                phase.set(&mut sys.mem().arena, 1)?;
                Ok(AppStatus::Running)
            }
        }
    }

    fn layout(&self) -> ft_mem::arena::Layout {
        MGR_LAYOUT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_mem::arena::Layout;

    fn mem() -> Mem {
        Mem::new(Layout {
            globals_pages: 1,
            stack_pages: 2,
            heap_pages: 16,
        })
    }

    #[test]
    fn lock_msg_roundtrips() {
        for msg in [
            LockMsg::Req { lock: 7 },
            LockMsg::Grant {
                lock: 0,
                diffs: vec![1, 2, 3],
            },
            LockMsg::Rel {
                lock: 99,
                diffs: vec![],
            },
        ] {
            let bytes = msg.encode();
            let back = LockMsg::decode(&bytes).unwrap();
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
        assert!(LockMsg::decode(&[0xFF, 0xFF, 0xFF]).is_err());
    }

    #[test]
    fn server_rejects_out_of_range_and_foreign_release() {
        let mut m = mem();
        let server = LockServer::init(&mut m, 2).unwrap();
        assert!(server.slot(2).is_err());
        assert!(server.slot(1).is_ok());
    }

    #[test]
    fn server_state_survives_arena_commit_rollback() {
        // The manager's queues live in the arena, so they checkpoint and
        // roll back like any application state.
        let mut m = mem();
        let server = LockServer::init(&mut m, 1).unwrap();
        let slot = server.slot(0).unwrap();
        m.arena.commit();
        m.arena.write_pod(slot, 5u64).unwrap();
        assert_eq!(m.arena.read_pod::<u64>(slot).unwrap(), 5);
        m.arena.rollback();
        assert_eq!(m.arena.read_pod::<u64>(slot).unwrap(), NO_HOLDER);
    }
}
