//! The `magic` workload: a VLSI layout editor.
//!
//! Profile per §3: interactive commands at 1-second think time, each
//! followed by a burst of real computation — placing boxes on the layout
//! grid, routing wires with a Lee-style breadth-first router, and running
//! design-rule checks — then a status render (visible). Each command also
//! touches the clock a couple of times (transient non-determinism), which
//! is why magic's CAND count in Figure 8 is several times its command
//! count while CAND-LOG's sits in between.
//!
//! ## Commands (5-byte records: opcode, a, b, c, d)
//!
//! | op  | action                                        |
//! |-----|-----------------------------------------------|
//! | `P` | place a `c`×`d` box of material at (`a`, `b`) |
//! | `W` | route a wire from (`a`, `b`) to (`c`*4, `d`*4)|
//! | `D` | run the design-rule checker over the grid     |
//! | `S` | save the layout to a file                     |

use ft_mem::arena::Layout;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_mem::vec::ArenaVec;
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

/// Layout grid dimension (cells per side).
pub const GRID: usize = 64;

// Globals.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_GRID_HANDLE: usize = 16;
const G_CMD: usize = 40; // 5 staged command bytes.
const G_COMMANDS: ArenaCell<u64> = ArenaCell::at(48);
const G_VIOLATIONS: ArenaCell<u64> = ArenaCell::at(56);
const G_CLOCK: ArenaCell<u64> = ArenaCell::at(64);
const G_FD: ArenaCell<u64> = ArenaCell::at(72);

// Phases.
const P_INIT: u64 = 0;
const P_AWAIT: u64 = 1;
const P_CLOCK1: u64 = 2;
const P_EXEC: u64 = 3;
const P_CLOCK2: u64 = 4;
const P_RENDER: u64 = 5;
const P_SAVE_OPEN: u64 = 6;
const P_SAVE_WRITE: u64 = 7;
const P_DONE: u64 = 8;

/// The layout editor.
pub struct Cad;

impl Cad {
    fn grid(&self, mem: &Mem) -> MemResult<ArenaVec<u8>> {
        ArenaVec::load_handle(&mem.arena, G_GRID_HANDLE)
    }

    /// Places a box of material, clipped to the grid.
    fn place(
        &mut self,
        sys: &mut dyn SysMem,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
    ) -> MemResult<u64> {
        let grid = self.grid(sys.mem())?;
        let mut writes = 0;
        for dy in 0..h {
            for dx in 0..w {
                let (cx, cy) = (x + dx, y + dy);
                if cx < GRID && cy < GRID {
                    grid.set(&mut sys.mem().arena, cy * GRID + cx, 1)?;
                    writes += 1;
                }
            }
        }
        Ok(writes)
    }

    /// Lee-style breadth-first maze router from `a` to `b` around placed
    /// material. Returns the path length (0 if unroutable).
    fn route(
        &mut self,
        sys: &mut dyn SysMem,
        a: (usize, usize),
        b: (usize, usize),
    ) -> MemResult<u64> {
        let grid = self.grid(sys.mem())?;
        let cells = {
            let m = sys.mem();
            grid.to_vec(&m.arena)?
        };
        // BFS in local scratch (derived data, rebuilt per command).
        let mut dist = vec![u32::MAX; GRID * GRID];
        let mut queue = std::collections::VecDeque::new();
        let start = a.1.min(GRID - 1) * GRID + a.0.min(GRID - 1);
        let goal = b.1.min(GRID - 1) * GRID + b.0.min(GRID - 1);
        dist[start] = 0;
        queue.push_back(start);
        let mut expanded = 0u64;
        while let Some(u) = queue.pop_front() {
            expanded += 1;
            if u == goal {
                break;
            }
            let (ux, uy) = (u % GRID, u / GRID);
            let push = |v: usize,
                        d: u32,
                        q: &mut std::collections::VecDeque<usize>,
                        dist: &mut Vec<u32>| {
                if dist[v] == u32::MAX {
                    dist[v] = d;
                    q.push_back(v);
                }
            };
            let d = dist[u] + 1;
            if ux > 0 && cells[u - 1] == 0 {
                push(u - 1, d, &mut queue, &mut dist);
            }
            if ux + 1 < GRID && cells[u + 1] == 0 {
                push(u + 1, d, &mut queue, &mut dist);
            }
            if uy > 0 && cells[u - GRID] == 0 {
                push(u - GRID, d, &mut queue, &mut dist);
            }
            if uy + 1 < GRID && cells[u + GRID] == 0 {
                push(u + GRID, d, &mut queue, &mut dist);
            }
        }
        // Charge real work: BFS expansion cost.
        sys.compute(expanded.max(1) / 4 * US);
        if dist[goal] == u32::MAX {
            return Ok(0);
        }
        // Walk the path back, committing wire material to the grid.
        let mut cur = goal;
        let mut length = 0u64;
        let mut safety = 0;
        while cur != start {
            safety += 1;
            if safety > GRID * GRID {
                return Err(MemFault::InvariantViolated { check: 0xCA });
            }
            grid.set(&mut sys.mem().arena, cur, 2)?;
            length += 1;
            let (cx, cy) = (cur % GRID, cur / GRID);
            let dcur = dist[cur];
            cur = if cx > 0 && dist[cur - 1] == dcur - 1 {
                cur - 1
            } else if cx + 1 < GRID && dist[cur + 1] == dcur - 1 {
                cur + 1
            } else if cy > 0 && dist[cur - GRID] == dcur - 1 {
                cur - GRID
            } else if cy + 1 < GRID && dist[cur + GRID] == dcur - 1 {
                cur + GRID
            } else {
                return Err(MemFault::InvariantViolated { check: 0xCB });
            };
        }
        Ok(length)
    }

    /// Design-rule check: counts adjacency violations (wire touching box
    /// material diagonally, in this toy rule set).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the scan covers interior cells only, so neighbor offsets stay inside [0, GRID)"
    )]
    fn drc(&self, sys: &mut dyn SysMem) -> MemResult<u64> {
        let grid = self.grid(sys.mem())?;
        let cells = grid.to_vec(&sys.mem().arena)?;
        let mut violations = 0u64;
        for y in 1..GRID - 1 {
            for x in 1..GRID - 1 {
                let c = cells[y * GRID + x];
                if c == 2 {
                    for (dx, dy) in [(-1i64, -1i64), (1, -1), (-1, 1), (1, 1)] {
                        let n = cells[((y as i64 + dy) as usize) * GRID + (x as i64 + dx) as usize];
                        if n == 1 {
                            violations += 1;
                        }
                    }
                }
            }
        }
        sys.compute((GRID * GRID) as u64 / 8 * US);
        Ok(violations)
    }
}

impl App for Cad {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => {
                if G_INIT.get(&sys.mem().arena)? == 0 {
                    let m = sys.mem();
                    let mut grid = m.new_vec::<u8>(GRID * GRID)?;
                    for _ in 0..GRID * GRID {
                        grid.push(&mut m.arena, &mut m.alloc, 0)?;
                    }
                    grid.store_handle(&mut m.arena, G_GRID_HANDLE)?;
                    G_INIT.set(&mut m.arena, 1)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_AWAIT => {
                if let Some(bytes) = sys.read_input() {
                    let m = sys.mem();
                    let mut cmd = [0u8; 5];
                    for (i, b) in bytes.iter().take(5).enumerate() {
                        cmd[i] = *b;
                    }
                    m.arena.write(G_CMD, &cmd)?;
                    G_PHASE.set(&mut m.arena, P_CLOCK1)?;
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    G_PHASE.set(&mut sys.mem().arena, P_DONE)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            P_CLOCK1 => {
                // Commands are timed (undo log timestamps): transient nd.
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, P_EXEC)?;
                Ok(AppStatus::Running)
            }
            P_EXEC => {
                let cmd: [u8; 5] = {
                    let m = sys.mem();
                    let b = m.arena.read(G_CMD, 5)?;
                    [b[0], b[1], b[2], b[3], b[4]]
                };
                let result = match cmd[0] {
                    b'P' => {
                        sys.compute(200 * US);
                        self.place(
                            sys,
                            cmd[1] as usize,
                            cmd[2] as usize,
                            cmd[3] as usize,
                            cmd[4] as usize,
                        )?
                    }
                    b'W' => self.route(
                        sys,
                        (cmd[1] as usize, cmd[2] as usize),
                        (cmd[3] as usize * 4 % GRID, cmd[4] as usize * 4 % GRID),
                    )?,
                    b'D' => {
                        let v = self.drc(sys)?;
                        G_VIOLATIONS.set(&mut sys.mem().arena, v)?;
                        v
                    }
                    b'S' => 0,
                    _ => 0,
                };
                let m = sys.mem();
                let n_cmds = G_COMMANDS.get(&m.arena)? + 1;
                G_COMMANDS.set(&mut m.arena, n_cmds)?;
                // Stash the result for the render phase in the staged slot.
                m.arena.write_pod(G_CMD + 8, result)?;
                let next = if cmd[0] == b'S' {
                    P_SAVE_OPEN
                } else {
                    P_CLOCK2
                };
                G_PHASE.set(&mut m.arena, next)?;
                Ok(AppStatus::Running)
            }
            P_CLOCK2 => {
                // Post-command timing for the status bar: transient nd.
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, P_RENDER)?;
                Ok(AppStatus::Running)
            }
            P_RENDER => {
                let m = sys.mem();
                let n = G_COMMANDS.get(&m.arena)?;
                let result: u64 = m.arena.read_pod(G_CMD + 8)?;
                let viol = G_VIOLATIONS.get(&m.arena)?;
                sys.visible(render_token(n, result, viol));
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_SAVE_OPEN => {
                let fd = sys
                    .open("layout.mag")
                    .map_err(|_| MemFault::InvariantViolated { check: 4 })?;
                let m = sys.mem();
                G_FD.set(&mut m.arena, fd as u64)?;
                G_PHASE.set(&mut m.arena, P_SAVE_WRITE)?;
                Ok(AppStatus::Running)
            }
            P_SAVE_WRITE => {
                sys.mem().check_integrity()?;
                let grid = self.grid(sys.mem())?;
                let bytes = grid.to_vec(&sys.mem().arena)?;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the fd was a u32 when stored in its u64 arena cell"
                )]
                let fd = G_FD.get(&sys.mem().arena)? as u32;
                sys.write_file(fd, &bytes)
                    .map_err(|_| MemFault::InvariantViolated { check: 5 })?;
                let _ = sys.close(fd);
                G_PHASE.set(&mut sys.mem().arena, P_CLOCK2)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 4,
            heap_pages: 16,
        }
    }
}

/// The status-render token after a command.
pub fn render_token(commands: u64, result: u64, violations: u64) -> u64 {
    crate::fold_words(0x9E3779B97F4A7C15, &[commands, result, violations])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cad_script;
    use ft_core::event::ProcessId;
    use ft_sim::harness::run_plain_on;
    use ft_sim::script::InputScript;
    use ft_sim::sim::{SimConfig, Simulator};
    use ft_sim::MS;

    fn run_cmds(cmds: Vec<Vec<u8>>) -> ft_sim::harness::PlainReport {
        let mut sim = Simulator::new(SimConfig::single_node(1, 2));
        sim.set_input_script(ProcessId(0), InputScript::evenly_spaced(0, 10 * MS, cmds));
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(Cad)];
        run_plain_on(sim, &mut apps)
    }

    #[test]
    fn place_route_drc_session_completes() {
        let report = run_cmds(vec![
            vec![b'P', 10, 10, 5, 5],
            vec![b'W', 0, 0, 10, 10],
            vec![b'D', 0, 0, 0, 0],
        ]);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 3);
    }

    #[test]
    fn save_goes_to_the_kernel_file() {
        let report = run_cmds(vec![vec![b'P', 1, 1, 2, 2], vec![b'S', 0, 0, 0, 0]]);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 2);
    }

    #[test]
    fn each_command_takes_two_clock_reads() {
        let report = run_cmds(vec![vec![b'P', 1, 1, 1, 1]]);
        let transient = report
            .trace
            .iter()
            .filter(|e| e.nd_class() == Some(ft_core::event::NdClass::Transient))
            .count();
        assert_eq!(transient, 2);
    }

    #[test]
    fn generated_session_runs_clean() {
        let report = run_cmds(cad_script(60, 9));
        assert!(report.all_done);
        assert!(report.visibles.len() >= 60);
    }

    #[test]
    fn walled_off_target_is_unroutable() {
        // Build a box wall around the target, then try to route into it:
        // the router reports length 0 (and the session continues).
        let mut cmds = vec![
            vec![b'P', 38, 38, 5, 1], // Top wall.
            vec![b'P', 38, 42, 5, 1], // Bottom wall.
            vec![b'P', 38, 39, 1, 3], // Left wall.
            vec![b'P', 42, 39, 1, 3], // Right wall.
        ];
        cmds.push(vec![b'W', 0, 0, 10, 10]); // Route to (40, 40): inside.
        cmds.push(vec![b'P', 1, 1, 1, 1]); // Life goes on.
        let report = run_cmds(cmds);
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 6);
    }

    #[test]
    fn drc_counts_diagonal_adjacencies() {
        // A wire cell diagonally adjacent to box material violates the toy
        // rule set. The wire terminates at (12, 12); the box at (13, 13)
        // touches it corner-to-corner.
        let report = run_cmds(vec![
            vec![b'P', 13, 13, 1, 1],
            vec![b'W', 0, 0, 3, 3], // Route from (0,0) to (12,12).
            vec![b'D', 0, 0, 0, 0],
        ]);
        assert!(report.all_done);
        // The DRC render token encodes a nonzero violation count; compare
        // with the zero-violation layout (same commands, box far away).
        let clean = run_cmds(vec![
            vec![b'P', 40, 40, 1, 1],
            vec![b'W', 0, 0, 3, 3],
            vec![b'D', 0, 0, 0, 0],
        ]);
        assert_ne!(report.visibles[2].2, clean.visibles[2].2);
    }

    #[test]
    fn router_charges_more_for_longer_paths() {
        let short = run_cmds(vec![vec![b'W', 0, 0, 1, 1]]);
        let long = run_cmds(vec![vec![b'W', 0, 0, 15, 15]]);
        assert!(long.runtime > short.runtime);
    }
}
