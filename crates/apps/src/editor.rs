//! The `nvi` workload: an interactive text editor.
//!
//! Profile per §3: copious *fixed* non-determinism (keystrokes) and
//! visible output (the echo/screen update per keystroke), little compute,
//! occasional file saves (`:w` → `open`/`write`/`close`, each a fixed
//! non-deterministic event) and a status-line clock (`gettimeofday`,
//! transient — the handful of events that keep CAND-LOG from being free).
//!
//! The buffer is a flat byte vector with an explicit cursor; the status
//! line is a fixed 32-byte heap buffer written with raw index arithmetic —
//! the §4.1 fault types bite exactly where they would in the real editor:
//!
//! * a **stack bit flip** corrupts the per-keystroke locals (staged key,
//!   cursor copy); implausible values fault in the renderer immediately,
//!   before any output — these crashes precede the next commit;
//! * a **heap bit flip** lands in text bytes (silent corruption) or in an
//!   allocation guard, detected only by the save-time integrity walk —
//!   many commits later, the Figure 5 story;
//! * a **deleted branch** removes the status-buffer bounds check, so an
//!   out-of-range status write smashes the buffer's own tail guard —
//!   silent until the next save;
//! * a **deleted instruction** skips the buffer-handle writeback after an
//!   insert, leaving a stale length; the cursor outruns the buffer and a
//!   later insert segfaults — after the echo's commit;
//! * an **off-by-one** shifts the insert index; at end-of-buffer it
//!   faults right after the echo;
//! * a **destination-register** fault misdirects the staged-key store into
//!   a neighboring global (sometimes the text handle, which the next load
//!   rejects as a wild pointer);
//! * an **initialization** fault leaves the staging variable holding
//!   garbage wider than any keystroke, tripping the dispatcher at once.
//!
//! ## Key map (one byte per keystroke)
//!
//! | byte  | action                         |
//! |-------|--------------------------------|
//! | `/`   | search: jump to the next occurrence of the following key |
//! | `u`   | undo the last insert or delete   |
//! | `<`   | cursor left                    |
//! | `>`   | cursor right                   |
//! | `#`   | delete before cursor           |
//! | `!`   | save (`:w`)                    |
//! | `@`   | status-line clock update       |
//! | other | insert the byte at the cursor  |

#![allow(
    clippy::cast_possible_truncation,
    reason = "guest state lives in u64 arena cells; reads narrow values back to the width they had when stored (slots, cursors, fds, single key bytes)"
)]

use ft_core::fault::FaultPlan;
use ft_mem::arena::Layout;
use ft_mem::error::{MemFault, MemResult};
use ft_mem::mem::{ArenaCell, Mem};
use ft_mem::vec::ArenaVec;
use ft_sim::cost::US;
use ft_sim::syscalls::{AppStatus, SysMem, WaitCond};
use ft_sim::App;

use crate::injector::FaultInjector;

// Globals layout.
const G_PHASE: ArenaCell<u64> = ArenaCell::at(0);
const G_INIT: ArenaCell<u64> = ArenaCell::at(8);
const G_TEXT_HANDLE: usize = 16; // 24 bytes.
const G_CURSOR: ArenaCell<u64> = ArenaCell::at(40);
const G_STAGED: ArenaCell<u64> = ArenaCell::at(48);
const G_KEYS: ArenaCell<u64> = ArenaCell::at(56);
const G_CLOCK: ArenaCell<u64> = ArenaCell::at(64);
const G_SAVES: ArenaCell<u64> = ArenaCell::at(72);
const G_FD: ArenaCell<u64> = ArenaCell::at(80);
const G_STATUS_OFF: ArenaCell<u64> = ArenaCell::at(88);
const G_MODE: ArenaCell<u64> = ArenaCell::at(96); // 0 = edit, 1 = search pending.
const G_UNDO_HANDLE: usize = 104; // 24 bytes: the undo journal's ArenaVec.

/// Status-line buffer length.
const STATUS_LEN: usize = 32;

// Phases.
const P_INIT: u64 = 0;
const P_AWAIT: u64 = 1;
const P_ECHO: u64 = 2;
const P_CLOCK: u64 = 3;
const P_SAVE_OPEN: u64 = 4;
const P_SAVE_WRITE: u64 = 5;
const P_SAVE_CLOSE: u64 = 6;
const P_DONE: u64 = 7;

// Fault sites.
const S_KEY: u64 = 10; // Bit-flip site, visited per keystroke.
const S_STATUS_BOUND: u64 = 11; // Delete-branch: status bounds check.
const S_INSERT_IDX: u64 = 12; // Off-by-one on the insert index.
const S_STORE_BACK: u64 = 13; // Delete-instruction: skip handle writeback.
const S_STAGE_DEST: u64 = 14; // Destination-register on the staged store.
const S_STAGE_INIT: u64 = 16; // Initialization of the staged-key variable.

/// The fault site the editor exposes for each §4.1 fault type.
pub fn fault_site(fault: ft_core::fault::FaultType) -> u64 {
    match fault {
        ft_core::fault::FaultType::StackBitFlip | ft_core::fault::FaultType::HeapBitFlip => S_KEY,
        ft_core::fault::FaultType::DeleteBranch => S_STATUS_BOUND,
        ft_core::fault::FaultType::OffByOne => S_INSERT_IDX,
        ft_core::fault::FaultType::DeleteInstruction => S_STORE_BACK,
        ft_core::fault::FaultType::DestinationReg => S_STAGE_DEST,
        ft_core::fault::FaultType::Initialization => S_STAGE_INIT,
    }
}

/// The editor application.
pub struct Editor {
    /// Fault injector, inert unless the harness arms it
    /// ([`App::arm_fault`]).
    faults: FaultInjector,
    /// Run the §2.6 crash-early consistency checks each step (ablation).
    pub eager_checks: bool,
}

impl Editor {
    /// A fault-free editor.
    pub fn new() -> Self {
        Editor {
            faults: FaultInjector::none(),
            eager_checks: false,
        }
    }

    /// Loads the text handle, sanity-checking it (a corrupted handle — a
    /// misdirected store — must segfault rather than silently trample
    /// memory).
    fn text(&self, mem: &Mem) -> MemResult<ArenaVec<u8>> {
        let v = ArenaVec::<u8>::load_handle(&mem.arena, G_TEXT_HANDLE)?;
        let heap = mem.arena.region_range(ft_mem::Region::Heap);
        let (off, len, cap) = v.handle_triple();
        if (off as usize) < heap.start || len > cap || (cap as usize) > heap.len() {
            return Err(MemFault::OutOfBounds {
                offset: off as usize,
                len: len as usize,
            });
        }
        Ok(v)
    }

    fn store_text(&self, mem: &mut Mem, v: &ArenaVec<u8>) -> MemResult<()> {
        v.store_handle(&mut mem.arena, G_TEXT_HANDLE)
    }

    /// The undo journal: one packed entry per edit —
    /// `[kind:8][pos:32][byte:8]` with kind 1 = insert, 2 = delete.
    fn undo_journal(&self, mem: &Mem) -> MemResult<ArenaVec<u64>> {
        ArenaVec::load_handle(&mem.arena, G_UNDO_HANDLE)
    }

    fn journal_push(&self, sys: &mut dyn SysMem, kind: u8, pos: usize, byte: u8) -> MemResult<()> {
        let mut j = self.undo_journal(sys.mem())?;
        let entry = ((kind as u64) << 40) | ((pos as u64 & 0xFFFF_FFFF) << 8) | byte as u64;
        let m = sys.mem();
        j.push(&mut m.arena, &mut m.alloc, entry)?;
        j.store_handle(&mut m.arena, G_UNDO_HANDLE)
    }

    /// Reverts the journal's last edit, if any.
    fn undo_last(&self, sys: &mut dyn SysMem) -> MemResult<()> {
        let mut j = self.undo_journal(sys.mem())?;
        let Some(entry) = j.pop(&sys.mem().arena)? else {
            return Ok(());
        };
        {
            let m = sys.mem();
            j.store_handle(&mut m.arena, G_UNDO_HANDLE)?;
        }
        let kind = (entry >> 40) as u8;
        let pos = ((entry >> 8) & 0xFFFF_FFFF) as usize;
        let byte = entry as u8;
        let mut text = self.text(sys.mem())?;
        match kind {
            // Undo an insert: remove the byte it added.
            1 => {
                let m = sys.mem();
                text.remove(&mut m.arena, pos)?;
                self.store_text(m, &text)?;
                G_CURSOR.set(&mut m.arena, (pos.min(text.len())) as u64)?;
            }
            // Undo a delete: put the byte back.
            2 => {
                let m = sys.mem();
                text.insert(&mut m.arena, &mut m.alloc, pos, byte)?;
                self.store_text(m, &text)?;
                G_CURSOR.set(&mut m.arena, (pos + 1) as u64)?;
            }
            _ => return Err(MemFault::InvariantViolated { check: 12 }),
        }
        Ok(())
    }

    /// The per-keystroke stack frame (renderer locals): cursor and staged
    /// key copies at the bottom of the stack region.
    fn frame(&self, mem: &Mem) -> (ArenaCell<u64>, ArenaCell<u64>) {
        let base = mem.arena.region_range(ft_mem::Region::Stack).start;
        (ArenaCell::at(base), ArenaCell::at(base + 8))
    }

    /// §2.6 consistency check: guard bands intact, cursor in bounds.
    fn consistency_check(&self, mem: &Mem) -> MemResult<()> {
        let text = self.text(mem)?;
        let cursor = G_CURSOR.get(&mem.arena)?;
        if cursor as usize > text.len() {
            return Err(MemFault::InvariantViolated { check: 1 });
        }
        mem.alloc.check_integrity(&mem.arena)
    }
}

impl Default for Editor {
    fn default() -> Self {
        Editor::new()
    }
}

impl App for Editor {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        match G_PHASE.get(&sys.mem().arena)? {
            P_INIT => {
                if G_INIT.get(&sys.mem().arena)? == 0 {
                    let m = sys.mem();
                    let text = m.new_vec::<u8>(256)?;
                    text.store_handle(&mut m.arena, G_TEXT_HANDLE)?;
                    let status = m.alloc.alloc(&mut m.arena, STATUS_LEN)?;
                    G_STATUS_OFF.set(&mut m.arena, status as u64)?;
                    let journal = ArenaVec::<u64>::with_capacity(&mut m.arena, &mut m.alloc, 16)?;
                    journal.store_handle(&mut m.arena, G_UNDO_HANDLE)?;
                    G_INIT.set(&mut m.arena, 1)?;
                }
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_AWAIT => {
                if let Some(bytes) = sys.read_input() {
                    let key = bytes.first().copied().unwrap_or(b' ') as u64;
                    // Editing work before the echo.
                    sys.compute(30 * US);
                    let next = match key as u8 {
                        b'!' => P_SAVE_OPEN,
                        b'@' => P_CLOCK,
                        _ => P_ECHO,
                    };
                    let staged_off = self.faults.dest(S_STAGE_DEST, G_STAGED.offset(), sys);
                    // An uninitialized staging variable holds stack garbage
                    // wider than any keystroke.
                    let stored = if self.faults.skip_init(S_STAGE_INIT, sys) {
                        0x100 + key.wrapping_mul(193)
                    } else {
                        key
                    };
                    {
                        let (f_cursor, f_staged) = self.frame(sys.mem());
                        let m = sys.mem();
                        m.arena.write_pod(staged_off, stored)?;
                        // Spill the renderer locals to the stack frame.
                        let cur = G_CURSOR.get(&m.arena)?;
                        f_cursor.set(&mut m.arena, cur)?;
                        f_staged.set(&mut m.arena, stored)?;
                        let n_keys = G_KEYS.get(&m.arena)? + 1;
                        G_KEYS.set(&mut m.arena, n_keys)?;
                        G_PHASE.set(&mut m.arena, next)?;
                    }
                    // A bug may corrupt memory while handling the key.
                    self.faults.maybe_flip(S_KEY, sys);
                    // Keystrokes are single bytes; anything wider is garbage
                    // and trips the dispatcher immediately.
                    if stored > 0xFF {
                        return Err(MemFault::InvariantViolated { check: 10 });
                    }
                    if self.eager_checks {
                        sys.compute(8 * US);
                        self.consistency_check(sys.mem())?;
                    }
                    Ok(AppStatus::Running)
                } else if sys.input_exhausted() {
                    G_PHASE.set(&mut sys.mem().arena, P_DONE)?;
                    Ok(AppStatus::Running)
                } else {
                    Ok(AppStatus::Blocked(WaitCond::input()))
                }
            }
            P_ECHO => {
                // Render the echo, then apply the key. The visible comes
                // first (the terminal write); buffer mutations follow —
                // one event syscall per step, all mutations after it.
                let (f_cursor, f_staged) = self.frame(sys.mem());
                let staged_local = f_staged.get(&sys.mem().arena)?;
                let cursor_local = f_cursor.get(&sys.mem().arena)? as usize;
                let text_len = self.text(sys.mem())?.len();
                // The renderer chokes on a garbage local at once — before
                // any output reaches the screen.
                if staged_local > 0xFF {
                    return Err(MemFault::InvariantViolated { check: 11 });
                }
                let keys = G_KEYS.get(&sys.mem().arena)?;
                sys.visible(echo_token(staged_local as u8, cursor_local, text_len, keys));

                // Post-echo: update the status line and apply the key using
                // the authoritative globals.
                let status_off = G_STATUS_OFF.get(&sys.mem().arena)? as usize;
                let pos = (keys % (STATUS_LEN as u64 + 8)) as usize;
                // The bounds check a DeleteBranch fault removes: without
                // it, out-of-range positions smash the buffer's tail guard
                // (the Figure 5 overflow), silent until the next save.
                if self.faults.branch(S_STATUS_BOUND, pos < STATUS_LEN, sys) {
                    let m = sys.mem();
                    m.arena.write(status_off + pos, &[staged_local as u8])?;
                }

                let key = G_STAGED.get(&sys.mem().arena)? as u8;
                // A corrupted keystroke (kernel propagation failure): the
                // byte indexes a dispatch table it overruns.
                if key >= 0x80 {
                    return Err(MemFault::InvariantViolated { check: 9 });
                }
                let cursor = G_CURSOR.get(&sys.mem().arena)? as usize;
                let mut text = self.text(sys.mem())?;
                // A pending search consumes this key as its target: jump
                // the cursor to the next occurrence after the cursor.
                if G_MODE.get(&sys.mem().arena)? == 1 {
                    let len = text.len();
                    let mut found = None;
                    for i in cursor + 1..len {
                        if text.get(&sys.mem().arena, i)? == key {
                            found = Some(i);
                            break;
                        }
                    }
                    // Scanning is real work.
                    sys.compute((len.saturating_sub(cursor)) as u64 / 4 * US + US);
                    let m = sys.mem();
                    if let Some(i) = found {
                        G_CURSOR.set(&mut m.arena, i as u64)?;
                    }
                    G_MODE.set(&mut m.arena, 0)?;
                    G_PHASE.set(&mut m.arena, P_AWAIT)?;
                    return Ok(AppStatus::Running);
                }
                match key {
                    b'/' => {
                        G_MODE.set(&mut sys.mem().arena, 1)?;
                    }
                    b'<' => {
                        let m = sys.mem();
                        G_CURSOR.set(&mut m.arena, cursor.saturating_sub(1) as u64)?;
                    }
                    b'>' => {
                        let c = (cursor + 1).min(text.len());
                        G_CURSOR.set(&mut sys.mem().arena, c as u64)?;
                    }
                    b'#' => {
                        if cursor > 0 {
                            let removed;
                            {
                                let m = sys.mem();
                                removed = text.remove(&mut m.arena, cursor - 1)?;
                                self.store_text(m, &text)?;
                                G_CURSOR.set(&mut m.arena, (cursor - 1) as u64)?;
                            }
                            self.journal_push(sys, 2, cursor - 1, removed)?;
                        }
                    }
                    b'u' => {
                        self.undo_last(sys)?;
                    }
                    _ => {
                        let at = self.faults.bound(S_INSERT_IDX, cursor, sys);
                        {
                            let m = sys.mem();
                            text.insert(&mut m.arena, &mut m.alloc, at, key)?;
                        }
                        // The handle writeback a DeleteInstruction fault
                        // skips: the stale length lets the cursor outrun
                        // the buffer.
                        if !self.faults.deleted(S_STORE_BACK, sys) {
                            self.store_text(sys.mem(), &text)?;
                        }
                        G_CURSOR.set(&mut sys.mem().arena, (cursor + 1) as u64)?;
                        self.journal_push(sys, 1, at, key)?;
                    }
                }
                G_PHASE.set(&mut sys.mem().arena, P_AWAIT)?;
                if self.eager_checks {
                    sys.compute(8 * US);
                    self.consistency_check(sys.mem())?;
                }
                Ok(AppStatus::Running)
            }
            P_CLOCK => {
                // Status-line clock: a transient nd event.
                let t = sys.gettimeofday();
                let m = sys.mem();
                G_CLOCK.set(&mut m.arena, t)?;
                G_PHASE.set(&mut m.arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            P_SAVE_OPEN => {
                let fd = sys
                    .open("buffer.txt")
                    .map_err(|_| MemFault::InvariantViolated { check: 2 })?;
                let m = sys.mem();
                G_FD.set(&mut m.arena, fd as u64)?;
                G_PHASE.set(&mut m.arena, P_SAVE_WRITE)?;
                Ok(AppStatus::Running)
            }
            P_SAVE_WRITE => {
                // Saving always runs the §2.6 integrity walk — heap
                // corruption is detected here, possibly long after the
                // fault activated.
                self.consistency_check(sys.mem())?;
                let text = self.text(sys.mem())?;
                let buf = text.to_vec(&sys.mem().arena)?;
                let fd = G_FD.get(&sys.mem().arena)? as u32;
                sys.write_file(fd, &buf)
                    .map_err(|_| MemFault::InvariantViolated { check: 3 })?;
                G_PHASE.set(&mut sys.mem().arena, P_SAVE_CLOSE)?;
                Ok(AppStatus::Running)
            }
            P_SAVE_CLOSE => {
                let fd = G_FD.get(&sys.mem().arena)? as u32;
                let _ = sys.close(fd);
                let m = sys.mem();
                let n_saves = G_SAVES.get(&m.arena)? + 1;
                G_SAVES.set(&mut m.arena, n_saves)?;
                G_PHASE.set(&mut m.arena, P_AWAIT)?;
                Ok(AppStatus::Running)
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        Layout {
            globals_pages: 1,
            stack_pages: 4,
            heap_pages: 32,
        }
    }

    fn on_recovered(&mut self) {
        // §4.1 end-to-end check: the fault does not re-activate during the
        // post-recovery re-execution.
        self.faults.suppressed = true;
    }

    fn arm_fault(&mut self, plan: FaultPlan, seed: u64) -> bool {
        self.faults = FaultInjector::armed(plan, seed ^ 0xFA);
        true
    }
}

/// The screen-update token for a keystroke (identifies the visible
/// content).
fn echo_token(key: u8, cursor: usize, len: usize, keys: u64) -> u64 {
    crate::fold_words(
        ft_mem::FNV_OFFSET,
        &[key as u64, cursor as u64, len as u64, keys],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::editor_script;
    use ft_core::event::{EventKind, NdClass, ProcessId};
    use ft_sim::harness::run_plain_on;
    use ft_sim::sim::{SimConfig, Simulator};
    use ft_sim::MS;

    fn run_keys(keys: &[u8]) -> ft_sim::harness::PlainReport {
        let mut sim = Simulator::new(SimConfig::single_node(1, 1));
        let script = ft_sim::script::InputScript::evenly_spaced(0, MS, keys.iter().map(|&k| [k]));
        sim.set_input_script(ProcessId(0), script);
        let mut apps: Vec<Box<dyn App>> = vec![Box::new(Editor::new())];
        run_plain_on(sim, &mut apps)
    }

    #[test]
    fn typing_echoes_every_key() {
        let report = run_keys(b"hello world");
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 11);
    }

    #[test]
    fn cursor_movement_and_delete() {
        // Type "ab", move left, delete (removes 'a'), type 'c'.
        let report = run_keys(b"ab<#c");
        assert!(report.all_done);
        assert_eq!(report.visibles.len(), 5);
    }

    #[test]
    fn save_writes_the_buffer_to_the_kernel_file() {
        let report = run_keys(b"hi!");
        assert!(report.all_done);
        // Saves do not echo; 2 keystroke echoes only.
        assert_eq!(report.visibles.len(), 2);
    }

    #[test]
    fn clock_key_is_transient_nd() {
        let report = run_keys(b"a@b");
        assert!(report.all_done);
        let transient = report
            .trace
            .iter()
            .filter(|e| {
                e.is_effectively_nd()
                    && !matches!(
                        e.kind,
                        EventKind::NonDeterministic {
                            class: NdClass::Fixed,
                            ..
                        }
                    )
            })
            .count();
        assert_eq!(transient, 1);
    }

    #[test]
    fn generated_session_runs_clean() {
        let keys = editor_script(500, 42);
        let report = run_keys(&keys);
        assert!(report.all_done);
        assert!(report.visibles.len() > 400);
    }

    #[test]
    fn delete_at_origin_is_a_noop() {
        let report = run_keys(b"#a");
        assert!(report.all_done);
    }

    #[test]
    fn undo_reverts_inserts_and_deletes() {
        // "abc", undo the 'c' insert → "ab"; save.
        let report = run_keys(b"abcu!");
        assert!(report.all_done);
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"ab"[..])
        );
        // "ab", delete 'b', undo the delete → "ab"; save.
        let report = run_keys(b"ab#u!");
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"ab"[..])
        );
        // Undo with nothing journaled is a no-op.
        let report = run_keys(b"u!");
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b""[..])
        );
    }

    #[test]
    fn undo_chain_unwinds_a_session() {
        // Type 4 chars then undo all 4: empty buffer.
        let report = run_keys(b"wxyzuuuu!");
        assert!(report.all_done);
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b""[..])
        );
    }

    #[test]
    fn search_jumps_to_the_next_occurrence() {
        // "abcabc", cursor at end (6); '<'×6 puts it at 0; '/c' jumps to
        // index 2; then 'x' inserts there: "abxcabc".
        let report = run_keys(b"abcabc<<<<<</cx!");
        assert!(report.all_done);
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"abxcabc"[..])
        );
    }

    #[test]
    fn failed_search_leaves_the_cursor() {
        let report = run_keys(b"ab<</zx!");
        assert!(report.all_done);
        // 'z' not found after cursor 0: 'x' inserts at 0 → "xab".
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"xab"[..])
        );
    }

    #[test]
    fn saved_file_matches_the_edited_text() {
        // 'a' 'b' → "ab"; '<' back; '#' deletes 'a' → "b"; 'c' at front →
        // "cb"; '!' saves.
        let report = run_keys(b"ab<#c!");
        assert!(report.all_done);
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"cb"[..])
        );
    }

    #[test]
    fn repeated_saves_append_versions() {
        let report = run_keys(b"x!y!");
        assert!(report.all_done);
        // Appending writes: first save "x", second "xy".
        assert_eq!(
            report.files.get("buffer.txt").map(Vec::as_slice),
            Some(&b"xxy"[..])
        );
    }
}
