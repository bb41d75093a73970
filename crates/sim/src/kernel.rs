//! The simulated per-node operating system kernel.
//!
//! Holds the state the paper's OS-fault study stresses: an open-file table
//! of fixed size (whose occupancy makes `open` a *fixed* non-deterministic
//! event), a buffer-cache filesystem with finite free space (making `write`
//! fixed non-deterministic), and the fault-injection hooks of §4.2 — a
//! kernel fault either panics the node immediately (a stop failure) or
//! corrupts the next few syscall results seen by applications before
//! panicking (a propagation failure).
//!
//! The recovery runtime snapshots a kernel at every commit, so a snapshot
//! costs what is open, not what could be: descriptors and snapshots name
//! a file by its index in creation order (the filesystem is append-only),
//! and a [`KernelSnapshot`] is the open slots, one length per file and the
//! scalars — no table copy, no file name.

use std::collections::HashMap;

use crate::rng::SplitMix64;

use crate::syscalls::{SysError, SysResult};

/// An open-file-table entry: which file (an index into [`Kernel::files`])
/// and the read position in it.
#[derive(Debug, Clone, Copy)]
struct OpenFile {
    file: usize,
    pos: usize,
}

/// A file of the buffer-cache filesystem.
#[derive(Debug, Clone)]
struct File {
    name: String,
    data: Vec<u8>,
}

/// A simulated kernel instance (one per node).
#[derive(Debug, Clone)]
pub struct Kernel {
    table: Vec<Option<OpenFile>>,
    /// Occupied slots of `table`, so a snapshot stops scanning at the last
    /// open descriptor (at once when there is none).
    n_open: usize,
    /// Every file ever created, in creation order. Nothing deletes a file
    /// and `write` only appends, so a file's index is stable for the life
    /// of the kernel: descriptors and snapshots refer to files by index,
    /// and "the files that existed at a snapshot" is a prefix of this list.
    /// Looked up by name only in `open` (a scan: workloads keep a handful
    /// of files).
    files: Vec<File>,
    disk_free: u64,
    /// Propagation-fault state: from `start` onward, corrupt the next
    /// `remaining` syscall results, then panic.
    corrupt_plan: Option<(u64, u32)>,
    /// The kernel has halted; every syscall fails and the node's processes
    /// stop.
    panicked: bool,
    rng: SplitMix64,
}

impl Kernel {
    /// Creates a kernel with `table_size` open-file slots and `disk_free`
    /// bytes of disk.
    pub fn new(table_size: usize, disk_free: u64, seed: u64) -> Self {
        Kernel {
            table: vec![None; table_size],
            n_open: 0,
            files: Vec::new(),
            disk_free,
            corrupt_plan: None,
            panicked: false,
            rng: SplitMix64::new(seed),
        }
    }

    /// Has the kernel panicked?
    pub fn panicked(&self) -> bool {
        self.panicked
    }

    /// Remaining disk space.
    pub fn disk_free(&self) -> u64 {
        self.disk_free
    }

    /// Halts the kernel immediately (a stop failure for the whole node).
    pub fn panic_now(&mut self) {
        self.panicked = true;
    }

    /// Arms a propagation failure that begins at simulated time `start`:
    /// from then on the next `n` syscall results are corrupted, then the
    /// kernel panics of its own corruption. Whether the application catches
    /// any corrupted result before the node dies depends entirely on its
    /// syscall *rate* — the §4.2 mechanism.
    pub fn arm_corruption(&mut self, start: u64, n: u32) {
        self.corrupt_plan = Some((start, n));
    }

    /// Is the kernel currently or prospectively corrupting results?
    pub fn corrupting(&self) -> bool {
        self.corrupt_plan.is_some()
    }

    /// Clears any armed corruption and the panic flag — what a reboot does
    /// to an in-memory kernel bug.
    pub fn reboot(&mut self) {
        self.corrupt_plan = None;
        self.panicked = false;
    }

    /// Called by the syscall layer on every serviced call; returns true if
    /// this call's result must be corrupted. Decrements the corruption
    /// budget and panics the kernel when it runs out.
    pub fn tick_corruption(&mut self, now: u64) -> bool {
        match self.corrupt_plan {
            Some((start, _)) if now < start => false,
            None => false,
            Some((_, 0)) => {
                self.corrupt_plan = None;
                self.panicked = true;
                false
            }
            Some((start, n)) => {
                self.corrupt_plan = Some((start, n - 1));
                true
            }
        }
    }

    /// Corrupts a byte buffer in place (used when
    /// [`Kernel::tick_corruption`] fired).
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let i = self.rng.index(bytes.len());
        let bit = self.rng.below(8);
        bytes[i] ^= 1 << bit;
    }

    /// Corrupts a scalar value.
    pub fn corrupt_u64(&mut self, v: u64) -> u64 {
        v ^ (1 << self.rng.below(64))
    }

    fn guard(&self) -> SysResult<()> {
        if self.panicked {
            Err(SysError::KernelPanic)
        } else {
            Ok(())
        }
    }

    /// Opens (creating if absent) `name`, returning a descriptor.
    pub fn open(&mut self, name: &str) -> SysResult<u32> {
        self.guard()?;
        let slot = self
            .table
            .iter()
            .position(Option::is_none)
            .ok_or(SysError::TableFull)?;
        let file = match self.files.iter().position(|f| f.name == name) {
            Some(i) => i,
            None => {
                self.files.push(File {
                    name: name.to_string(),
                    data: Vec::new(),
                });
                self.files.len() - 1
            }
        };
        self.table[slot] = Some(OpenFile { file, pos: 0 });
        self.n_open += 1;
        Ok(u32::try_from(slot).expect("fd table is tiny"))
    }

    /// Appends to the file behind `fd`.
    pub fn write(&mut self, fd: u32, bytes: &[u8]) -> SysResult<()> {
        self.guard()?;
        let entry = self
            .table
            .get(fd as usize)
            .and_then(Option::as_ref)
            .ok_or(SysError::BadFd)?;
        if (bytes.len() as u64) > self.disk_free {
            return Err(SysError::NoSpace);
        }
        self.disk_free -= bytes.len() as u64;
        self.files[entry.file].data.extend_from_slice(bytes);
        Ok(())
    }

    /// Reads up to `len` bytes from the current position.
    pub fn read(&mut self, fd: u32, len: usize) -> SysResult<Vec<u8>> {
        self.guard()?;
        let entry = self
            .table
            .get_mut(fd as usize)
            .and_then(Option::as_mut)
            .ok_or(SysError::BadFd)?;
        let data = &self.files[entry.file].data;
        let start = entry.pos.min(data.len());
        let end = (start + len).min(data.len());
        entry.pos = end;
        Ok(data[start..end].to_vec())
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: u32) -> SysResult<()> {
        self.guard()?;
        let slot = self.table.get_mut(fd as usize).ok_or(SysError::BadFd)?;
        if slot.is_none() {
            return Err(SysError::BadFd);
        }
        *slot = None;
        self.n_open -= 1;
        Ok(())
    }

    /// Number of free open-file slots.
    #[cfg(test)]
    fn free_slots(&self) -> usize {
        self.table.len() - self.n_open
    }

    /// Reads a whole file's contents.
    #[cfg(test)]
    fn file_contents(&self, name: &str) -> Option<&[u8]> {
        let file = self.files.iter().find(|f| f.name == name)?;
        Some(&file.data)
    }

    /// Clones the whole filesystem (test/inspection helper).
    pub fn files_snapshot(&self) -> HashMap<String, Vec<u8>> {
        self.files
            .iter()
            .map(|f| (f.name.clone(), f.data.clone()))
            .collect()
    }

    /// Takes a restorable snapshot. See [`KernelSnapshot`].
    pub fn snapshot(&self) -> KernelSnapshot {
        let mut out = KernelSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// As [`Kernel::snapshot`], but reusing the caller's buffers — the
    /// commit hot path recycles the previous snapshot's allocations.
    pub fn snapshot_into(&self, out: &mut KernelSnapshot) {
        out.open.clear();
        out.open.extend(
            self.table
                .iter()
                .enumerate()
                .filter_map(|(slot, entry)| entry.map(|open| (slot, open)))
                .take(self.n_open),
        );
        out.file_lens.clear();
        out.file_lens
            .extend(self.files.iter().map(|f| f.data.len()));
        out.disk_free = self.disk_free;
        out.corrupt_plan = self.corrupt_plan;
        out.panicked = self.panicked;
        out.rng = self.rng;
    }

    /// Restores this kernel to a snapshot taken from it earlier: files
    /// created since are dropped, surviving files are truncated back to
    /// their snapshot length, and the scalar state (descriptor table,
    /// disk space, fault plan, rng) is copied back.
    pub fn restore(&mut self, snap: &KernelSnapshot) {
        self.table.fill(None);
        for &(slot, open) in &snap.open {
            self.table[slot] = Some(open);
        }
        self.n_open = snap.open.len();
        self.files.truncate(snap.file_lens.len());
        for (file, &len) in self.files.iter_mut().zip(&snap.file_lens) {
            file.data.truncate(len);
        }
        self.disk_free = snap.disk_free;
        self.corrupt_plan = snap.corrupt_plan;
        self.panicked = snap.panicked;
        self.rng = snap.rng;
    }
}

/// A cheap restorable kernel snapshot: the **open** descriptor slots and
/// every file's **length** plus the scalar kernel state, instead of a copy
/// of the descriptor table and of every file's name and bytes. A process
/// with no open files and no files snapshots in O(1).
///
/// Sound because the simulated filesystem is append-only — `write` only
/// extends and nothing ever deletes or rewrites a file — so rolling back
/// is truncating each surviving file to its snapshot length and dropping
/// files created since, which are exactly the files past the snapshot's
/// count (files are kept in creation order). The snapshot must be
/// restored onto the *same* kernel it was taken from (or a descendant of
/// it), and at most one restore point may be live per node: exactly the
/// [`Simulator::restore_kernel`](crate::sim::Simulator::restore_kernel)
/// single-process-per-node contract.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// `(slot, entry)` of every open descriptor, ascending by slot.
    open: Vec<(usize, OpenFile)>,
    /// Committed length of each file, by file index.
    file_lens: Vec<usize>,
    disk_free: u64,
    corrupt_plan: Option<(u64, u32)>,
    panicked: bool,
    rng: SplitMix64,
}

impl Default for KernelSnapshot {
    fn default() -> Self {
        KernelSnapshot {
            open: Vec::new(),
            file_lens: Vec::new(),
            disk_free: 0,
            corrupt_plan: None,
            panicked: false,
            rng: SplitMix64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> Kernel {
        Kernel::new(4, 1000, 42)
    }

    #[test]
    fn open_write_read_close() {
        let mut k = k();
        let fd = k.open("data").unwrap();
        k.write(fd, b"hello").unwrap();
        assert_eq!(k.read(fd, 5).unwrap(), b"hello");
        assert_eq!(k.read(fd, 5).unwrap(), b"");
        k.close(fd).unwrap();
        assert!(k.read(fd, 1).is_err());
        assert_eq!(k.file_contents("data").unwrap(), b"hello");
    }

    #[test]
    fn table_exhaustion_is_fixed_nd_outcome() {
        let mut k = k();
        for i in 0..4 {
            k.open(&format!("f{i}")).unwrap();
        }
        assert_eq!(k.free_slots(), 0);
        assert_eq!(k.open("f5"), Err(SysError::TableFull));
        k.close(0).unwrap();
        assert!(k.open("f5").is_ok());
    }

    #[test]
    fn disk_fullness_is_fixed_nd_outcome() {
        let mut k = Kernel::new(4, 10, 1);
        let fd = k.open("f").unwrap();
        k.write(fd, &[0; 8]).unwrap();
        assert_eq!(k.write(fd, &[0; 8]), Err(SysError::NoSpace));
        assert_eq!(k.disk_free(), 2);
        k.write(fd, &[0; 2]).unwrap();
        assert_eq!(k.disk_free(), 0);
    }

    #[test]
    fn panic_fails_everything() {
        let mut k = k();
        let fd = k.open("f").unwrap();
        k.panic_now();
        assert!(k.panicked());
        assert_eq!(k.open("g"), Err(SysError::KernelPanic));
        assert_eq!(k.write(fd, b"x"), Err(SysError::KernelPanic));
    }

    #[test]
    fn corruption_budget_then_panic() {
        let mut k = k();
        k.arm_corruption(0, 2);
        assert!(k.tick_corruption(0));
        assert!(k.tick_corruption(1));
        assert!(!k.tick_corruption(2)); // Budget exhausted → panic.
        assert!(k.panicked());
    }

    #[test]
    fn corrupt_zero_panics_without_corrupting() {
        let mut k = k();
        k.arm_corruption(0, 0);
        assert!(!k.tick_corruption(0));
        assert!(k.panicked());
    }

    #[test]
    fn armed_corruption_waits_for_its_start_time() {
        let mut k = k();
        k.arm_corruption(100, 1);
        assert!(!k.tick_corruption(50), "not started yet");
        assert!(k.tick_corruption(100));
        assert!(!k.tick_corruption(101));
        assert!(k.panicked());
    }

    #[test]
    fn corrupt_bytes_flips_exactly_one_bit() {
        let mut k = k();
        let mut buf = vec![0u8; 16];
        k.corrupt_bytes(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_ne!(k.corrupt_u64(0), 0);
    }

    #[test]
    fn restore_rebuilds_the_table_and_keeps_the_file_prefix() {
        let mut k = k();
        let a = k.open("a").unwrap();
        k.write(a, b"hello").unwrap();
        let b = k.open("b").unwrap();
        k.close(a).unwrap();
        let a = k.open("a").unwrap(); // Slot 0 again, position 0.
        assert_eq!(k.read(a, 2).unwrap(), b"he");
        let snap = k.snapshot();
        assert_eq!(snap.open.len(), 2);
        assert_eq!(snap.file_lens, [5, 0]);

        k.write(b, b"xyz").unwrap();
        k.read(a, 3).unwrap();
        k.close(b).unwrap();
        let c = k.open("c").unwrap();
        assert_eq!(c, b, "lowest free slot");
        k.write(c, b"new").unwrap();

        k.restore(&snap);
        assert_eq!(k.free_slots(), 2);
        assert_eq!(k.file_contents("a"), Some(&b"hello"[..]));
        assert_eq!(k.file_contents("b"), Some(&b""[..]));
        assert_eq!(k.file_contents("c"), None, "created since: dropped");
        assert_eq!(k.disk_free(), 995);
        assert_eq!(k.read(a, 9).unwrap(), b"llo", "position restored");
        k.write(b, b"!").unwrap();
        assert_eq!(k.file_contents("b"), Some(&b"!"[..]));
        assert_eq!(k.open("c").unwrap(), 2);
    }

    #[test]
    fn snapshot_records_open_slots_only() {
        let mut k = k();
        let empty = k.snapshot();
        assert!(empty.open.is_empty() && empty.file_lens.is_empty());
        let fd = k.open("f").unwrap();
        let snap = k.snapshot();
        assert_eq!(snap.open.len(), 1);
        k.close(fd).unwrap();
        k.restore(&snap);
        assert_eq!(k.free_slots(), 3);
        assert_eq!(k.close(fd), Ok(()));
        k.restore(&empty);
        assert_eq!(k.free_slots(), 4);
        assert_eq!(k.file_contents("f"), None);
    }
}
