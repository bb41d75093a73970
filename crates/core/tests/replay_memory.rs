//! The transient memory of `ft_core::clock::replay`, gated as a bound.
//!
//! A send's clock snapshot lives only while its message is in flight, so
//! what a replay holds is set by the *peak* number of in-flight messages
//! and not by how many were ever sent, and it is as wide as the set of
//! process columns the replay derives. A counting global allocator tracks
//! live heap bytes, which is why this file holds exactly one `#[test]`: a
//! second test thread would allocate into the same counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ft_core::clock::replay;
use ft_core::event::ProcessId;
use ft_core::trace::{Trace, TraceBuilder};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    PEAK.fetch_max(LIVE.fetch_add(by, Relaxed) + by, Relaxed);
}

// SAFETY: delegates every call to `System` unchanged, only adding relaxed
// counter updates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block coexist while the contents are copied.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const WIDTH: usize = 108;
const PAIRS: usize = 10_000;
const IN_FLIGHT: usize = 8;

#[test]
fn replay_holds_snapshots_only_for_messages_in_flight() {
    // 10⁴ send→receive pairs, never more than eight of them in flight,
    // each followed by a send that nobody receives.
    let mut b = TraceBuilder::new(WIDTH);
    let mut in_flight = VecDeque::new();
    for i in 0..PAIRS {
        let from = ProcessId::from_index(i % WIDTH);
        let to = ProcessId::from_index((7 * i + 1) % WIDTH);
        let (_, msg) = b.send(from, to);
        in_flight.push_back((from, to, msg));
        b.send(from, to);
        if in_flight.len() == IN_FLIGHT {
            let (from, to, msg) = in_flight.pop_front().expect("eight in flight");
            b.recv(to, from, msg);
        }
    }
    for (from, to, msg) in in_flight {
        b.recv(to, from, msg);
    }
    let trace = b.finish();
    assert_eq!(trace.len(), 3 * PAIRS);

    // Every process, one column, and none: the matrices and the slots
    // are as wide as the column set.
    let all = trace.processes();
    for columns in [&all[..], &all[..1]] {
        let held = held_by_replay(&trace, columns);
        let word = std::mem::size_of::<u32>();
        let width = columns.len();
        let matrices = 2 * WIDTH * width * word;
        let slots = IN_FLIGHT * 2 * width * word;
        let column_of = WIDTH * std::mem::size_of::<Option<usize>>();
        // A receive count and a slot offset per message id.
        let per_message = 2 * PAIRS * (std::mem::size_of::<u32>() + std::mem::size_of::<usize>());
        // Slack: a growing `Vec` holds up to twice its length, and twice
        // that while it moves. One snapshot per send would be 2 × 10⁴ × 2
        // × 108 words ≈ 17 MB, one per received message half of that.
        let bound = matrices + column_of + 4 * (slots + per_message);
        assert!(
            held <= bound,
            "replay over {width} columns held {held} B at its peak; the bound is {bound} B"
        );
    }
    // With no column there is no clock to derive: no matrix, no snapshot
    // slot, no per-message table, only the recording-order cursor.
    let cursor = WIDTH * std::mem::size_of::<usize>();
    let held = held_by_replay(&trace, &[]);
    assert!(
        held <= cursor,
        "replay over no columns held {held} B; the cursor is {cursor} B"
    );
}

/// Peak live heap bytes a replay over `columns` adds.
fn held_by_replay(trace: &Trace, columns: &[ProcessId]) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut visited = 0;
    replay(trace, columns, |_, _, clocks| {
        visited += 1 + clocks.hb.iter().map(|&c| u64::from(c)).sum::<u64>();
    });
    let held = PEAK.load(Relaxed) - before;
    assert!(visited > 0);
    held
}
