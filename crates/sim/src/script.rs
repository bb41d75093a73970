//! Scripted user input and signal schedules.
//!
//! Interactive sessions are driven by timed input scripts — "we simulate
//! fast interactive rates by delaying 100 ms between each keystroke in nvi
//! and by delaying 1 second between each mouse-generated command in magic"
//! (§3). Input *values* are fixed non-determinism: after a failure the user
//! retypes the same thing, which the script models by letting its cursor be
//! rolled back.

use crate::cost::SimTime;
use crate::syscalls::Payload;

/// A timed user-input script.
///
/// Two pacing modes: *absolute* scripts pin each input to a wall-clock
/// time; *relative* scripts (the paper's "delaying 100 ms between each
/// keystroke") make each input due a fixed think time after the previous
/// one was consumed — so recovery-runtime overhead lengthens the session
/// instead of hiding inside idle time.
///
/// Each item is a [`Payload`], so a keystroke or a command is held in
/// place and taking it, corrupting the taken copy and committing it as a
/// pending value copy bytes, never allocate.
#[derive(Debug, Clone, Default)]
pub struct InputScript {
    items: Vec<(SimTime, Payload)>,
    cursor: usize,
    /// Relative mode: item times are think-time delays, armed when the
    /// application first polls after handling the previous input (i.e. the
    /// user starts thinking when the response appears).
    relative: bool,
    armed: Option<SimTime>,
}

impl InputScript {
    /// Creates an absolute script from (due time, bytes) pairs; times must
    /// be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if times decrease.
    pub fn new<T: Into<Payload>>(items: impl IntoIterator<Item = (SimTime, T)>) -> Self {
        let items: Vec<(SimTime, Payload)> =
            items.into_iter().map(|(t, b)| (t, b.into())).collect();
        assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "input script times must be non-decreasing"
        );
        InputScript {
            items,
            cursor: 0,
            relative: false,
            armed: None,
        }
    }

    /// Builds an absolute script delivering `tokens` at a fixed `interval`,
    /// starting at `start`.
    pub fn evenly_spaced<T: Into<Payload>>(
        start: SimTime,
        interval: SimTime,
        tokens: impl IntoIterator<Item = T>,
    ) -> Self {
        InputScript::new((0..).zip(tokens).map(|(i, t)| (start + interval * i, t)))
    }

    /// Builds a relative script: each token becomes due `think` after the
    /// previous token was consumed (the §3 interactive pacing).
    pub fn think_time<T: Into<Payload>>(
        think: SimTime,
        tokens: impl IntoIterator<Item = T>,
    ) -> Self {
        InputScript {
            items: tokens.into_iter().map(|t| (think, t.into())).collect(),
            cursor: 0,
            relative: true,
            armed: None,
        }
    }

    /// Takes the next input if it is due at `now`. In relative mode the
    /// first poll after the previous input *arms* the next one (`now +
    /// think`) and returns `None`; block on input and retry.
    pub fn take_due(&mut self, now: SimTime) -> Option<Payload> {
        let (delay, _) = self.items.get(self.cursor)?;
        let due = if self.relative {
            match self.armed {
                Some(d) => d,
                None => {
                    self.armed = Some(now + delay);
                    return None;
                }
            }
        } else {
            *delay
        };
        if due <= now {
            let bytes = self.items[self.cursor].1.clone();
            self.cursor += 1;
            self.armed = None;
            Some(bytes)
        } else {
            None
        }
    }

    /// Time of the next pending input (in relative mode, only known once
    /// armed by a poll).
    pub fn next_time(&self) -> Option<SimTime> {
        let (t, _) = self.items.get(self.cursor)?;
        Some(if self.relative { self.armed? } else { *t })
    }

    /// True when all input has been consumed.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.items.len()
    }

    /// Current cursor (for checkpointing).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Rolls the cursor back (recovery: the user "retypes" the lost input —
    /// fixed non-determinism re-resolves identically, at typing speed).
    pub fn set_cursor(&mut self, cursor: usize) {
        assert!(cursor <= self.items.len(), "cursor beyond script");
        self.cursor = cursor;
        self.armed = None;
    }

    /// Total number of scripted inputs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the script has no items at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A schedule of asynchronous signals.
#[derive(Debug, Clone, Default)]
pub struct SignalSchedule {
    items: Vec<(SimTime, u32)>,
    cursor: usize,
}

impl SignalSchedule {
    /// Creates a schedule from (time, signo) pairs; times must be
    /// non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if times decrease.
    pub fn new(items: Vec<(SimTime, u32)>) -> Self {
        assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "signal times must be non-decreasing"
        );
        SignalSchedule { items, cursor: 0 }
    }

    /// Takes the next signal if due.
    pub fn take_due(&mut self, now: SimTime) -> Option<u32> {
        let (t, signo) = self.items.get(self.cursor)?;
        if *t <= now {
            self.cursor += 1;
            Some(*signo)
        } else {
            None
        }
    }

    /// Delivery times (for scheduler wakeups).
    pub fn pending_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.items[self.cursor..].iter().map(|(t, _)| *t)
    }

    /// Current cursor (for checkpointing).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Rolls the cursor back.
    pub fn set_cursor(&mut self, cursor: usize) {
        assert!(cursor <= self.items.len(), "cursor beyond schedule");
        self.cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_due_respects_time() {
        let mut s = InputScript::new(vec![(10, b"a".to_vec()), (20, b"b".to_vec())]);
        assert_eq!(s.take_due(5), None);
        assert_eq!(s.take_due(10).as_deref(), Some(&b"a"[..]));
        assert_eq!(s.take_due(15), None);
        assert_eq!(s.next_time(), Some(20));
        assert_eq!(s.take_due(25).as_deref(), Some(&b"b"[..]));
        assert!(s.exhausted());
        assert_eq!(s.take_due(100), None);
    }

    #[test]
    fn evenly_spaced_builds_correct_times() {
        let s =
            InputScript::evenly_spaced(100, 50, vec![b"x".to_vec(), b"y".to_vec(), b"z".to_vec()]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.next_time(), Some(100));
    }

    #[test]
    fn relative_script_arms_on_poll_then_delivers() {
        let mut s = InputScript::think_time(100, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(s.next_time(), None, "unarmed until the first poll");
        assert_eq!(s.take_due(50), None); // Arms at 50 → due 150.
        assert_eq!(s.next_time(), Some(150));
        assert_eq!(s.take_due(100), None);
        assert_eq!(s.take_due(150).as_deref(), Some(&b"a"[..]));
        // The app responds, then polls again at 180: due 280.
        assert_eq!(s.take_due(180), None);
        assert_eq!(s.next_time(), Some(280));
        assert_eq!(s.take_due(280).as_deref(), Some(&b"b"[..]));
        assert!(s.exhausted());
    }

    #[test]
    fn cursor_rollback_replays_input() {
        let mut s = InputScript::new(vec![(0, b"a".to_vec()), (1, b"b".to_vec())]);
        s.take_due(10);
        s.take_due(10);
        assert!(s.exhausted());
        let saved = 1;
        s.set_cursor(saved);
        assert_eq!(
            s.take_due(10).as_deref(),
            Some(&b"b"[..]),
            "the user retypes"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_times_rejected() {
        InputScript::new(vec![(10, []), (5, [])]);
    }

    #[test]
    fn signal_schedule_works() {
        let mut s = SignalSchedule::new(vec![(10, 14), (30, 2)]);
        assert_eq!(s.take_due(9), None);
        assert_eq!(s.take_due(10), Some(14));
        assert_eq!(s.pending_times().collect::<Vec<_>>(), vec![30]);
        assert_eq!(s.cursor(), 1);
        s.set_cursor(0);
        assert_eq!(s.take_due(10), Some(14));
    }
}
