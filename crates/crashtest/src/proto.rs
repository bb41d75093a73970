//! The child→parent line protocol.
//!
//! The child writes one line per protocol step to its stdout (a pipe the
//! parent reads). Rust's stdout is line-buffered, and every line is
//! shorter than the pipe's atomic-write threshold, so each line reaches
//! the parent whole — and because the parent only delivers `SIGKILL`
//! while the child is self-suspended *after* flushing `READY`, the
//! stream the parent reads is never torn mid-line.

use std::fmt;

/// One protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Line {
    /// First line of every incarnation: the recovery outcome (all zeros
    /// for a fresh store).
    Resume {
        /// Recovered commit sequence number.
        seq: u64,
        /// Whether a checkpoint image seeded the arena.
        used_checkpoint: bool,
        /// Redo records replayed.
        replayed: u64,
        /// Records skipped as covered by the checkpoint.
        skipped: u64,
        /// Torn-tail bytes truncated.
        truncated: u64,
    },
    /// Op `i`'s non-deterministic draw happened.
    Nd {
        /// The op index.
        op: u64,
    },
    /// Op `i` committed durably (sequence number after the commit).
    Commit {
        /// The op index.
        op: u64,
        /// The store sequence number the commit produced.
        seq: u64,
    },
    /// Op `i`'s visible output.
    Visible {
        /// The op index.
        op: u64,
        /// The emitted token.
        token: u64,
    },
    /// The child reached its kill point and is self-suspended.
    Ready,
    /// Clean completion: final sequence number and state digest.
    Done {
        /// Final commit sequence number.
        seq: u64,
        /// Final arena state digest.
        digest: u64,
    },
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Line::Resume {
                seq,
                used_checkpoint,
                replayed,
                skipped,
                truncated,
            } => write!(
                f,
                "R {seq} {} {replayed} {skipped} {truncated}",
                u8::from(*used_checkpoint)
            ),
            Line::Nd { op } => write!(f, "N {op}"),
            Line::Commit { op, seq } => write!(f, "C {op} {seq}"),
            Line::Visible { op, token } => write!(f, "V {op} {token}"),
            Line::Ready => write!(f, "READY"),
            Line::Done { seq, digest } => write!(f, "DONE {seq} {digest}"),
        }
    }
}

impl Line {
    /// Parses one protocol line: exactly what [`fmt::Display`] writes, so a
    /// trailing token or a checkpoint flag other than 0/1 is malformed.
    pub(crate) fn parse(s: &str) -> Result<Line, String> {
        let mut it = s.split_whitespace();
        let bad = || format!("malformed protocol line {s:?}");
        let num = |it: &mut std::str::SplitWhitespace<'_>| -> Result<u64, String> {
            it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)
        };
        let line = match it.next() {
            Some("R") => Line::Resume {
                seq: num(&mut it)?,
                used_checkpoint: match num(&mut it)? {
                    0 => false,
                    1 => true,
                    _ => return Err(bad()),
                },
                replayed: num(&mut it)?,
                skipped: num(&mut it)?,
                truncated: num(&mut it)?,
            },
            Some("N") => Line::Nd { op: num(&mut it)? },
            Some("C") => Line::Commit {
                op: num(&mut it)?,
                seq: num(&mut it)?,
            },
            Some("V") => Line::Visible {
                op: num(&mut it)?,
                token: num(&mut it)?,
            },
            Some("READY") => Line::Ready,
            Some("DONE") => Line::Done {
                seq: num(&mut it)?,
                digest: num(&mut it)?,
            },
            _ => return Err(bad()),
        };
        it.next().map_or(Ok(line), |_| Err(bad()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let lines = [
            Line::Resume {
                seq: 5,
                used_checkpoint: true,
                replayed: 3,
                skipped: 2,
                truncated: 17,
            },
            Line::Nd { op: 4 },
            Line::Commit { op: 4, seq: 5 },
            Line::Visible { op: 4, token: 99 },
            Line::Ready,
            Line::Done {
                seq: 12,
                digest: u64::MAX,
            },
        ];
        for l in lines {
            assert_eq!(Line::parse(&l.to_string()).unwrap(), l);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Line::parse("").is_err());
        assert!(Line::parse("X 1").is_err());
        assert!(Line::parse("C 4").is_err());
        assert!(Line::parse("V 4 not-a-number").is_err());
        // What the child never writes: a trailing token, a flag not 0/1.
        assert!(Line::parse("C 4 5 6").is_err());
        assert!(Line::parse("READY 1").is_err());
        assert!(Line::parse("R 0 2 0 0 0").is_err());
        assert!(Line::parse("R 0 1 0 0 0").is_ok());
    }
}
