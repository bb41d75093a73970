//! The DSM's message framing around `ft_mem::diff`.
//!
//! The checkpointing runtime treats payloads as opaque bytes; all that
//! matters is that encoding is deterministic (identical inputs yield
//! identical bytes, so resent messages deduplicate) and that decoding
//! rejects malformed payloads with a memory fault rather than panicking —
//! fault-injection campaigns corrupt message buffers on purpose.
//!
//! The diffs sections barrier, grant and release payloads carry are
//! `ft_mem::diff`'s, the codec the redo log shares; this module adds the
//! barrier message's `round: u64, from: u32` header. Integers are
//! little-endian.

use ft_mem::diff::{Diffs, Reader, MALFORMED};
use ft_mem::error::MemResult;

pub(crate) use decode::parse_diff_msg;

/// Bytes of a barrier message's `round: u64, from: u32` header.
pub(crate) const MSG_HEADER: usize = 12;

/// The header of a barrier diff message.
pub(crate) fn diff_msg_header(round: u64, from: u32) -> [u8; MSG_HEADER] {
    let mut h = [0; MSG_HEADER];
    h[..8].copy_from_slice(&round.to_le_bytes());
    h[8..].copy_from_slice(&from.to_le_bytes());
    h
}

/// Everything that reads a payload. A peer or a fault campaign chose these
/// bytes, so malformed input comes back as a memory fault; panics,
/// unchecked indexing and overflow do not compile here (DESIGN §15).
mod decode {
    #![deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::arithmetic_side_effects,
        clippy::disallowed_macros
    )]

    use super::*;

    /// Validates a barrier diff message and splits it into its
    /// `(round, from)` header and diffs section.
    pub(crate) fn parse_diff_msg(payload: &[u8]) -> MemResult<(u64, u32, Diffs<'_>)> {
        let mut r = Reader::new(payload);
        let round = r.u64()?;
        let from = r.u32()?;
        let diffs = Diffs::parse(payload.get(MSG_HEADER..).ok_or(MALFORMED)?)?;
        Ok((round, from, diffs))
    }
}

/// Diffs sections and barrier messages as plain values, for the DSM's
/// tests: written through `DiffWriter`, and read back by materializing
/// what the validated visitor streams. This is the code under test, not
/// an independent decoder; `ft_mem::diff`'s tests hold the validator and
/// visitor to a field-by-field reference decoder.
#[cfg(test)]
pub(crate) mod materialized {
    use super::*;
    use ft_mem::diff::{DiffEvent, DiffWriter};

    /// Byte runs that changed within one page.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct PageDiff {
        pub(crate) page: u32,
        pub(crate) runs: Vec<(u32, Vec<u8>)>,
    }

    /// A barrier diff message.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct DiffMsg {
        pub(crate) round: u64,
        pub(crate) from: u32,
        pub(crate) diffs: Vec<PageDiff>,
    }

    /// What [`Diffs::visit`] streams, materialized.
    fn visited(diffs: Diffs) -> MemResult<Vec<PageDiff>> {
        let mut out: Vec<PageDiff> = Vec::new();
        diffs.visit(&mut |ev| {
            match ev {
                DiffEvent::Page(page) => out.push(PageDiff {
                    page,
                    runs: Vec::new(),
                }),
                DiffEvent::Run(off, bytes) => out
                    .last_mut()
                    .expect("a run follows its page")
                    .runs
                    .push((off, bytes.to_vec())),
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Validates a bare diffs section and materializes it.
    pub(crate) fn materialize_diffs(payload: &[u8]) -> MemResult<Vec<PageDiff>> {
        visited(Diffs::parse(payload)?)
    }

    /// Validates a barrier diff message and materializes it.
    pub(crate) fn materialize_diff_msg(payload: &[u8]) -> MemResult<DiffMsg> {
        let (round, from, diffs) = parse_diff_msg(payload)?;
        Ok(DiffMsg {
            round,
            from,
            diffs: visited(diffs)?,
        })
    }

    /// Writes `diffs` after `header`, page for page and run for run.
    pub(crate) fn encode_diffs(header: &[u8], diffs: &[PageDiff]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = DiffWriter::new(&mut out, header);
        for d in diffs {
            w.page(d.page);
            for (off, run) in &d.runs {
                w.run(*off, run);
            }
        }
        out
    }

    /// Writes a barrier diff message.
    pub(crate) fn encode_diff_msg(msg: &DiffMsg) -> Vec<u8> {
        encode_diffs(&diff_msg_header(msg.round, msg.from), &msg.diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::materialized::*;
    use super::*;

    /// The header in front of the section, pinned: `round`, then `from`.
    #[test]
    fn diff_msg_roundtrips_behind_its_header() {
        let msg = DiffMsg {
            round: 7,
            from: 2,
            diffs: vec![PageDiff {
                page: 31,
                runs: vec![(9, vec![1, 2, 3])],
            }],
        };
        let bytes = encode_diff_msg(&msg);
        assert_eq!(bytes[..MSG_HEADER], [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(materialize_diff_msg(&bytes).unwrap(), msg);
        // Every cut through the header or the section is rejected.
        for cut in 0..bytes.len() {
            assert!(parse_diff_msg(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
