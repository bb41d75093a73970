//! Flat little-endian wire codec for DSM messages.
//!
//! The checkpointing runtime treats payloads as opaque bytes; all that
//! matters is that encoding is deterministic (identical inputs yield
//! identical bytes, so resent messages deduplicate) and that decoding
//! rejects malformed payloads with a memory fault rather than panicking —
//! fault-injection campaigns corrupt message buffers on purpose.
//!
//! Layout: integers are little-endian; vectors are a `u32` count followed
//! by the elements.

use ft_mem::error::{MemFault, MemResult};

pub(crate) use decode::{parse_diff_msg, DiffEvent, Diffs, Reader};

const BAD: MemFault = MemFault::InvariantViolated { check: 0xD6 };

#[expect(
    clippy::cast_possible_truncation,
    reason = "runs are < DSM_PAGE bytes; the wire format stores lengths as u32 on purpose"
)]
pub(crate) fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The only encoder of a diffs section: open a page, push runs borrowed
/// from wherever the bytes live, and the two counts (pages in the section,
/// runs in the open page) are back-patched as they grow — so the encoded
/// prefix is a well-formed section after every call.
pub(crate) struct DiffWriter {
    out: Vec<u8>,
    pages_at: usize,
    pages: u32,
    runs_at: usize,
    runs: u32,
}

impl DiffWriter {
    /// Starts an empty section after `header`, in a buffer sized for a
    /// section of `section_len` bytes.
    pub(crate) fn begin(header: &[u8], section_len: usize) -> Self {
        let mut out = Vec::with_capacity(header.len() + section_len);
        out.extend_from_slice(header);
        let pages_at = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        DiffWriter {
            out,
            pages_at,
            pages: 0,
            runs_at: 0,
            runs: 0,
        }
    }

    /// Opens the diff of `page`; following runs belong to it.
    pub(crate) fn page(&mut self, page: u32) {
        self.pages += 1;
        self.out[self.pages_at..self.pages_at + 4].copy_from_slice(&self.pages.to_le_bytes());
        self.out.extend_from_slice(&page.to_le_bytes());
        self.runs_at = self.out.len();
        self.runs = 0;
        self.out.extend_from_slice(&0u32.to_le_bytes());
    }

    /// Appends one run of the open page.
    pub(crate) fn run(&mut self, off: u32, bytes: &[u8]) {
        assert!(self.pages > 0, "a run needs an open page");
        self.runs += 1;
        self.out[self.runs_at..self.runs_at + 4].copy_from_slice(&self.runs.to_le_bytes());
        self.out.extend_from_slice(&off.to_le_bytes());
        put_blob(&mut self.out, bytes);
    }

    /// Page diffs opened so far.
    pub(crate) fn pages(&self) -> u32 {
        self.pages
    }

    /// The header and the finished section.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.out
    }
}

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

    /// Incremental little-endian reader over a payload.
    pub(crate) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        pub(crate) fn u8(&mut self) -> MemResult<u8> {
            let b = *self.buf.get(self.pos).ok_or(BAD)?;
            self.pos = self.pos.checked_add(1).ok_or(BAD)?;
            Ok(b)
        }

        pub(crate) fn u32(&mut self) -> MemResult<u32> {
            let end = self.pos.checked_add(4).ok_or(BAD)?;
            let b = self.buf.get(self.pos..end).ok_or(BAD)?;
            self.pos = end;
            Ok(u32::from_le_bytes(b.try_into().map_err(|_| BAD)?))
        }

        pub(crate) fn u64(&mut self) -> MemResult<u64> {
            let end = self.pos.checked_add(8).ok_or(BAD)?;
            let b = self.buf.get(self.pos..end).ok_or(BAD)?;
            self.pos = end;
            Ok(u64::from_le_bytes(b.try_into().map_err(|_| BAD)?))
        }

        pub(crate) fn bytes(&mut self, n: usize) -> MemResult<&'a [u8]> {
            let end = self.pos.checked_add(n).ok_or(BAD)?;
            let b = self.buf.get(self.pos..end).ok_or(BAD)?;
            self.pos = end;
            Ok(b)
        }

        /// A `u32` length prefix followed by that many bytes.
        pub(crate) fn blob(&mut self) -> MemResult<Vec<u8>> {
            let n = self.u32()? as usize;
            Ok(self.bytes(n)?.to_vec())
        }

        /// Fails unless the payload was consumed exactly.
        pub(crate) fn finish(self) -> MemResult<()> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(BAD)
            }
        }
    }
    /// One step of a streamed diff decode: a new page diff beginning (emitted
    /// even for a diff with no runs, so semantic page checks fire for it too),
    /// or one run within the current page.
    pub(crate) enum DiffEvent<'a> {
        /// A page diff begins.
        Page(u32),
        /// One run of the current page: `(offset, bytes)`, the bytes borrowed
        /// straight from the payload.
        Run(u32, &'a [u8]),
    }

    /// A diffs section whose structure has been validated: every count,
    /// offset, and run lies inside it and nothing trails it. Holding one is
    /// the proof that malformed input was rejected *before* anything walks
    /// the section and mutates state.
    #[derive(Clone, Copy)]
    pub(crate) struct Diffs<'a>(&'a [u8]);

    impl<'a> Diffs<'a> {
        /// Validates a bare diffs section (lock release / grant payloads)
        /// without allocating or materializing anything.
        pub(crate) fn parse(payload: &'a [u8]) -> MemResult<Self> {
            let diffs = Diffs(payload);
            diffs.visit(&mut |_| Ok(()))?;
            Ok(diffs)
        }

        /// Streams the section's [`DiffEvent`]s, the runs borrowed from the
        /// payload in place. (Validation is this same walk with a callback
        /// that does nothing, so the two cannot disagree.)
        pub(crate) fn visit(self, f: &mut dyn FnMut(DiffEvent) -> MemResult<()>) -> MemResult<()> {
            let mut r = Reader::new(self.0);
            let n = r.u32()? as usize;
            for _ in 0..n {
                f(DiffEvent::Page(r.u32()?))?;
                let n_runs = r.u32()? as usize;
                for _ in 0..n_runs {
                    let off = r.u32()?;
                    let len = r.u32()? as usize;
                    f(DiffEvent::Run(off, r.bytes(len)?))?;
                }
            }
            r.finish()
        }
    }
    /// Validates a barrier diff message and splits it into its
    /// `(round, from)` header and diffs section.
    pub(crate) fn parse_diff_msg(payload: &[u8]) -> MemResult<(u64, u32, Diffs<'_>)> {
        let mut r = Reader::new(payload);
        let round = r.u64()?;
        let from = r.u32()?;
        let diffs = Diffs::parse(payload.get(MSG_HEADER..).ok_or(BAD)?)?;
        Ok((round, from, diffs))
    }
}

/// The materializing form of a diffs section. Test-only: the reference
/// the streaming [`Diffs::visit`] and the [`DiffWriter`] are compared
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

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

    fn decode_diffs_from(r: &mut Reader) -> MemResult<Vec<PageDiff>> {
        let n = r.u32()? as usize;
        let mut diffs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let page = r.u32()?;
            let n_runs = r.u32()? as usize;
            let mut runs = Vec::with_capacity(n_runs.min(1 << 16));
            for _ in 0..n_runs {
                let off = r.u32()?;
                runs.push((off, r.blob()?));
            }
            diffs.push(PageDiff { page, runs });
        }
        Ok(diffs)
    }

    /// Decodes a bare diffs section.
    pub(crate) fn decode_diffs(payload: &[u8]) -> MemResult<Vec<PageDiff>> {
        let mut r = Reader::new(payload);
        let diffs = decode_diffs_from(&mut r)?;
        r.finish()?;
        Ok(diffs)
    }

    /// Decodes a barrier diff message.
    pub(crate) fn decode_diff_msg(payload: &[u8]) -> MemResult<DiffMsg> {
        let mut r = Reader::new(payload);
        let round = r.u64()?;
        let from = r.u32()?;
        let diffs = decode_diffs_from(&mut r)?;
        r.finish()?;
        Ok(DiffMsg { round, from, diffs })
    }

    /// Writes `diffs` after `header`, page for page and run for run.
    pub(crate) fn encode_diffs(header: &[u8], diffs: &[PageDiff]) -> Vec<u8> {
        let mut w = DiffWriter::begin(header, 0);
        for d in diffs {
            w.page(d.page);
            for (off, run) in &d.runs {
                w.run(*off, run);
            }
        }
        w.finish()
    }

    /// Writes a barrier diff message.
    pub(crate) fn encode_diff_msg(msg: &DiffMsg) -> Vec<u8> {
        encode_diffs(&diff_msg_header(msg.round, msg.from), &msg.diffs)
    }

    /// What [`Diffs::visit`] streams, materialized.
    pub(crate) fn visited(diffs: Diffs) -> Vec<PageDiff> {
        let mut out: Vec<PageDiff> = Vec::new();
        diffs
            .visit(&mut |ev| {
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
            })
            .expect("a validated section walks cleanly");
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test diffs are built over a few pages with in-page offsets; narrowing counts to u32 cannot truncate"
)]
mod tests {
    use super::reference::*;
    use super::*;
    use ft_sim::rng::SplitMix64;

    fn sample_msg() -> DiffMsg {
        DiffMsg {
            round: 7,
            from: 2,
            diffs: vec![
                PageDiff {
                    page: 0,
                    runs: vec![(0, vec![1, 2, 3]), (9, vec![])],
                },
                PageDiff {
                    page: 31,
                    runs: vec![],
                },
            ],
        }
    }

    #[test]
    fn diff_msg_roundtrips() {
        let msg = sample_msg();
        let bytes = encode_diff_msg(&msg);
        assert_eq!(decode_diff_msg(&bytes).unwrap(), msg);
    }

    /// The format, pinned byte for byte: header, back-patched counts, a
    /// run-less page, an empty run.
    #[test]
    fn golden_bytes_of_a_diff_msg() {
        #[rustfmt::skip]
        let want: &[u8] = &[
            7, 0, 0, 0, 0, 0, 0, 0, // round
            2, 0, 0, 0,             // from
            2, 0, 0, 0,             // page diffs
            0, 0, 0, 0,  2, 0, 0, 0, // page 0, two runs
            0, 0, 0, 0,  3, 0, 0, 0,  1, 2, 3, // run at 0
            9, 0, 0, 0,  0, 0, 0, 0, // empty run at 9
            31, 0, 0, 0,  0, 0, 0, 0, // page 31, no runs
        ];
        assert_eq!(encode_diff_msg(&sample_msg()), want);
        // An empty section is just its zero count.
        assert_eq!(DiffWriter::begin(&[], 4).finish(), [0, 0, 0, 0]);
    }

    #[test]
    fn visitor_matches_materializing_decoder() {
        let msg = sample_msg();
        let bytes = encode_diff_msg(&msg);
        let (round, from, diffs) = parse_diff_msg(&bytes).unwrap();
        assert_eq!((round, from), (msg.round, msg.from));
        assert_eq!(visited(diffs), msg.diffs);
        // Malformed payloads never become a `Diffs`, so nothing can walk
        // them.
        assert!(parse_diff_msg(&bytes[..bytes.len() - 1]).is_err());
    }

    /// A random diff list over 4 pages; run-less pages and empty runs
    /// included, offsets arbitrary (the wire layer does not bound them).
    fn random_diffs(rng: &mut SplitMix64) -> Vec<PageDiff> {
        (0..rng.below(6))
            .map(|_| PageDiff {
                page: rng.below(4) as u32,
                runs: (0..rng.below(5))
                    .map(|_| {
                        let len = rng.below(40) as usize;
                        let bytes = (0..len).map(|_| rng.next_u64() as u8).collect();
                        (rng.next_u64() as u32, bytes)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Whatever the writer is fed, the reference decoder and the
    /// streaming visitor both read back, and the back-patched counts make
    /// every page boundary a well-formed section.
    #[test]
    fn writer_roundtrips_through_decoder_and_visitor() {
        let mut rng = SplitMix64::new(0xD1FF_0001);
        for _ in 0..512 {
            let diffs = random_diffs(&mut rng);
            let header = diff_msg_header(rng.next_u64(), rng.next_u64() as u32);
            let bytes = encode_diffs(&header, &diffs);
            assert_eq!(bytes[..MSG_HEADER], header);
            assert_eq!(decode_diffs(&bytes[MSG_HEADER..]).unwrap(), diffs);
            let (_, _, parsed) = parse_diff_msg(&bytes).unwrap();
            assert_eq!(visited(parsed), diffs);

            let mut w = DiffWriter::begin(&[], 0);
            for (i, d) in diffs.iter().enumerate() {
                w.page(d.page);
                for (off, run) in &d.runs {
                    w.run(*off, run);
                }
                assert_eq!(w.pages() as usize, i + 1);
                assert_eq!(decode_diffs(&w.out).unwrap(), diffs[..=i]);
            }
        }
    }

    #[test]
    fn truncated_and_oversized_payloads_fail() {
        let bytes = encode_diffs(
            &[],
            &[PageDiff {
                page: 1,
                runs: vec![(4, vec![9; 16])],
            }],
        );
        assert!(decode_diffs(&bytes[..bytes.len() - 1]).is_err());
        assert!(Diffs::parse(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_diffs(&longer).is_err());
        assert!(Diffs::parse(&longer).is_err());
        assert!(decode_diff_msg(&[0xFF; 3]).is_err());
        assert!(parse_diff_msg(&[0xFF; 3]).is_err());
    }

    /// Regression for the fail-stop conversion of `Reader`: short
    /// buffers and cursor-overflow requests must return `Err`, never
    /// panic — decode runs against deliberately corrupted campaign
    /// payloads. (The old primitives computed `self.pos + 4` bare and
    /// `expect`ed the slice-to-array conversion.)
    #[test]
    fn reader_primitives_fail_stop_on_short_or_overflowing_input() {
        assert!(Reader::new(&[]).u8().is_err());
        assert!(Reader::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::new(&[1, 2, 3, 4, 5, 6, 7]).u64().is_err());
        assert!(Reader::new(&[0; 4]).bytes(5).is_err());
        // `pos + n` would overflow: the checked cursor must reject it.
        let mut r = Reader::new(&[0; 8]);
        r.u32().unwrap();
        assert!(r.bytes(usize::MAX).is_err());
        // After any failure the cursor is unmoved, so decoding can
        // report a precise offset.
        let mut r = Reader::new(&[7, 0, 0, 0]);
        assert!(r.u64().is_err());
        assert_eq!(r.u32().unwrap(), 7);
    }

    /// Every strict prefix of a valid message decodes to `Err`, never a
    /// panic: the exhaustive version of the spot checks above.
    #[test]
    fn every_truncation_of_a_valid_message_fails_cleanly() {
        let bytes = encode_diff_msg(&DiffMsg {
            round: 3,
            from: 1,
            diffs: vec![PageDiff {
                page: 2,
                runs: vec![(0, vec![0xAB; 32]), (512, vec![0xCD; 8])],
            }],
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_diff_msg(&bytes[..cut]).is_err() && parse_diff_msg(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail-stop"
            );
        }
        assert!(decode_diff_msg(&bytes).is_ok() && parse_diff_msg(&bytes).is_ok());
    }

    /// Every single-bit flip of a valid message either fails validation
    /// or validates to exactly what the reference decoder reads — the
    /// validator and the walker never disagree, and neither panics.
    #[test]
    fn every_bit_flip_validates_like_the_reference_decoder() {
        let bytes = encode_diff_msg(&DiffMsg {
            round: 3,
            from: 1,
            diffs: vec![
                PageDiff {
                    page: 0,
                    runs: vec![(0, vec![0xAB; 5]), (512, vec![0xCD; 3])],
                },
                PageDiff {
                    page: 1,
                    runs: vec![(7, vec![0xEF; 2])],
                },
            ],
        });
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match (decode_diff_msg(&flipped), parse_diff_msg(&flipped)) {
                (Err(_), Err(_)) => {}
                (Ok(msg), Ok((round, from, diffs))) => {
                    assert_eq!((round, from), (msg.round, msg.from));
                    assert_eq!(visited(diffs), msg.diffs);
                }
                (a, b) => panic!("bit {bit}: decoder {a:?}, validator ok = {}", b.is_ok()),
            }
        }
    }
}
