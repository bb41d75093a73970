//! The one diff codec: the byte runs in which a page differs from its
//! twin (the copy it had at the last synchronization or commit), written
//! as one flat little-endian section. It serves two users — the DSM
//! wire (`ft_dsm`'s barrier, grant and release payloads) and the redo log
//! ([`crate::durable`]'s commit frames) — so there is one encoder,
//! [`DiffWriter`], and one validator, [`Diffs::parse`].
//!
//! ```text
//! section : npages:u32 npages×(page:u32 nruns:u32 nruns×(off:u32 len:u32 bytes[len]))
//! ```
//!
//! Encoding is deterministic: pages in the order the caller opens them,
//! runs ascending and maximal within a page, so equal inputs give equal
//! bytes. Decoding rejects malformed bytes with
//! [`MALFORMED`] rather than panicking — a peer, a fault campaign or a
//! torn disk chose them. Whether a page number or a run fits is the
//! caller's check: the codec knows neither the page size nor the count.

use crate::arena::line_spans;
use crate::error::{MemFault, MemResult};

pub use decode::{DiffEvent, Diffs, Reader};

/// What decoding returns for a short read, a trailing byte or any other
/// malformed section.
pub const MALFORMED: MemFault = MemFault::InvariantViolated { check: 0xD6 };

/// Appends a `u32` length prefix and `bytes`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "blobs are runs within a page or whole diff sections, far below u32::MAX; the format stores lengths as u32"
)]
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Calls `f(offset, run)` for every maximal run of bytes in which `cur`
/// differs from `twin` inside the lines `lines` masks (bit `i` is the
/// [64-byte line](crate::arena::LINE_SIZE) at `64 i`), in ascending
/// order; the run is borrowed from `cur`. The slices must have equal
/// lengths; lines past their end are ignored. The caller vouches that
/// the two agree outside `lines`, so a run never crosses an unmasked
/// line, and each stretch of adjacent masked lines is scanned as one — a
/// run across a line boundary stays one run.
#[inline]
fn for_each_run(cur: &[u8], twin: &[u8], lines: u64, mut f: impl FnMut(usize, &[u8])) {
    assert_eq!(cur.len(), twin.len(), "a page and its twin differ in size");
    for span in line_spans(lines) {
        if span.start >= cur.len() {
            break;
        }
        let end = span.end.min(cur.len());
        let (cur, twin) = (&cur[..end], &twin[..end]);
        let mut i = span.start;
        while let Some(start) = first_difference(cur, twin, i) {
            let mut stop = start + 1;
            while stop < end && cur[stop] != twin[stop] {
                stop += 1;
            }
            f(start, &cur[start..stop]);
            i = stop;
        }
    }
}

/// The first index at or after `from` where the slices differ, comparing
/// eight bytes at a time. Most of what is scanned equals its twin: 87.5 %
/// of a `durable_commit` line (one 8-byte write per saved 64-byte line)
/// and 65 % of `treadmarks_2pc`'s 1 KiB DSM pages (≈ 55 runs of ≈ 6.5
/// bytes each).
#[inline]
fn first_difference(cur: &[u8], twin: &[u8], from: usize) -> Option<usize> {
    let (cur, twin) = (&cur[from..], &twin[from..]);
    let (cur_words, _) = cur.as_chunks::<8>();
    let (twin_words, _) = twin.as_chunks::<8>();
    for (w, (c, t)) in cur_words.iter().zip(twin_words).enumerate() {
        let x = u64::from_le_bytes(*c) ^ u64::from_le_bytes(*t);
        if x != 0 {
            return Some(from + 8 * w + x.trailing_zeros() as usize / 8);
        }
    }
    let tail = 8 * cur_words.len();
    (tail..cur.len())
        .find(|&i| cur[i] != twin[i])
        .map(|i| from + i)
}

/// The only encoder of a diffs section: open a page, push runs borrowed
/// from wherever the bytes live, and the two counts (pages in the section,
/// runs in the open page) are back-patched as they grow — so the encoded
/// prefix is a well-formed section after every call. It writes into a
/// buffer its caller owns and reuses, so an encoder kept warm allocates
/// nothing and needs no sizing pass.
#[derive(Debug)]
pub struct DiffWriter<'a> {
    out: &'a mut Vec<u8>,
    pages_at: usize,
    pages: u32,
    runs_at: usize,
    runs: u32,
}

impl<'a> DiffWriter<'a> {
    /// Clears `out`, keeping its capacity, and starts an empty section in
    /// it after `header`. The encoded bytes are `out`'s once the writer is
    /// dropped.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>, header: &[u8]) -> Self {
        out.clear();
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
    #[inline]
    pub fn page(&mut self, page: u32) {
        self.pages += 1;
        self.out[self.pages_at..self.pages_at + 4].copy_from_slice(&self.pages.to_le_bytes());
        self.out.extend_from_slice(&page.to_le_bytes());
        self.runs_at = self.out.len();
        self.runs = 0;
        self.out.extend_from_slice(&0u32.to_le_bytes());
    }

    /// Appends one run of the open page.
    #[inline]
    pub fn run(&mut self, off: u32, bytes: &[u8]) {
        assert!(self.pages > 0, "a run needs an open page");
        self.runs += 1;
        self.out[self.runs_at..self.runs_at + 4].copy_from_slice(&self.runs.to_le_bytes());
        self.out.extend_from_slice(&off.to_le_bytes());
        put_blob(self.out, bytes);
    }

    /// Appends the diff of `page` against its twin: every maximal run in
    /// which the two differ, ascending, the page opened only if it has
    /// one. Only the lines `lines` masks are read: the caller vouches that
    /// the page equals its twin everywhere else (`u64::MAX` reads all).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "run offsets are within a page, far below u32::MAX"
    )]
    pub fn page_diff(&mut self, page: u32, cur: &[u8], twin: &[u8], lines: u64) {
        let mut open = false;
        for_each_run(cur, twin, lines, |off, run| {
            if !open {
                self.page(page);
                open = true;
            }
            self.run(off as u32, run);
        });
    }

    /// Page diffs opened so far.
    #[inline]
    pub fn pages(&self) -> u32 {
        self.pages
    }
}

/// Everything that reads a section. A peer, a fault campaign or a torn
/// disk chose these bytes, so malformed input comes back as
/// [`MALFORMED`]; panics, unchecked indexing and overflow do not compile
/// here (DESIGN §15).
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
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader at the start of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// One byte.
        pub fn u8(&mut self) -> MemResult<u8> {
            let b = *self.buf.get(self.pos).ok_or(MALFORMED)?;
            self.pos = self.pos.checked_add(1).ok_or(MALFORMED)?;
            Ok(b)
        }

        /// A little-endian `u32`.
        pub fn u32(&mut self) -> MemResult<u32> {
            let end = self.pos.checked_add(4).ok_or(MALFORMED)?;
            let b = self.buf.get(self.pos..end).ok_or(MALFORMED)?;
            self.pos = end;
            Ok(u32::from_le_bytes(b.try_into().map_err(|_| MALFORMED)?))
        }

        /// A little-endian `u64`.
        pub fn u64(&mut self) -> MemResult<u64> {
            let end = self.pos.checked_add(8).ok_or(MALFORMED)?;
            let b = self.buf.get(self.pos..end).ok_or(MALFORMED)?;
            self.pos = end;
            Ok(u64::from_le_bytes(b.try_into().map_err(|_| MALFORMED)?))
        }

        /// The next `n` bytes, borrowed.
        pub fn bytes(&mut self, n: usize) -> MemResult<&'a [u8]> {
            let end = self.pos.checked_add(n).ok_or(MALFORMED)?;
            let b = self.buf.get(self.pos..end).ok_or(MALFORMED)?;
            self.pos = end;
            Ok(b)
        }

        /// A `u32` length prefix followed by that many bytes.
        pub fn blob(&mut self) -> MemResult<Vec<u8>> {
            let n = self.u32()? as usize;
            Ok(self.bytes(n)?.to_vec())
        }

        /// Fails unless the payload was consumed exactly.
        pub fn finish(self) -> MemResult<()> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(MALFORMED)
            }
        }
    }

    /// One step of a streamed diff decode: a new page diff beginning (emitted
    /// even for a diff with no runs, so semantic page checks fire for it too),
    /// or one run within the current page.
    #[derive(Debug)]
    pub enum DiffEvent<'a> {
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
    #[derive(Debug, Clone, Copy)]
    pub struct Diffs<'a>(&'a [u8]);

    impl<'a> Diffs<'a> {
        /// Validates a bare diffs section without allocating or
        /// materializing anything.
        pub fn parse(section: &'a [u8]) -> MemResult<Self> {
            let diffs = Diffs(section);
            diffs.visit(&mut |_| Ok(()))?;
            Ok(diffs)
        }

        /// Streams the section's [`DiffEvent`]s, the runs borrowed from the
        /// payload in place. (Validation is this same walk with a callback
        /// that does nothing, so the two cannot disagree.)
        pub fn visit(self, f: &mut dyn FnMut(DiffEvent) -> MemResult<()>) -> MemResult<()> {
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
}

#[cfg(test)]
#[allow(
    clippy::cast_possible_truncation,
    reason = "test diffs are built over a few pages with small offsets; narrowing counts to u32 cannot truncate"
)]
mod tests {
    use super::*;

    /// Byte runs that changed within one page: the materialized form the
    /// streaming [`Diffs::visit`] and the [`DiffWriter`] are compared
    /// against.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct PageDiff {
        page: u32,
        runs: Vec<(u32, Vec<u8>)>,
    }

    /// The reference decoder: materializes the section field by field.
    fn decode_diffs(section: &[u8]) -> MemResult<Vec<PageDiff>> {
        let mut r = Reader::new(section);
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
        r.finish()?;
        Ok(diffs)
    }

    /// Writes `diffs` after `header`, page for page and run for run.
    fn encode_diffs(header: &[u8], diffs: &[PageDiff]) -> Vec<u8> {
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

    /// `page`'s diff against `twin` in the lines `lines` masks, as a bare
    /// section.
    fn page_section(page: u32, cur: &[u8], twin: &[u8], lines: u64) -> Vec<u8> {
        let mut out = Vec::new();
        DiffWriter::new(&mut out, &[]).page_diff(page, cur, twin, lines);
        out
    }

    /// What [`Diffs::visit`] streams, materialized.
    fn visited(diffs: Diffs) -> Vec<PageDiff> {
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

    /// Validates the section after a `header_len`-byte header, as both
    /// users do: the header is theirs, the section the codec's.
    fn parse_after(bytes: &[u8], header_len: usize) -> MemResult<Diffs<'_>> {
        Diffs::parse(bytes.get(header_len..).ok_or(MALFORMED)?)
    }

    /// A 12-byte header (a barrier message's `round: u64, from: u32`) and
    /// a section with a run-less page and an empty run.
    const HEADER: [u8; 12] = [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0];

    fn sample() -> Vec<PageDiff> {
        vec![
            PageDiff {
                page: 0,
                runs: vec![(0, vec![1, 2, 3]), (9, vec![])],
            },
            PageDiff {
                page: 31,
                runs: vec![],
            },
        ]
    }

    /// The format, pinned byte for byte: header, back-patched counts, a
    /// run-less page, an empty run.
    #[test]
    fn golden_bytes_of_a_section() {
        #[rustfmt::skip]
        let want: &[u8] = &[
            7, 0, 0, 0, 0, 0, 0, 0, // header: round
            2, 0, 0, 0,             // header: from
            2, 0, 0, 0,             // page diffs
            0, 0, 0, 0,  2, 0, 0, 0, // page 0, two runs
            0, 0, 0, 0,  3, 0, 0, 0,  1, 2, 3, // run at 0
            9, 0, 0, 0,  0, 0, 0, 0, // empty run at 9
            31, 0, 0, 0,  0, 0, 0, 0, // page 31, no runs
        ];
        let bytes = encode_diffs(&HEADER, &sample());
        assert_eq!(bytes, want);
        assert_eq!(decode_diffs(&bytes[12..]).unwrap(), sample());
        // An empty section is just its zero count.
        assert_eq!(encode_diffs(&[], &[]), [0, 0, 0, 0]);
        // A reused buffer is cleared, not appended to, and keeps its
        // capacity: encoding into it again allocates nothing.
        let mut out = bytes;
        let cap = out.capacity();
        DiffWriter::new(&mut out, &HEADER);
        assert_eq!(out, [&HEADER[..], &[0; 4]].concat());
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn visitor_matches_materializing_decoder() {
        let bytes = encode_diffs(&HEADER, &sample());
        assert_eq!(visited(parse_after(&bytes, 12).unwrap()), sample());
        // Malformed sections never become a `Diffs`, so nothing can walk
        // them.
        assert!(parse_after(&bytes[..bytes.len() - 1], 12).is_err());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random diff list over 4 pages; run-less pages and empty runs
    /// included, offsets arbitrary (the codec does not bound them).
    fn random_diffs(rng: &mut u64) -> Vec<PageDiff> {
        (0..splitmix(rng) % 6)
            .map(|_| PageDiff {
                page: (splitmix(rng) % 4) as u32,
                runs: (0..splitmix(rng) % 5)
                    .map(|_| {
                        let len = (splitmix(rng) % 40) as usize;
                        let bytes = (0..len).map(|_| splitmix(rng) as u8).collect();
                        (splitmix(rng) as u32, bytes)
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
        let mut rng = 0xD1FF_0001;
        for _ in 0..512 {
            let diffs = random_diffs(&mut rng);
            let header = splitmix(&mut rng).to_le_bytes();
            let bytes = encode_diffs(&header, &diffs);
            assert_eq!(bytes[..8], header);
            assert_eq!(decode_diffs(&bytes[8..]).unwrap(), diffs);
            assert_eq!(visited(parse_after(&bytes, 8).unwrap()), diffs);

            let mut out = Vec::new();
            let mut w = DiffWriter::new(&mut out, &[]);
            for (i, d) in diffs.iter().enumerate() {
                w.page(d.page);
                for (off, run) in &d.runs {
                    w.run(*off, run);
                }
                assert_eq!(w.pages() as usize, i + 1);
                assert_eq!(decode_diffs(w.out).unwrap(), diffs[..=i]);
            }
        }
    }

    /// The runs a byte-at-a-time scan finds.
    fn naive_runs(cur: &[u8], twin: &[u8]) -> Vec<(u32, Vec<u8>)> {
        let mut runs: Vec<(u32, Vec<u8>)> = Vec::new();
        for i in 0..cur.len() {
            if cur[i] == twin[i] {
                continue;
            }
            match runs.last_mut() {
                Some((off, run)) if *off as usize + run.len() == i => run.push(cur[i]),
                _ => runs.push((i as u32, vec![cur[i]])),
            }
        }
        runs
    }

    /// The word-at-a-time scan finds exactly the maximal runs, at every
    /// length around a word boundary and every density, and `page_diff`
    /// opens a page only when it has a run.
    #[test]
    fn page_diff_is_the_maximal_runs() {
        let mut rng = 0x5CA7_0001;
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 1024] {
            for density in [0u64, 1, 8, 64, 255] {
                let twin: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
                let mut cur = twin.clone();
                for b in &mut cur {
                    if splitmix(&mut rng) % 256 < density {
                        *b ^= 1 + (splitmix(&mut rng) % 255) as u8;
                    }
                }
                let want = naive_runs(&cur, &twin);
                let mut got = Vec::new();
                for_each_run(&cur, &twin, u64::MAX, |off, run| {
                    got.push((off as u32, run.to_vec()));
                });
                assert_eq!(got, want, "len {len} density {density}");

                let bytes = page_section(5, &cur, &twin, u64::MAX);
                let pages = decode_diffs(&bytes).unwrap();
                if want.is_empty() {
                    assert!(pages.is_empty());
                } else {
                    assert_eq!(
                        pages,
                        [PageDiff {
                            page: 5,
                            runs: want
                        }]
                    );
                }
            }
        }
    }

    /// A page that differs from its twin only inside the masked lines
    /// (the twin is garbage elsewhere, as a pooled undo buffer is) diffs
    /// to exactly the full-page runs: adjacent masked lines are one
    /// stretch, so a run across their boundary stays whole.
    #[test]
    fn masked_diff_is_the_full_page_diff() {
        const PAGE: usize = 4096;
        let mut rng = 0x11E5_0001;
        for _ in 0..256 {
            let lines = splitmix(&mut rng) & splitmix(&mut rng);
            let twin: Vec<u8> = (0..PAGE).map(|_| splitmix(&mut rng) as u8).collect();
            let mut cur = twin.clone();
            let mut stale: Vec<u8> = (0..PAGE).map(|_| splitmix(&mut rng) as u8).collect();
            for span in line_spans(lines) {
                stale[span.clone()].copy_from_slice(&twin[span.clone()]);
                for b in &mut cur[span] {
                    if splitmix(&mut rng).is_multiple_of(4) {
                        *b ^= 1 + (splitmix(&mut rng) % 255) as u8;
                    }
                }
            }
            assert_eq!(
                page_section(9, &cur, &stale, lines),
                page_section(9, &cur, &twin, u64::MAX),
                "lines {lines:#x}"
            );
        }
        // Sixteen bytes at offset 56 straddle lines 0 and 1: one run.
        let twin = [0u8; PAGE];
        let mut cur = twin;
        cur[56..72].fill(7);
        assert_eq!(
            decode_diffs(&page_section(0, &cur, &twin, 0b11)).unwrap(),
            [PageDiff {
                page: 0,
                runs: vec![(56, vec![7; 16])]
            }]
        );
    }

    #[test]
    fn truncated_and_oversized_sections_fail() {
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
        assert!(decode_diffs(&[0xFF; 3]).is_err());
        assert!(Diffs::parse(&[0xFF; 3]).is_err());
    }

    /// Regression for the fail-stop conversion of `Reader`: short
    /// buffers and cursor-overflow requests must return `Err`, never
    /// panic — decode runs against deliberately corrupted payloads.
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

    fn two_page_section() -> Vec<u8> {
        encode_diffs(
            &HEADER,
            &[
                PageDiff {
                    page: 0,
                    runs: vec![(0, vec![0xAB; 5]), (512, vec![0xCD; 3])],
                },
                PageDiff {
                    page: 1,
                    runs: vec![(7, vec![0xEF; 2])],
                },
            ],
        )
    }

    /// Every strict prefix of a valid section decodes to `Err`, never a
    /// panic.
    #[test]
    fn every_truncation_of_a_valid_section_fails_cleanly() {
        let bytes = two_page_section();
        for cut in 12..bytes.len() {
            assert!(
                decode_diffs(&bytes[12..cut]).is_err() && parse_after(&bytes[..cut], 12).is_err(),
                "truncation at {cut} must fail-stop"
            );
        }
        assert!(decode_diffs(&bytes[12..]).is_ok() && parse_after(&bytes, 12).is_ok());
    }

    /// Every single-bit flip of a valid section either fails validation
    /// or validates to exactly what the reference decoder reads — the
    /// validator and the walker never disagree, and neither panics.
    #[test]
    fn every_bit_flip_validates_like_the_reference_decoder() {
        let bytes = two_page_section();
        for bit in 12 * 8..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match (decode_diffs(&flipped[12..]), parse_after(&flipped, 12)) {
                (Err(_), Err(_)) => {}
                (Ok(diffs), Ok(parsed)) => assert_eq!(visited(parsed), diffs),
                (a, b) => panic!("bit {bit}: decoder {a:?}, validator ok = {}", b.is_ok()),
            }
        }
    }
}
