//! Deterministic workload generators for the application suite.
//!
//! §3: "We simulate fast interactive rates by delaying 100 ms between each
//! keystroke in nvi and by delaying 1 second between each mouse-generated
//! command in magic." All scripts are generated from a seed with the
//! simulator's own PRNG, so runs are reproducible.

#![allow(
    clippy::cast_possible_truncation,
    reason = "request-stream bytes are RNG draws below tiny bounds (letters, cell coordinates, key/value ids); narrowing them is exact by construction"
)]

use ft_sim::rng::SplitMix64;

/// A keystroke script for the [`crate::editor::Editor`]: mostly inserts,
/// with cursor moves, deletes, periodic saves (`!`) and status-clock
/// updates (`@`).
pub fn editor_script(keys: usize, seed: u64) -> Vec<u8> {
    editor_script_with(keys, seed, 97, 43)
}

/// An editor script with configurable save (`!`) and status-clock (`@`)
/// cadence: Figure 8 sessions save rarely; the §4 crash studies save often
/// so heap corruption is detected within the run.
pub fn editor_script_with(
    keys: usize,
    seed: u64,
    save_every: usize,
    clock_every: usize,
) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(keys);
    for i in 0..keys {
        // Occasional save and clock events, as a real session has.
        if i > 0 && i % save_every == 0 {
            out.push(b'!');
            continue;
        }
        if i > 0 && i % clock_every == 0 {
            out.push(b'@');
            continue;
        }
        let r = rng.below(100);
        match r {
            0..=67 => out.push(b'a' + (rng.below(26) as u8)), // Insert.
            68..=77 => out.push(b'<'),                        // Left.
            78..=87 => out.push(b'>'),                        // Right.
            88..=97 => out.push(b'#'),                        // Delete.
            _ => {
                // A search: '/' then the target key.
                out.push(b'/');
                out.push(b'a' + (rng.below(26) as u8));
            }
        }
    }
    out
}

/// A command script for the [`crate::cad::Cad`] layout editor. Each
/// command is a 5-byte record: opcode + 4 coordinate bytes.
pub fn cad_script(commands: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(commands);
    for i in 0..commands {
        let op = if i % 29 == 28 {
            b'S' // Save.
        } else if i % 11 == 10 {
            b'D' // Design-rule check.
        } else if rng.chance(0.4) {
            b'W' // Route a wire.
        } else {
            b'P' // Place a box.
        };
        let a = rng.below(60) as u8;
        let b = rng.below(60) as u8;
        let c = (rng.below(16) + 1) as u8;
        let d = (rng.below(16) + 1) as u8;
        out.push(vec![op, a, b, c, d]);
    }
    out
}

/// A request script for the [`crate::minidb::MiniDb`]: INSERT / SELECT /
/// UPDATE / SCAN / CHECKPOINT records (op, key, value).
pub fn minidb_script(requests: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    let mut inserted: u64 = 0;
    let mut out = Vec::with_capacity(requests);
    for i in 0..requests {
        if i % 61 == 60 {
            out.push(vec![b'C', 0, 0, 0, 0, 0, 0, 0, 0]); // Checkpoint.
            continue;
        }
        let op = match rng.below(100) {
            0..=44 => b'I',
            45..=69 => b'Q',
            70..=81 => b'U',
            82..=91 => b'D', // Delete.
            _ => b'R',       // Range scan.
        };
        let key = if op == b'I' || inserted == 0 {
            inserted += 1;
            // Shuffled key order exercises B-tree splits everywhere.
            (inserted * 2_654_435_761) % 1_000_000
        } else {
            (rng.below(inserted) + 1) * 2_654_435_761 % 1_000_000
        };
        let val = rng.below(1 << 30);
        let mut rec = vec![op];
        rec.extend_from_slice(&(key as u32).to_le_bytes());
        rec.extend_from_slice(&(val as u32).to_le_bytes());
        out.push(rec);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn editor_script_is_deterministic_and_mixed() {
        let a = editor_script(1000, 7);
        let b = editor_script(1000, 7);
        assert_eq!(a, b);
        assert_ne!(a, editor_script(1000, 8));
        assert!(a.contains(&b'!'));
        assert!(a.contains(&b'@'));
        assert!(a.contains(&b'<'));
        assert!(a.iter().any(|&k| k.is_ascii_lowercase()));
    }

    #[test]
    fn cad_script_has_all_command_kinds() {
        let s = cad_script(120, 3);
        let ops: Vec<u8> = s.iter().map(|c| c[0]).collect();
        for op in [b'P', b'W', b'D', b'S'] {
            assert!(ops.contains(&op), "missing {}", op as char);
        }
    }

    #[test]
    fn minidb_script_interleaves_requests() {
        let s = minidb_script(200, 5);
        let ops: Vec<u8> = s.iter().map(|c| c[0]).collect();
        for op in [b'I', b'Q', b'U', b'R', b'D', b'C'] {
            assert!(ops.contains(&op), "missing {}", op as char);
        }
        assert_eq!(s[0].len(), 9);
    }
}
