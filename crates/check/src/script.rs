//! Replayable counterexample scripts.
//!
//! A shrunk counterexample is rendered as a small line-oriented script —
//! workload, seed, size, protocol, and the kill directive — that
//! `campaign --replay FILE` re-executes. The format round-trips through
//! [`parse_script`], so the script a failing `BENCH_check.json` carries is
//! directly runnable, not just human-readable.

use ft_apps::scenarios;
use ft_core::protocol::Protocol;
use ft_faults::crash::CrashPoint;
use ft_mem::arena::CommitCrashPoint;

use crate::scenario::{CheckConfig, Workload};

/// A parsed replay script: everything needed to re-run one crash
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The workload recipe.
    pub workload: Workload,
    /// The protocol under test.
    pub protocol: Protocol,
    /// The kill to inject (`None` replays the failure-free run).
    pub point: Option<CrashPoint>,
    /// Whether the mutation switch was armed (self-test scripts only).
    pub skip_presend_commit: bool,
}

impl Replay {
    /// The checker configuration this script replays under (serial).
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig {
            protocol: self.protocol,
            threads: 1,
            skip_presend_commit: self.skip_presend_commit,
        }
    }
}

/// Looks a protocol up by its Figure 8 display name.
pub fn protocol_by_name(name: &str) -> Option<Protocol> {
    Protocol::FIGURE8.into_iter().find(|p| p.name() == name)
}

fn family_by_name(name: &str) -> Option<&'static str> {
    let (family, _) = scenarios::FAMILIES.iter().find(|(f, _)| *f == name)?;
    Some(family)
}

fn commit_point_by_name(name: &str) -> Option<CommitCrashPoint> {
    CommitCrashPoint::ALL.into_iter().find(|p| p.name() == name)
}

/// Renders a replay script for one crash schedule. `comment` lines (the
/// violation description) are embedded as `#` comments.
pub fn render_script(
    w: &Workload,
    size: usize,
    protocol: Protocol,
    point: Option<CrashPoint>,
    skip_presend_commit: bool,
    comment: &str,
) -> String {
    let mut s = String::from("# ft-check counterexample replay script\n");
    for line in comment.lines() {
        s.push_str("# ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!("workload {}\n", w.name));
    s.push_str(&format!("seed {}\n", w.seed));
    s.push_str(&format!("size {size}\n"));
    s.push_str(&format!("protocol {}\n", protocol.name()));
    if skip_presend_commit {
        s.push_str("mutate skip-presend-commit\n");
    }
    match point {
        None => s.push_str("kill none\n"),
        Some(CrashPoint::AtStart { pid }) => s.push_str(&format!("kill start {pid}\n")),
        Some(CrashPoint::AtPosition { pid, pos }) => {
            s.push_str(&format!("kill position {pid} {pos}\n"));
        }
        Some(CrashPoint::InCommit { pid, nth, point }) => {
            s.push_str(&format!("kill commit {pid} {nth} {}\n", point.name()));
        }
    }
    s.push_str("expect violation\n");
    s
}

/// Parses a replay script produced by [`render_script`]. Returns a
/// human-readable error on any malformed line.
pub fn parse_script(text: &str) -> Result<Replay, String> {
    let mut name: Option<&'static str> = None;
    let mut seed: Option<u64> = None;
    let mut size: Option<usize> = None;
    let mut protocol: Option<Protocol> = None;
    let mut point: Option<CrashPoint> = None;
    let mut kill_seen = false;
    let mut skip_presend_commit = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {line:?}", ln + 1);
        let mut it = line.split_whitespace();
        match it.next() {
            Some("workload") => {
                let f = it.next().ok_or_else(|| err("missing family"))?;
                name = Some(family_by_name(f).ok_or_else(|| err("unknown family"))?);
            }
            Some("seed") => {
                let v = it.next().ok_or_else(|| err("missing seed"))?;
                seed = Some(v.parse().map_err(|_| err("bad seed"))?);
            }
            Some("size") => {
                let v = it.next().ok_or_else(|| err("missing size"))?;
                size = Some(v.parse().map_err(|_| err("bad size"))?);
            }
            Some("protocol") => {
                let v = it.next().ok_or_else(|| err("missing protocol"))?;
                protocol = Some(protocol_by_name(v).ok_or_else(|| err("unknown protocol"))?);
            }
            Some("mutate") => match it.next() {
                Some("skip-presend-commit") => skip_presend_commit = true,
                _ => return Err(err("unknown mutation")),
            },
            Some("kill") => {
                kill_seen = true;
                point = match it.next() {
                    Some("none") => None,
                    Some("start") => {
                        let pid = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad pid"))?;
                        Some(CrashPoint::AtStart { pid })
                    }
                    Some("position") => {
                        let pid = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad pid"))?;
                        let pos = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad position"))?;
                        Some(CrashPoint::AtPosition { pid, pos })
                    }
                    Some("commit") => {
                        let pid = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad pid"))?;
                        let nth = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad commit index"))?;
                        let sub = it.next().ok_or_else(|| err("missing sub-step"))?;
                        let point =
                            commit_point_by_name(sub).ok_or_else(|| err("unknown sub-step"))?;
                        Some(CrashPoint::InCommit { pid, nth, point })
                    }
                    _ => return Err(err("unknown kill kind")),
                };
            }
            Some("expect") => {}
            _ => return Err(err("unknown directive")),
        }
    }
    let workload = Workload {
        name: name.ok_or("missing `workload` directive")?,
        seed: seed.ok_or("missing `seed` directive")?,
        size: size.ok_or("missing `size` directive")?,
    };
    if !kill_seen {
        return Err("missing `kill` directive".into());
    }
    Ok(Replay {
        workload,
        protocol: protocol.ok_or("missing `protocol` directive")?,
        point,
        skip_presend_commit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_round_trip_every_kill_kind() {
        let w = Workload {
            name: "nvi",
            seed: 7,
            size: 3,
        };
        let points = [
            None,
            Some(CrashPoint::AtStart { pid: 0 }),
            Some(CrashPoint::AtPosition { pid: 1, pos: 9 }),
            Some(CrashPoint::InCommit {
                pid: 0,
                nth: 4,
                point: CommitCrashPoint::PreLog,
            }),
        ];
        for point in points {
            for mutate in [false, true] {
                let s = render_script(&w, 3, Protocol::Cpvs, point, mutate, "why it failed");
                let r = parse_script(&s).expect("rendered script parses");
                assert_eq!(r.workload, w);
                assert_eq!(r.protocol, Protocol::Cpvs);
                assert_eq!(r.point, point);
                assert_eq!(r.skip_presend_commit, mutate);
            }
        }
    }

    #[test]
    fn malformed_scripts_are_rejected_with_line_numbers() {
        assert!(parse_script("workload nvi\n").is_err());
        let e = parse_script("workload nvi\nseed 1\nsize 1\nprotocol CPVS\nkill sideways\n")
            .unwrap_err();
        assert!(e.contains("line 5"), "{e}");
        assert!(
            parse_script("workload emacs\nseed 1\nsize 1\nprotocol CPVS\nkill none\n").is_err()
        );
    }

    #[test]
    fn protocol_lookup_covers_all_seven() {
        for p in Protocol::FIGURE8 {
            assert_eq!(protocol_by_name(p.name()), Some(p));
        }
        assert_eq!(protocol_by_name("COMMIT-NEVER"), None);
    }
}
