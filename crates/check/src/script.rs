//! Replayable counterexample scripts.
//!
//! A shrunk counterexample is rendered as a small line-oriented script —
//! workload, seed, size, protocol, and its fault schedule, one
//! `ft_core::fault::Fault` per line (`kill none` for the empty one) — that
//! `campaign --replay FILE` re-executes. The format round-trips through
//! [`parse_script`], so the script a failing `BENCH_check.json` carries is
//! directly runnable, not just human-readable.

use ft_apps::scenarios;
use ft_core::fault::Fault;
use ft_core::protocol::Protocol;
use ft_dc::Mutation;

use crate::scenario::{CheckConfig, Workload};

/// A parsed replay script: everything needed to re-run one fault
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The workload recipe.
    pub workload: Workload,
    /// The protocol under test.
    pub protocol: Protocol,
    /// The fault schedule, in script order (empty replays the
    /// failure-free run).
    pub faults: Vec<Fault>,
    /// The seeded runtime defect (self-test scripts only).
    pub mutation: Mutation,
}

impl Replay {
    /// The checker configuration this script replays under (serial).
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig {
            protocol: self.protocol,
            threads: 1,
            mutation: self.mutation,
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

/// Renders a replay script for one fault schedule. `comment` lines (the
/// violation description) are embedded as `#` comments.
pub fn render_script(
    w: &Workload,
    size: usize,
    protocol: Protocol,
    faults: &[Fault],
    mutation: Mutation,
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
    if mutation != Mutation::None {
        s.push_str(&format!("mutate {}\n", mutation.name()));
    }
    if faults.is_empty() {
        s.push_str("kill none\n");
    }
    for fault in faults {
        s.push_str(&format!("{fault}\n"));
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
    let mut faults = Vec::new();
    let mut schedule_seen = false;
    let mut mutation = Mutation::None;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {line:?}", ln + 1);
        let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let mut it = rest.split_whitespace();
        match directive {
            "workload" => {
                let f = it.next().ok_or_else(|| err("missing family"))?;
                name = Some(family_by_name(f).ok_or_else(|| err("unknown family"))?);
            }
            "seed" => {
                let v = it.next().ok_or_else(|| err("missing seed"))?;
                seed = Some(v.parse().map_err(|_| err("bad seed"))?);
            }
            "size" => {
                let v = it.next().ok_or_else(|| err("missing size"))?;
                size = Some(v.parse().map_err(|_| err("bad size"))?);
            }
            "protocol" => {
                let v = it.next().ok_or_else(|| err("missing protocol"))?;
                protocol = Some(protocol_by_name(v).ok_or_else(|| err("unknown protocol"))?);
            }
            "mutate" => match it.next() {
                Some(m) if m == Mutation::SkipPresendCommit.name() => {
                    mutation = Mutation::SkipPresendCommit;
                }
                _ => return Err(err("unknown mutation")),
            },
            "kill" if rest.trim() == "none" => schedule_seen = true,
            "kill" | "activate" | "kernel" => {
                schedule_seen = true;
                faults.push(line.parse().map_err(|e: String| err(&e))?);
            }
            "expect" => {}
            _ => return Err(err("unknown directive")),
        }
    }
    let workload = Workload {
        name: name.ok_or("missing `workload` directive")?,
        seed: seed.ok_or("missing `seed` directive")?,
        size: size.ok_or("missing `size` directive")?,
    };
    if !schedule_seen {
        return Err("missing fault schedule (`kill none` for an empty one)".into());
    }
    Ok(Replay {
        workload,
        protocol: protocol.ok_or("missing `protocol` directive")?,
        faults,
        mutation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::fault::CommitCrashPoint;

    #[test]
    fn scripts_round_trip_every_fault_kind() {
        use ft_core::fault::{CrashPoint, FaultPlan, FaultType};
        let w = Workload {
            name: "nvi",
            seed: 7,
            size: 3,
        };
        let kills = [
            CrashPoint::AtStart { pid: 0 },
            CrashPoint::AtPosition { pid: 1, pos: 9 },
            CrashPoint::InCommit {
                pid: 0,
                nth: 4,
                point: CommitCrashPoint::PreLog,
            },
            CrashPoint::AtTime {
                pid: 2,
                t: 1_500_000,
            },
            CrashPoint::AtExactTime {
                pid: 2,
                t: 1_500_000,
            },
        ];
        let activate = Fault::Activate {
            pid: 0,
            plan: FaultPlan {
                fault: FaultType::DeleteInstruction,
                site: 13,
                trigger_visit: 48,
                id: 1,
            },
        };
        let kernel = |propagate| Fault::Kernel {
            pid: 0,
            fault: FaultType::OffByOne,
            at: 123_456_789,
            corrupt_calls: 2,
            propagate,
        };
        let mut schedules = vec![vec![], vec![activate, kernel(false), kernel(true)]];
        schedules.extend(kills.map(|k| vec![Fault::Kill(k)]));
        for faults in schedules {
            for mutation in [Mutation::None, Mutation::SkipPresendCommit] {
                let s = render_script(&w, 3, Protocol::Cpvs, &faults, mutation, "why it failed");
                let r = parse_script(&s).expect("rendered script parses");
                assert_eq!(r.workload, w);
                assert_eq!(r.protocol, Protocol::Cpvs);
                assert_eq!(r.faults, faults);
                assert_eq!(r.mutation, mutation);
            }
        }
    }

    #[test]
    fn malformed_scripts_are_rejected_with_line_numbers() {
        assert!(parse_script("workload nvi\n").is_err());
        let e = parse_script("workload nvi\nseed 1\nsize 1\nprotocol CPVS\nkill sideways\n")
            .unwrap_err();
        assert!(
            e.contains("line 5") && e.contains("unknown kill kind"),
            "{e}"
        );
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
