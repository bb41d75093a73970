//! `--compare <first> <second>`: two saved outputs of the untraced pass,
//! metric by metric and workload by workload, against the bounds in the
//! metric table. This is what `repeat.sh` ends with.

use std::path::Path;
use std::process::ExitCode;

use crate::metrics::{Better, Kind, SPECS};

/// `(workload, metric, value)` of every metric line in `path`.
fn metric_lines(path: &Path) -> Vec<(String, String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, metric, value, _unit, _n, _q1, _q3] = fields.as_slice() else {
                return None;
            };
            Some((
                workload.to_string(),
                metric.to_string(),
                value.parse().ok()?,
            ))
        })
        .collect()
}

pub fn compare(first: &Path, second: &Path) -> ExitCode {
    let (a, b) = (metric_lines(first), metric_lines(second));
    let mut compared = 0;
    let mut breaches = 0;
    println!("workload metric first second ratio bound verdict");
    for (workload, metric, va) in &a {
        let Some(spec) = SPECS.iter().find(|s| s.name == metric) else {
            continue;
        };
        let Kind::EndToEnd { bound, .. } = spec.kind else {
            continue;
        };
        let Some((_, _, vb)) = b.iter().find(|(w, m, _)| w == workload && m == metric) else {
            println!("{workload} {metric} {va} missing - {bound} BREACH");
            breaches += 1;
            continue;
        };
        // How much worse the second reading is, as a share of the first.
        let worse = match spec.better {
            Better::Lower => vb - va,
            Better::Higher => va - vb,
        };
        let breach = worse > bound * va.abs();
        compared += 1;
        breaches += u32::from(breach);
        let ratio = if va == vb { 1.0 } else { vb / va };
        println!(
            "{workload} {metric} {va} {vb} {ratio:.4} {bound} {}",
            if breach { "BREACH" } else { "ok" }
        );
    }
    if compared == 0 {
        eprintln!("compare: no end-to-end metric lines found");
        return ExitCode::FAILURE;
    }
    if breaches > 0 {
        eprintln!("compare: {breaches} of {compared} readings are worse than their bound");
        return ExitCode::FAILURE;
    }
    println!("compare: {compared} readings within their bounds");
    ExitCode::SUCCESS
}
