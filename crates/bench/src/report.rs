//! The one printer: a stage's text is its report JSON, walked.
//!
//! [`render`] prints what `Stage::json` built and nothing else, so a number
//! a human reads on stdout or in EXPERIMENTS.md is by construction a number
//! in a `cmp`-gated `BENCH_<stage>.json`. An object's scalars (`config`
//! aside) become one `key value, …` line; an array of row objects becomes
//! an aligned table, nested objects flattened to dotted columns
//! (`violations.total`, `arena.traps`, `net.drops`); an array whose
//! elements hold row arrays of their own (`grouped_rows`' `[{label, rows}]`)
//! becomes one such section per element. Units come from the key suffixes
//! the reports already use: `_ns` is shown in milliseconds (and headed
//! `_ms`), `_pct` with a `%`. [`splice`] puts that text between a stage's
//! markers in EXPERIMENTS.md.

use std::fmt::Write as _;

use crate::json::Json;

/// Renders the report `doc` as text. `columns` names the dotted row keys
/// its tables keep; empty keeps every key.
pub fn render(doc: &Json, columns: &[&str]) -> String {
    let mut out = String::new();
    if let Json::Obj(fields) = doc {
        section(&mut out, "", fields, columns);
    }
    out
}

/// The row objects of `v`, if it is a non-empty array of objects.
fn rows_of(v: &Json) -> Option<Vec<&[(String, Json)]>> {
    let Json::Arr(items) = v else { return None };
    let rows: Option<Vec<_>> = items
        .iter()
        .map(|item| match item {
            Json::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        })
        .collect();
    rows.filter(|rows| !rows.is_empty())
}

fn section(out: &mut String, path: &str, fields: &[(String, Json)], columns: &[&str]) {
    let fields = || fields.iter().filter(|(k, _)| k != "config");
    let scalars: Vec<String> = fields()
        .filter(|(_, v)| !matches!(v, Json::Obj(_)) && rows_of(v).is_none())
        .map(|(k, v)| format!("{} {}", heading(k), cell(k, v)))
        .collect();
    if !scalars.is_empty() {
        let sep = if path.is_empty() { "" } else { ": " };
        let _ = writeln!(out, "{path}{sep}{}", scalars.join(", "));
    }
    for (k, v) in fields() {
        let path = format!("{path}.{k}");
        let path = path.trim_start_matches('.');
        if let Json::Obj(inner) = v {
            section(out, path, inner, columns);
        } else if let Some(rows) = rows_of(v) {
            let grouped = |row: &&[(String, Json)]| row.iter().any(|(_, v)| rows_of(v).is_some());
            if rows.iter().any(grouped) {
                rows.iter().for_each(|row| section(out, path, row, columns));
            } else {
                table(out, path, &rows, columns);
            }
        }
    }
}

fn table(out: &mut String, path: &str, rows: &[&[(String, Json)]], columns: &[&str]) {
    let rows: Vec<Vec<(String, String)>> = rows.iter().map(|row| flatten("", row)).collect();
    // Rows may be ragged (a failing analyzer cell carries its findings):
    // the header is the union of their keys, in first-seen order.
    let mut keys: Vec<&str> = Vec::new();
    for (k, _) in rows.iter().flatten() {
        if !keys.contains(&k.as_str()) && (columns.is_empty() || columns.contains(&k.as_str())) {
            keys.push(k);
        }
    }
    let header: Vec<String> = keys.iter().map(|k| heading(k)).collect();
    let cell = |row: &[(String, String)], k: &str| {
        let found = row.iter().find(|(key, _)| key == k);
        found.map_or_else(String::new, |(_, v)| v.clone())
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| keys.iter().map(|k| cell(row, k)).collect())
        .collect();
    let _ = write!(out, "{path}:\n{}", render_table(&header, &body));
}

/// Flattens a row object into `(dotted key, cell)` pairs.
fn flatten(prefix: &str, fields: &[(String, Json)]) -> Vec<(String, String)> {
    let leaves = |(k, v): &(String, Json)| match v {
        Json::Obj(inner) => flatten(&format!("{prefix}{k}."), inner),
        v => vec![(format!("{prefix}{k}"), cell(k, v))],
    };
    fields.iter().flat_map(leaves).collect()
}

/// A key as a heading: `_ns` values are shown in milliseconds.
fn heading(key: &str) -> String {
    let ms = key.strip_suffix("_ns").map(|stem| format!("{stem}_ms"));
    ms.unwrap_or_else(|| key.to_string())
}

/// A value as a cell, its unit read from the key's suffix.
fn cell(key: &str, v: &Json) -> String {
    let number = match *v {
        Json::Int(i) => Some(i as f64),
        Json::UInt(u) => Some(u as f64),
        Json::Float(f) => Some(f),
        _ => None,
    };
    match (v, number) {
        (_, Some(n)) if key.ends_with("_ns") => decimal(n / 1e6, 3),
        (_, Some(n)) if key.ends_with("_pct") => format!("{n:.1}%"),
        (Json::Float(f), _) => decimal(*f, 4),
        (Json::Str(s), _) => s.clone(),
        (Json::Arr(items), _) => {
            let items: Vec<String> = items.iter().map(|item| cell(key, item)).collect();
            items.join(",")
        }
        _ => v.render(),
    }
}

/// `v` to at most `places` decimals, trailing zeros trimmed down to one.
fn decimal(v: f64, places: usize) -> String {
    let text = format!("{v:.places$}");
    let trimmed = text.trim_end_matches('0');
    if trimmed.ends_with('.') {
        format!("{trimmed}0")
    } else {
        trimmed.to_string()
    }
}

/// Renders rows of equal-length string vectors as an aligned table.
fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    };
    line(header);
    let total = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    line(&["-".repeat(total)]);
    for row in rows {
        line(row);
    }
    out
}

/// `doc` (EXPERIMENTS.md) with the block between the `BENCH_<name>`
/// markers replaced by `text` in a code fence.
pub fn splice(doc: &str, name: &str, text: &str) -> Result<String, String> {
    let begin = format!("<!-- BEGIN BENCH_{name} -->\n");
    let end = format!("<!-- END BENCH_{name} -->");
    let missing = |marker: &str| format!("EXPERIMENTS.md has no `{}` marker", marker.trim_end());
    let start = doc.find(&begin).ok_or_else(|| missing(&begin))? + begin.len();
    let stop = start + doc[start..].find(&end).ok_or_else(|| missing(&end))?;
    Ok(format!(
        "{}```text\n{text}```\n{}",
        &doc[..start],
        &doc[stop..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        let row = |fault: &str, pct: f64, traps: u64| {
            Json::obj([
                ("fault", Json::from(fault)),
                ("violation_pct", Json::from(pct)),
                ("runtime_ns", Json::from(2_500_000u64)),
                ("arena", Json::obj([("traps", Json::from(traps))])),
            ])
        };
        Json::obj([
            ("report", Json::from("probe")),
            ("config", Json::obj([("seed", Json::from(7u64))])),
            ("kill_at_ns", Json::from(60_000u64)),
            (
                "apps",
                Json::arr([Json::obj([
                    ("app", Json::from("nvi")),
                    ("summary", Json::obj([("crashes", Json::from(679u64))])),
                    (
                        "rows",
                        Json::arr([row("Heap bit flip", 100.0, 12), row("Off by one", 24.0, 3)]),
                    ),
                ])]),
            ),
            ("ratio", Json::from(1.41211)),
            ("counterexample", Json::Null),
        ])
    }

    #[test]
    fn the_printer_walks_scalars_sections_and_tables_and_reads_units_from_suffixes() {
        let text = render(&doc(), &[]);
        let want = "\
report probe, kill_at_ms 0.06, ratio 1.4121, counterexample null
apps: app nvi
apps.summary: crashes 679
apps.rows:
fault          violation_pct  runtime_ms  arena.traps
-----------------------------------------------------
Heap bit flip  100.0%         2.5         12
Off by one     24.0%          2.5         3
";
        assert_eq!(text, want);
        assert!(!text.contains("seed"), "config is not printed");
    }

    #[test]
    fn a_column_list_keeps_only_the_named_dotted_keys() {
        let text = render(&doc(), &["fault", "arena.traps"]);
        assert!(text.contains("fault          arena.traps\n"), "{text}");
        assert!(!text.contains("violation_pct"), "{text}");
    }

    #[test]
    fn ragged_rows_leave_blank_cells_and_flat_row_arrays_are_one_table() {
        let doc = Json::obj([(
            "rows",
            Json::arr([
                Json::obj([("a", Json::from(1u64))]),
                Json::obj([
                    ("a", Json::from(2u64)),
                    ("pages", Json::arr([Json::from(4u64), Json::from(9u64)])),
                ]),
            ]),
        )]);
        assert_eq!(render(&doc, &[]), "rows:\na  pages\n--------\n1\n2  4,9\n");
    }

    #[test]
    fn splice_replaces_exactly_the_marked_block() {
        let doc = "intro\n<!-- BEGIN BENCH_kv -->\nstale\n<!-- END BENCH_kv -->\ntail\n";
        let got = splice(doc, "kv", "fresh 1\n").unwrap();
        assert_eq!(
            got,
            "intro\n<!-- BEGIN BENCH_kv -->\n```text\nfresh 1\n```\n<!-- END BENCH_kv -->\ntail\n"
        );
        assert_eq!(splice(&got, "kv", "fresh 1\n").unwrap(), got, "idempotent");
        let err = splice(doc, "avail", "x").unwrap_err();
        assert!(err.contains("BEGIN BENCH_avail"), "{err}");
    }
}
