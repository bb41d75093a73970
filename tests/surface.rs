//! The code-size meter (DESIGN §15): the public surface and the code's
//! size in exact, machine-independent counts.
//!
//! An item is `pub` only if something outside its crate reads it; the
//! `unreachable_pub` and `dead_code` lints judge everything else inside a
//! crate. This test reads the sources themselves, with a small lexer that
//! knows strings, raw strings, chars, lifetimes and nested comments and
//! skips every `#[cfg(test)]` item by brace matching, and gates what the
//! compiler cannot see:
//!
//! - per crate, the non-blank, non-comment, non-test lines under
//!   `crates/<c>/src` (and the umbrella's `src/`), and the `pub` items
//!   (fns, methods, types, consts, statics, traits) among them, each at or
//!   under its ceiling in [`CEILINGS`];
//! - the `pub` items that no non-test code outside the item reads
//!   (`benchmark/src`, `examples/` and the umbrella count as readers), and
//!   the `pub` items and crate-root re-exports that only `benchmark/`
//!   reads: [`SURVIVORS`] lists each by name with its reason;
//! - no `pub` item that nothing outside its crate names, unless a `pub`
//!   signature of an item named outside names it;
//! - no crate-root re-export that nothing reads through the root path;
//! - the byte sizes of DESIGN.md, EXPERIMENTS.md and README.md, each at
//!   or under its ceiling in [`DOC_CEILINGS`].
//!
//! A change that lowers a number lowers its ceiling; one that raises a
//! number raises the ceiling and says why. The scan goes by name, so an
//! item that shares its name with another counts as read: the lists are
//! what is certainly unread, never guesses.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Per crate (directory under `crates/`, `src` for the umbrella): non-test
/// lines and `pub` items, each a ceiling.
const CEILINGS: &[(&str, usize, usize)] = &[
    ("analyze", 647, 11),
    ("apps", 3290, 56),
    ("bench", 3311, 76),
    ("check", 404, 24),
    ("core", 2235, 152),
    ("crashtest", 939, 33),
    ("dc", 1138, 44),
    ("dsm", 794, 24),
    ("faults", 7, 0),
    ("mem", 2007, 144),
    ("sim", 2362, 163),
    ("src", 20, 0),
];

/// Byte-size ceilings of the three prose documents.
const DOC_CEILINGS: &[(&str, u64)] = &[
    ("DESIGN.md", 78752),
    ("EXPERIMENTS.md", 70790),
    ("README.md", 9025),
];

/// The reason of every item that stays only because the frozen
/// `benchmark/` reads it: it goes when that package may be edited.
const FROZEN: &str = "frozen `benchmark/` (ROADMAP 7(d))";

/// `pub` items that no non-test code outside the item reads, and `pub`
/// items and crate-root re-exports (`ft_x::name`) that only `benchmark/`
/// reads, as `crate/file::[Type::]name`, each with the reason it stays:
/// a reference a test compares the system against, or a hook an
/// integration test needs to reach a state.
#[rustfmt::skip]
const SURVIVORS: &[(&str, &str)] = &[
    ("analyze/audit::audit_orphan", "reference: savework_differential.rs"),
    ("analyze/audit::audit_visible", "reference: savework_differential.rs"),
    ("apps/taskfarm::TaskFarm::reference_checksum", "reference: taskfarm_recovery.rs"),
    ("apps/zipf::Zipfian::expected_prob", "reference: apps/tests/statistics.rs"),
    ("bench/stage::assert_thread_invariant", "hook: smoke.rs, stage_equivalence.rs"),
    ("core/savework::check_save_work_orphan", "reference: savework_differential.rs"),
    ("core/savework::check_save_work_visible", "reference: savework_differential.rs"),
    ("core/savework::find_orphans", "reference: Figure 2 in theory_scenarios.rs"),
    ("mem/arena::Arena::force_epoch", "hook: mem/tests/epoch_wrap.rs"),
    ("mem/arena::Arena::pooled_pages", "hook: mem/tests/epoch_wrap.rs"),
    ("sim/kernel::Kernel::corrupting", "hook: scheduler.rs, runtime_units.rs"),
    ("sim/kernel::Kernel::panic_now", "hook: sim/tests/scheduler.rs"),
    ("sim/net::Channel::messages", "hook: the fabric tests, release.rs"),
    ("sim/net::Channel::unacked", "hook: dc/tests/release.rs"),
    ("sim/net::Network::channel", "hook: the fabric tests, release.rs"),
    ("sim/net::Network::total_buffered", "hook: sim/tests/net_differential.rs"),
    ("bench/stats::percentile", FROZEN),
    ("dc/fingerprint::fnv1a_64", FROZEN),
    ("ft_bench::fingerprint", FROZEN),
    ("ft_bench::scenarios", FROZEN),
    ("ft_dc::DcStats", FROZEN),
    ("ft_faults::arrivals::PoissonArrivals", FROZEN),
    ("ft_faults::crash::CrashPoint", FROZEN),
    ("ft_sim::Network", FROZEN),
    ("sim/sim::Simulator::queue_ops", FROZEN),
];

// ---------------------------------------------------------------- lexer

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ident,
    Punct,
    Lit,
}

#[derive(Clone, Debug)]
struct Tok {
    kind: Kind,
    text: String,
    /// First and last source line the token spans.
    line: usize,
    last: usize,
}

impl Tok {
    fn is(&self, text: &str) -> bool {
        self.kind != Kind::Lit && self.text == text
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Rust source to tokens. Comments (doc comments too) are dropped; every
/// literal is one `Lit` token, so a brace inside a string, raw string or
/// char literal never reaches the brace matcher.
fn lex(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let mut toks = Vec::new();
    let (mut i, mut line) = (0, 1);
    while i < c.len() {
        let (mut start, first, ch) = (i, line, c[i]);
        let kind;
        if ch.is_whitespace() {
            line += usize::from(ch == '\n');
            i += 1;
            continue;
        } else if ch == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
            continue;
        } else if ch == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    line += usize::from(c[i] == '\n');
                    i += 1;
                }
            }
            continue;
        } else if let Some(r) = raw_string_start(&c, i) {
            // r"…", r#"…"#, br#"…"#: no escapes, ends at `"` plus as many `#`.
            let hashes = (r..).take_while(|&j| at(j) == '#').count();
            i = r + hashes + 1;
            while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|h| at(i + h) == '#')) {
                line += usize::from(c[i] == '\n');
                i += 1;
            }
            i += hashes + 1;
            kind = Kind::Lit;
        } else if ch == '"' || (ch == 'b' && at(i + 1) == '"') {
            i += if ch == 'b' { 2 } else { 1 };
            while i < c.len() && c[i] != '"' {
                i += usize::from(c[i] == '\\');
                line += usize::from(at(i) == '\n');
                i += 1;
            }
            i += 1;
            kind = Kind::Lit;
        } else if ch == '\'' || (ch == 'b' && at(i + 1) == '\'') {
            let q = if ch == 'b' { i + 1 } else { i };
            if at(q + 1) == '\\' {
                // An escaped char: '\n', '\'', '\u{1F600}'.
                i = q + 3;
                while i < c.len() && c[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if at(q + 2) == '\'' {
                i = q + 3;
            } else {
                // A lifetime or loop label: 'a, 'static.
                i = q + 1;
                while is_ident_char(at(i)) {
                    i += 1;
                }
            }
            kind = Kind::Lit;
        } else if ch.is_ascii_digit() {
            while is_ident_char(at(i)) || (at(i) == '.' && at(i + 1).is_ascii_digit()) {
                i += 1;
            }
            kind = Kind::Lit;
        } else if ch.is_alphabetic() || ch == '_' {
            if ch == 'r' && at(i + 1) == '#' {
                start += 2; // a raw identifier, r#type
                i += 2;
            }
            while is_ident_char(at(i)) {
                i += 1;
            }
            kind = Kind::Ident;
        } else {
            i += 1;
            kind = Kind::Punct;
        }
        toks.push(Tok {
            kind,
            text: c[start..i.min(c.len())].iter().collect(),
            line: first,
            last: line,
        });
    }
    toks
}

/// The index of the first `#` or `"` after a raw-string prefix at `i`.
fn raw_string_start(c: &[char], i: usize) -> Option<usize> {
    let r = match (c.get(i), c.get(i + 1)) {
        (Some('r'), _) => i + 1,
        (Some('b'), Some('r')) => i + 2,
        _ => return None,
    };
    if i > 0 && is_ident_char(c[i - 1]) {
        return None;
    }
    let hashes = c[r..].iter().take_while(|&&h| h == '#').count();
    (c.get(r + hashes) == Some(&'"')).then_some(r)
}

// ------------------------------------------------------------ structure

/// The index of the bracket that closes the one at `open`.
fn close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len() - 1
}

/// Past the end of the item (or statement) that starts at `i`, after its
/// attributes: at its `;`, or at the `}` closing its first brace block,
/// except that `use`, `type`, `let`, `static` and `const` items run to
/// their `;` whatever blocks they hold.
fn item_end(toks: &[Tok], i: usize) -> usize {
    let mut k = i;
    if toks[k].is("pub") {
        k += 1;
        if toks.get(k).is_some_and(|t| t.is("(")) {
            k = close(toks, k) + 1;
        }
    }
    let to_semi = toks.get(k).is_some_and(|t| {
        ["use", "type", "let", "static", "extern"]
            .iter()
            .any(|w| t.is(w))
            || (t.is("const") && !toks.get(k + 1).is_some_and(is_fn_qualifier))
    });
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is("(") || t.is("[") {
            j = close(toks, j) + 1;
        } else if t.is("{") {
            let k = close(toks, j);
            if !to_semi {
                return k + 1;
            }
            j = k + 1;
        } else if t.is(";") {
            return j + 1;
        } else {
            j += 1;
        }
    }
    toks.len()
}

fn is_fn_qualifier(t: &Tok) -> bool {
    ["fn", "unsafe", "async", "extern"].iter().any(|w| t.is(w))
}

fn is_cfg_test(toks: &[Tok], i: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.len() >= i + pat.len() && pat.iter().zip(&toks[i..]).all(|(p, t)| t.is(p))
}

/// Split a file's tokens into the non-test code and everything else: each
/// `#[cfg(test)]` item (its further attributes, then the item to its end)
/// goes to the second vector.
fn split_tests(toks: &[Tok]) -> (Vec<Tok>, Vec<Tok>) {
    let (mut code, mut test) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < toks.len() {
        if !is_cfg_test(toks, i) {
            code.push(toks[i].clone());
            i += 1;
            continue;
        }
        let mut j = i + 7;
        while j + 1 < toks.len() && toks[j].is("#") && toks[j + 1].is("[") {
            j = close(toks, j + 1) + 1;
        }
        let end = item_end(toks, j);
        test.extend_from_slice(&toks[i..end]);
        i = end;
    }
    (code, test)
}

/// Non-blank, non-comment source lines the tokens span.
fn lines(toks: &[Tok]) -> usize {
    let set: BTreeSet<usize> = toks.iter().flat_map(|t| t.line..=t.last).collect();
    set.len()
}

#[derive(Debug)]
struct Item {
    name: String,
    /// `module::name`, or `module::Type::name` for a method.
    path: String,
    /// Token range of the whole item.
    span: (usize, usize),
    /// Token range a caller outside the crate sees: a fn's header, every
    /// other item whole.
    sig: (usize, usize),
}

/// Every `pub` (not `pub(..)`) fn, method, type, trait, const and static.
fn pub_items(toks: &[Tok], module: &str) -> Vec<Item> {
    let impls = impl_headers(toks);
    let mut items = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is("pub") || toks.get(i + 1).is_some_and(|t| t.is("(")) {
            continue;
        }
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            let qualifier = ["unsafe", "async", "extern"].iter().any(|w| t.is(w))
                || t.kind == Kind::Lit
                || (t.is("const") && toks.get(j + 1).is_some_and(is_fn_qualifier));
            if qualifier {
                j += 1;
            } else {
                break;
            }
        }
        let kinds = [
            "fn", "struct", "enum", "trait", "type", "const", "static", "union",
        ];
        let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) else {
            continue;
        };
        if !kinds.iter().any(|k| kw.is(k)) || name.kind != Kind::Ident {
            continue;
        }
        let end = item_end(toks, i);
        let sig_end = if kw.is("fn") {
            let mut k = j + 2;
            while k < end && !toks[k].is("{") && !toks[k].is(";") {
                k = if toks[k].is("(") || toks[k].is("[") {
                    close(toks, k) + 1
                } else {
                    k + 1
                };
            }
            k
        } else {
            end
        };
        let owner = impls
            .iter()
            .find(|h| h.body.0 < i && i < h.body.1)
            .map(|h| format!("{}::", h.self_ty))
            .unwrap_or_default();
        items.push(Item {
            name: name.text.clone(),
            path: format!("{module}::{owner}{}", name.text),
            span: (i, end),
            sig: (i, sig_end),
        });
    }
    items
}

struct ImplBlock {
    /// The `impl … {` header, which names types without reading them.
    header: (usize, usize),
    /// The body, between its braces.
    body: (usize, usize),
    self_ty: String,
}

/// Every `impl` item: an `impl` at item position, not `-> impl Trait`.
fn impl_headers(toks: &[Tok]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is("impl") {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        if !prev.is_none_or(|p| ["}", ";", "]", "{", "unsafe"].iter().any(|w| p.is(w))) {
            continue;
        }
        let mut j = i + 1;
        let mut self_ty = None;
        let mut angle = 0usize;
        while j < toks.len() && !(angle == 0 && toks[j].is("{")) {
            let t = &toks[j];
            if t.is("<") {
                angle += 1;
            } else if t.is(">") && !toks[j - 1].is("-") {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && t.is("for") {
                self_ty = None;
            } else if angle == 0 && t.is("where") {
                break;
            } else if angle == 0 && t.kind == Kind::Ident && self_ty.is_none() {
                self_ty = Some(t.text.clone());
            }
            j += 1;
        }
        while j < toks.len() && !toks[j].is("{") {
            j += 1;
        }
        if j < toks.len() {
            out.push(ImplBlock {
                header: (i, j),
                body: (j, close(toks, j)),
                self_ty: self_ty.unwrap_or_default(),
            });
        }
    }
    out
}

/// Token ranges of `use` declarations.
fn use_decls(toks: &[Tok]) -> Vec<(usize, usize)> {
    (0..toks.len())
        .filter(|&i| toks[i].is("use"))
        .map(|i| (i, item_end(toks, i)))
        .collect()
}

/// The `(parent, child)` segment pairs a `use` group spells without a
/// `::` between them: `use a::{b, c::{d}};` gives `(a, b)`, `(a, c)` and
/// `(c, d)`. (Every other pair is a `parent :: child` token window.)
fn use_pairs(toks: &[Tok], (start, end): (usize, usize)) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in start..end.saturating_sub(3) {
        if !(toks[i].kind == Kind::Ident
            && toks[i + 1].is(":")
            && toks[i + 2].is(":")
            && toks[i + 3].is("{"))
        {
            continue;
        }
        let close_at = close(toks, i + 3);
        let mut k = i + 4;
        while k < close_at {
            if toks[k].kind == Kind::Ident && !toks[k].is("self") {
                out.push((toks[i].text.clone(), toks[k].text.clone()));
            }
            while k < close_at && !toks[k].is(",") {
                k = if toks[k].is("{") {
                    close(toks, k) + 1
                } else {
                    k + 1
                };
            }
            k += 1;
        }
    }
    out
}

/// The names a `pub use` declaration binds: each path's last segment or
/// its `as` alias.
fn use_leaves(toks: &[Tok], (start, end): (usize, usize)) -> Vec<String> {
    (start..end)
        .filter(|&i| {
            toks[i].kind == Kind::Ident && [",", "}", ";"].iter().any(|w| toks[i + 1].is(w))
        })
        .map(|i| toks[i].text.clone())
        .collect()
}

// ----------------------------------------------------------------- scan

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A crate's library or binary source (`crates/<c>/src`, `src/`).
    Lib,
    /// `examples/`: code a user runs, so its reads count.
    Example,
    /// The frozen `benchmark/src`: its reads count, and are reported.
    Frozen,
    /// Integration tests: they name items, but read nothing for the meter.
    Test,
}

struct File {
    role: Role,
    /// The crate directory (`core`; `src` for the umbrella) of a `Lib` file.
    krate: String,
    /// The compilation unit of a `Lib` file: its crate's library, or one
    /// of its binaries; `-` for every other file.
    unit: String,
    /// `crate/file` stem, the prefix of the item paths it defines.
    module: String,
    code: Vec<Tok>,
    /// The `#[cfg(test)]` items; for a `Test` file, everything.
    test: Vec<Tok>,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries
        .map(|e| e.expect("readable directory").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "fixtures") {
                rust_files(&p, out);
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn load(path: &Path, role: Role, krate: &str) -> File {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (code, test) = match role {
        Role::Test => (Vec::new(), lex(&src)),
        _ => split_tests(&lex(&src)),
    };
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 file name");
    let bin = path.parent().is_some_and(|p| p.ends_with("src/bin"));
    File {
        role,
        krate: krate.to_string(),
        unit: match role {
            Role::Lib if bin => format!("{krate}/bin"),
            Role::Lib => krate.to_string(),
            _ => "-".to_string(),
        },
        module: format!("{krate}/{stem}"),
        code,
        test,
    }
}

/// Every Rust file of the repository, and each crate directory's
/// identifier (`core` → `ft_core`).
fn workspace(root: &Path) -> (Vec<File>, BTreeMap<String, String>) {
    let mut files = Vec::new();
    let mut idents = BTreeMap::from([("src".to_string(), "failure_transparency".to_string())]);
    let mut dirs: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("entry").path())
        .collect();
    dirs.sort();
    for dir in dirs {
        let krate = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 crate dir")
            .to_string();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name");
        idents.insert(krate.clone(), package.trim_matches('"').replace('-', "_"));
        for (sub, role) in [("src", Role::Lib), ("tests", Role::Test)] {
            let mut paths = Vec::new();
            rust_files(&dir.join(sub), &mut paths);
            files.extend(paths.iter().map(|p| load(p, role, &krate)));
        }
    }
    files.push(load(&root.join("src/lib.rs"), Role::Lib, "src"));
    for (dir, role) in [
        ("examples", Role::Example),
        ("benchmark/src", Role::Frozen),
        ("tests", Role::Test),
    ] {
        let mut paths = Vec::new();
        rust_files(&root.join(dir), &mut paths);
        files.extend(paths.iter().map(|p| load(p, role, "-")));
    }
    (files, idents)
}

struct Surface {
    /// Per crate: non-test lines and `pub` items.
    table: BTreeMap<String, (usize, usize)>,
    /// `pub` items no non-test code outside the item reads.
    dead: BTreeSet<String>,
    /// `pub` items and crate-root re-exports that only `benchmark/` reads.
    frozen: BTreeSet<String>,
    /// `pub` items nothing outside their crate names, and that no signature
    /// of an item named outside names either.
    local: BTreeSet<String>,
    /// Crate-root `pub use` names nothing reads through the root path.
    unread_reexports: BTreeSet<String>,
}

fn measure(files: &[File], idents: &BTreeMap<String, String>) -> Surface {
    // Each name's reads: (file, token) in non-test code, outside `use`
    // declarations and `impl` headers, which name an item without using it.
    let mut reads: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    // The files that name it at all, tests and imports included.
    let mut named_in: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        let skip: Vec<(usize, usize)> = use_decls(&file.code)
            .into_iter()
            .chain(impl_headers(&file.code).into_iter().map(|h| h.header))
            .collect();
        for (i, t) in file
            .code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == Kind::Ident)
        {
            named_in.entry(&t.text).or_default().insert(f);
            if !skip.iter().any(|&(a, b)| a <= i && i < b) {
                reads.entry(&t.text).or_default().push((f, i));
            }
        }
        for t in file.test.iter().filter(|t| t.kind == Kind::Ident) {
            named_in.entry(&t.text).or_default().insert(f);
        }
    }

    let mut s = Surface {
        table: BTreeMap::new(),
        dead: BTreeSet::new(),
        frozen: BTreeSet::new(),
        local: BTreeSet::new(),
        unread_reexports: BTreeSet::new(),
    };
    let mut units: BTreeMap<&str, Vec<(usize, Item)>> = BTreeMap::new();
    for (f, file) in files
        .iter()
        .enumerate()
        .filter(|(_, file)| file.role == Role::Lib)
    {
        let items = pub_items(&file.code, &file.module);
        let row = s.table.entry(file.krate.clone()).or_insert((0, 0));
        row.0 += lines(&file.code);
        row.1 += items.len();
        for item in items {
            let outside =
                |&&(rf, ri): &&(usize, usize)| rf != f || ri < item.span.0 || ri >= item.span.1;
            let readers: Vec<Role> = reads
                .get(item.name.as_str())
                .into_iter()
                .flatten()
                .filter(outside)
                .map(|&(rf, _)| files[rf].role)
                .collect();
            if readers.is_empty() {
                s.dead.insert(item.path.clone());
            } else if readers.iter().all(|&r| r == Role::Frozen) {
                s.frozen.insert(item.path.clone());
            }
            units.entry(&file.unit).or_default().push((f, item));
        }
    }

    // Named outside the unit, or by the signature of an item that is: a
    // fixpoint over each unit's items. A trait impl's associated types are
    // as public as the trait, so they count as named outside.
    for (unit, items) in &units {
        let named = |name: &str, (f, (a, b)): (usize, (usize, usize))| {
            files[f].code[a..b].iter().any(|t| t.text == name)
        };
        let mut public: Vec<bool> = items
            .iter()
            .map(|(_, it)| {
                named_in
                    .get(it.name.as_str())
                    .is_some_and(|fs| fs.iter().any(|&f| files[f].unit != **unit))
            })
            .collect();
        let mut sigs: Vec<(usize, (usize, usize))> = Vec::new();
        let mut unit_files: Vec<usize> = items.iter().map(|&(f, _)| f).collect();
        unit_files.dedup();
        for &f in &unit_files {
            let code = &files[f].code;
            for h in impl_headers(code) {
                sigs.extend(
                    (h.body.0..h.body.1)
                        .filter(|&i| code[i].is("type"))
                        .map(|i| (f, (i, item_end(code, i)))),
                );
            }
        }
        sigs.extend(
            items
                .iter()
                .zip(&public)
                .filter(|(_, &p)| p)
                .map(|((f, it), _)| (*f, it.sig)),
        );
        // Each signature read once; an item it names turns public and
        // queues its own signature.
        let mut next = 0;
        while let Some(&sig) = sigs.get(next) {
            next += 1;
            for (a, (f, it)) in items.iter().enumerate() {
                if !public[a] && named(&it.name, sig) {
                    public[a] = true;
                    sigs.push((*f, it.sig));
                }
            }
        }
        s.local.extend(
            items
                .iter()
                .zip(&public)
                .filter(|(_, &p)| !p)
                .map(|((_, it), _)| it.path.clone()),
        );
    }

    // Re-exports in a lib.rs, at its root or in an inline `pub mod`: read
    // through `parent::name` (`crate::name` inside the crate), or by a
    // file that glob-imports `parent::*` and names `name`.
    let mut pairs: HashMap<(String, String), Vec<Role>> = HashMap::new();
    let mut globs: HashMap<&str, Vec<(usize, Role)>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        for (part, role) in [(&file.code, file.role), (&file.test, Role::Test)] {
            for w in part.windows(4) {
                if w[0].kind == Kind::Ident && w[1].is(":") && w[2].is(":") {
                    if w[3].kind == Kind::Ident {
                        let pair = (w[0].text.clone(), w[3].text.clone());
                        pairs.entry(pair).or_default().push(role);
                    } else if w[3].is("*") {
                        globs.entry(&w[0].text).or_default().push((f, role));
                    }
                }
            }
            for pair in use_decls(part).into_iter().flat_map(|d| use_pairs(part, d)) {
                pairs.entry(pair).or_default().push(role);
            }
        }
    }
    for file in files
        .iter()
        .filter(|f| f.role == Role::Lib && f.module.ends_with("/lib"))
    {
        let ident = idents[&file.krate].as_str();
        // The inline modules open at each point, with their brace depth.
        let mut mods: Vec<(&str, usize)> = Vec::new();
        let mut depth = 0usize;
        for (i, t) in file.code.iter().enumerate() {
            if t.is("{") {
                depth += 1;
                if i >= 2 && file.code[i - 2].is("mod") {
                    mods.push((&file.code[i - 1].text, depth));
                }
            } else if t.is("}") {
                mods.retain(|&(_, d)| d < depth);
                depth -= 1;
            }
            if !t.is("use") || i == 0 || !file.code[i - 1].is("pub") {
                continue;
            }
            let parent = mods.last().map_or(ident, |&(m, _)| m);
            for name in use_leaves(&file.code, (i, item_end(&file.code, i))) {
                let read_as = |parent: &str| pairs.get(&(parent.to_string(), name.clone()));
                let mut readers = read_as(parent).cloned().unwrap_or_default();
                if mods.is_empty() && file.krate != "src" {
                    readers.extend(read_as("crate").into_iter().flatten());
                }
                let glob = globs.get(parent).into_iter().flatten();
                readers.extend(
                    glob.filter(|&&(f, _)| {
                        named_in
                            .get(name.as_str())
                            .is_some_and(|fs| fs.contains(&f))
                    })
                    .map(|&(_, r)| r),
                );
                let path = format!(
                    "{ident}::{}{name}",
                    mods.iter()
                        .map(|(m, _)| format!("{m}::"))
                        .collect::<String>()
                );
                if readers.is_empty() {
                    s.unread_reexports.insert(path);
                } else if readers.iter().all(|&r| r == Role::Frozen) {
                    s.frozen.insert(path);
                }
            }
        }
    }
    s
}

// ---------------------------------------------------------------- gates

#[test]
fn the_public_surface_stays_within_its_ceilings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (files, idents) = workspace(root);
    let s = measure(&files, &idents);

    println!("{:<10} {:>7} {:>6}", "crate", "lines", "pub");
    let (mut lines_total, mut pub_total) = (0, 0);
    for (krate, (lines, pubs)) in &s.table {
        println!("{krate:<10} {lines:>7} {pubs:>6}");
        lines_total += lines;
        pub_total += pubs;
    }
    println!("{:<10} {lines_total:>7} {pub_total:>6}", "total");
    let docs: Vec<(&str, u64, u64)> = DOC_CEILINGS
        .iter()
        .map(|&(doc, ceiling)| {
            (
                doc,
                fs::metadata(root.join(doc)).expect("doc exists").len(),
                ceiling,
            )
        })
        .collect();
    for (doc, bytes, _) in &docs {
        println!("{doc}: {bytes} B");
    }
    println!("dead ({}): {:#?}", s.dead.len(), s.dead);
    println!("frozen ({}): {:#?}", s.frozen.len(), s.frozen);

    let mut over = Vec::new();
    assert_eq!(
        s.table.len(),
        CEILINGS.len(),
        "every crate needs a ceiling row"
    );
    for &(krate, lines, pubs) in CEILINGS {
        let (l, p) = s.table[krate];
        if l > lines || p > pubs {
            over.push(format!(
                "{krate}: {l} lines / {p} pub, ceilings {lines} / {pubs}"
            ));
        }
    }
    for (doc, bytes, ceiling) in docs {
        if bytes > ceiling {
            over.push(format!("{doc}: {bytes} B, ceiling {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over a ceiling: {over:#?}");

    let listed: BTreeSet<&str> = SURVIVORS.iter().map(|&(path, _)| path).collect();
    let found: BTreeSet<&str> = s.dead.iter().chain(&s.frozen).map(String::as_str).collect();
    assert_eq!(
        found, listed,
        "SURVIVORS is out of date: delete an unread item, or list it with its reason"
    );
    for &(path, reason) in SURVIVORS {
        let frozen = s.frozen.contains(path);
        assert_eq!(
            frozen,
            reason == FROZEN,
            "{path}: only benchmark/ reads it is {frozen}"
        );
    }
    assert!(
        s.local.is_empty(),
        "pub items nothing outside their crate names: {:#?}",
        s.local
    );
    assert!(
        s.unread_reexports.is_empty(),
        "crate-root re-exports nothing reads: {:#?}",
        s.unread_reexports
    );
}

/// The lexer and the test splitter on `tests/fixtures/surface.rs`: braces
/// inside strings, raw strings, chars and nested block comments, `'a'`
/// beside `'a`, a `#[cfg(test)]` helper followed by more code, a
/// `mod tests` mid-file with a `#[cfg(test)]` module nested inside, and
/// a gated `static` whose initializer holds braces, which runs to its
/// `;`. The expected numbers are counted by hand.
#[test]
fn the_lexer_reads_the_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = fs::read_to_string(root.join("tests/fixtures/surface.rs")).expect("fixture");
    let toks = lex(&src);
    let count = |text: &str| {
        toks.iter()
            .filter(|t| t.kind == Kind::Lit && t.text == text)
            .count()
    };
    assert_eq!((count("'a'"), count("'a"), count("'_")), (1, 5, 1));
    assert_eq!(count(r###"r##"pub fn in_a_raw_string() { "# }"##"###), 1);

    let (code, test) = split_tests(&toks);
    assert_eq!((lines(&code), lines(&test)), (18, 17));
    let items: Vec<String> = pub_items(&code, "f").into_iter().map(|i| i.path).collect();
    assert_eq!(
        items,
        [
            "f::Shape",
            "f::braces",
            "f::AFTER_HELPER",
            "f::Shape::width",
            "f::Named"
        ]
    );
}
