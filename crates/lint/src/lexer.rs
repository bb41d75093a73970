//! A hand-rolled Rust lexer, exact enough to be trusted.
//!
//! The analyzer's verdicts are only as good as its token stream: the old
//! `grep`-based determinism lint could be fooled by a banned name inside
//! a string literal or a commented-out line, and could never see that
//! `'a` is a lifetime while `'a'` is a `char`. This lexer handles the
//! parts of Rust's lexical grammar that matter for those judgments —
//! nested block comments, raw strings with arbitrary `#` fences, byte
//! and C string prefixes, char-vs-lifetime disambiguation, numeric
//! literals with suffixes — and is pinned by a property the whole crate
//! leans on: **the concatenation of token slices reproduces the source
//! byte-for-byte** (`tests/lexer_roundtrip.rs` proves it over every
//! `.rs` file in the workspace and over seeded adversarial inputs).
//!
//! Classification mistakes can make a rule misfire; a *coverage* mistake
//! would make the analyzer silently skip source text. The round-trip
//! property rules out the second kind entirely.

/// Lexical class of a token. `text` is always the exact source slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines, carriage returns.
    Whitespace,
    /// `// …` (including `///` and `//!` doc comments), newline excluded.
    LineComment,
    /// `/* … */`, nested arbitrarily deep. Unterminated comments extend
    /// to end of input.
    BlockComment,
    /// Identifier or keyword (including raw identifiers `r#ident`).
    Ident,
    /// `'lifetime` or a loop label (no closing quote).
    Lifetime,
    /// `'x'`, `'\n'`, `'\u{1F600}'`, or a byte char `b'x'`.
    CharLit,
    /// Any string form: `"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`.
    StrLit,
    /// Integer or float literal, suffix included (`1_000u64`, `2.5e-3`).
    Num,
    /// One operator or delimiter, multi-character forms joined
    /// (`::`, `->`, `+=`, `..=`, `<<`, …).
    Punct,
    /// A byte the lexer does not understand (kept so round-trip holds).
    Unknown,
}

/// One token: a classification plus its exact byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The exact source slice this token covers.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// Whether a token is whitespace or a comment (invisible to parsing).
pub fn is_trivia(kind: TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
    )
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lexes a full source file into a gapless token stream.
///
/// Every byte of `src` lands in exactly one token, in order; see the
/// module docs for why that property is load-bearing.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            out.push(Token {
                kind,
                start,
                end: self.pos,
            });
        }
        out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.bytes[self.pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                while matches!(self.peek(0), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if self.peek(1) == Some(b'/') => {
                while let Some(c) = self.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    self.pos += 1;
                }
                TokenKind::LineComment
            }
            b'/' if self.peek(1) == Some(b'*') => {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            self.pos += 2;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            self.pos += 2;
                        }
                        (Some(_), _) => self.pos += 1,
                        (None, _) => break,
                    }
                }
                TokenKind::BlockComment
            }
            b'\'' => self.char_or_lifetime(),
            b'"' => self.string(),
            b'0'..=b'9' => self.number(),
            _ if is_ident_start(b) => self.ident_or_prefixed_literal(),
            _ => self.punct_or_unknown(),
        }
    }

    /// `'` starts a char literal or a lifetime/label. A char literal has
    /// a closing quote after one (possibly escaped) character; a
    /// lifetime never closes.
    fn char_or_lifetime(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'\''));
        match self.peek(1) {
            // `'\…'` — escapes only occur in char literals.
            Some(b'\\') => {
                self.pos += 2; // consume `'\`
                self.consume_escape_body();
                if self.peek(0) == Some(b'\'') {
                    self.pos += 1;
                }
                TokenKind::CharLit
            }
            // `''` is not valid Rust; treat as an empty char so the two
            // quotes stay together and round-trip holds.
            Some(b'\'') => {
                self.pos += 2;
                TokenKind::CharLit
            }
            Some(c) if is_ident_start(c) => {
                // `'a'` is a char, `'a` / `'abc` is a lifetime; only the
                // quote after the ident run tells them apart.
                let mut j = self.pos + 1;
                while j < self.bytes.len() && is_ident_continue(self.bytes[j]) {
                    j += 1;
                }
                if self.bytes.get(j) == Some(&b'\'') && j == self.pos + 2 {
                    self.pos = j + 1;
                    TokenKind::CharLit
                } else {
                    self.pos = j;
                    TokenKind::Lifetime
                }
            }
            // `'#'`-style: any other single char followed by `'`.
            Some(_) => {
                // Step over one full UTF-8 scalar, then the close quote.
                let mut it = self.src[self.pos + 1..].chars();
                let c = it.next().map_or(0, char::len_utf8);
                self.pos += 1 + c;
                if self.peek(0) == Some(b'\'') {
                    self.pos += 1;
                    TokenKind::CharLit
                } else {
                    TokenKind::Lifetime
                }
            }
            None => {
                self.pos += 1;
                TokenKind::Unknown
            }
        }
    }

    /// After `\`, consume the escape payload (single char, `x41`,
    /// `u{…}`) without consuming the closing quote.
    fn consume_escape_body(&mut self) {
        match self.peek(0) {
            Some(b'u') if self.peek(1) == Some(b'{') => {
                self.pos += 2;
                while let Some(c) = self.peek(0) {
                    self.pos += 1;
                    if c == b'}' {
                        break;
                    }
                }
            }
            Some(b'x') => {
                self.pos += 1;
                for _ in 0..2 {
                    if matches!(self.peek(0), Some(c) if c.is_ascii_hexdigit()) {
                        self.pos += 1;
                    }
                }
            }
            Some(_) => {
                // The escape payload may be any scalar (`'\€` in broken
                // input); stepping one *byte* would strand the cursor
                // mid-character and poison every later slice.
                let n = self.src[self.pos..]
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                self.pos += n;
            }
            None => {}
        }
    }

    /// A plain (cooked) string starting at `"`.
    fn string(&mut self) -> TokenKind {
        debug_assert_eq!(self.peek(0), Some(b'"'));
        self.pos += 1;
        while let Some(c) = self.peek(0) {
            match c {
                b'\\' => self.pos += if self.peek(1).is_some() { 2 } else { 1 },
                b'"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        TokenKind::StrLit
    }

    /// A raw string body starting at the first `#`-or-`"` after the `r`.
    /// Returns false (without consuming) if this is not a raw string.
    fn raw_string(&mut self) -> bool {
        let mut j = self.pos;
        let mut fence = 0usize;
        while self.bytes.get(j) == Some(&b'#') {
            fence += 1;
            j += 1;
        }
        if self.bytes.get(j) != Some(&b'"') {
            return false;
        }
        j += 1;
        // Scan for `"` followed by `fence` hashes.
        'scan: while j < self.bytes.len() {
            if self.bytes[j] == b'"' {
                let mut k = 0;
                while k < fence {
                    if self.bytes.get(j + 1 + k) != Some(&b'#') {
                        j += 1;
                        continue 'scan;
                    }
                    k += 1;
                }
                j += 1 + fence;
                self.pos = j;
                return true;
            }
            j += 1;
        }
        self.pos = j; // unterminated: to end of input
        true
    }

    /// An identifier, or one of the literal prefixes (`r"`, `r#"`, `b"`,
    /// `br#"`, `b'`, `c"`, `cr#"`, `r#ident`).
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        let start = self.pos;
        // Longest literal-prefix check first (maximal munch, as rustc).
        let rest = &self.bytes[self.pos..];
        let prefix_len = match rest {
            [b'b', b'r', b'"' | b'#', ..] => 2,
            [b'c', b'r', b'"' | b'#', ..] => 2,
            [b'r', b'"' | b'#', ..] | [b'b', b'"' | b'\'', ..] | [b'c', b'"', ..] => 1,
            _ => 0,
        };
        if prefix_len > 0 {
            let after = self.bytes[self.pos + prefix_len];
            if after == b'\'' {
                // b'x' — a byte char: reuse the char path.
                self.pos += prefix_len;
                return self.char_or_lifetime();
            }
            let raw = rest[prefix_len - 1] == b'r';
            self.pos += prefix_len;
            if raw {
                if self.raw_string() {
                    return TokenKind::StrLit;
                }
                // `r#ident` (raw identifier) or bare `r` ident: fall
                // through to the identifier run below.
                self.pos = start;
            } else {
                return self.string();
            }
        }
        // Raw identifier `r#name`.
        if rest.first() == Some(&b'r')
            && rest.get(1) == Some(&b'#')
            && rest.get(2).copied().is_some_and(is_ident_start)
        {
            self.pos += 2;
        }
        while self
            .peek(0)
            .is_some_and(|c| is_ident_continue(c) || c >= 0x80)
        {
            self.pos += 1;
        }
        TokenKind::Ident
    }

    /// Integer or float literal, including prefix, underscores,
    /// exponent, and type suffix.
    fn number(&mut self) -> TokenKind {
        let radix_prefix = matches!(
            (self.peek(0), self.peek(1)),
            (Some(b'0'), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        );
        if radix_prefix {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.pos += 1;
            }
            return TokenKind::Num;
        }
        self.digits();
        // Fraction: `.` followed by a digit, or a trailing `1.` that is
        // not `1..` (range) and not `1.ident` (field/method access).
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    self.pos += 1;
                    self.digits();
                }
                Some(b'.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => self.pos += 1, // `1.` at end or before an operator
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(self.peek(1), Some(b'+' | b'-')));
            if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1 + sign;
                self.digits();
            }
        }
        // Type suffix (`u32`, `f64`, `usize`, …): an ident run glued on.
        while self.peek(0).is_some_and(is_ident_continue) {
            self.pos += 1;
        }
        TokenKind::Num
    }

    fn digits(&mut self) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_digit() || c == b'_')
        {
            self.pos += 1;
        }
    }

    fn punct_or_unknown(&mut self) -> TokenKind {
        let rest = &self.src[self.pos..];
        for m in MULTI_PUNCT {
            if rest.starts_with(m) {
                self.pos += m.len();
                return TokenKind::Punct;
            }
        }
        let b = self.bytes[self.pos];
        if b.is_ascii_punctuation() {
            self.pos += 1;
            return TokenKind::Punct;
        }
        // Any other byte (stray UTF-8 outside strings/comments, which
        // rustc would reject anyway): consume one full scalar so the
        // stream stays gapless.
        let c = self.src[self.pos..]
            .chars()
            .next()
            .map_or(1, char::len_utf8);
        self.pos += c;
        TokenKind::Unknown
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Precomputed byte-offset → 1-based line/column lookup.
#[derive(Debug)]
pub struct LineIndex {
    /// Byte offset of the start of each line.
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for one source file.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// `(line, column)`, both 1-based, for a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.starts[line] + 1)
    }

    /// 1-based line number for a byte offset.
    pub fn line(&self, offset: usize) -> usize {
        self.line_col(offset).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        let mut at = 0;
        for t in &toks {
            assert_eq!(t.start, at, "gap before token at byte {at} in {src:?}");
            rebuilt.push_str(t.text(src));
            at = t.end;
        }
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn char_vs_lifetime() {
        let v = kinds("'a' 'a 'static '\\n' '\\u{1F600}' 'label: loop {}");
        assert_eq!(v[0], (TokenKind::CharLit, "'a'"));
        assert_eq!(v[2], (TokenKind::Lifetime, "'a"));
        assert_eq!(v[4], (TokenKind::Lifetime, "'static"));
        assert_eq!(v[6], (TokenKind::CharLit, "'\\n'"));
        assert_eq!(v[8], (TokenKind::CharLit, "'\\u{1F600}'"));
        assert_eq!(v[10], (TokenKind::Lifetime, "'label"));
    }

    #[test]
    fn raw_and_prefixed_strings() {
        let v = kinds(r####"r"a" r#"b"# br##"c"## b"d" b'e' c"f" r#type"####);
        assert_eq!(v[0], (TokenKind::StrLit, r#"r"a""#));
        assert_eq!(v[2], (TokenKind::StrLit, r##"r#"b"#"##));
        assert_eq!(v[4], (TokenKind::StrLit, r###"br##"c"##"###));
        assert_eq!(v[6], (TokenKind::StrLit, r#"b"d""#));
        assert_eq!(v[8], (TokenKind::CharLit, "b'e'"));
        assert_eq!(v[10], (TokenKind::StrLit, r#"c"f""#));
        assert_eq!(v[12], (TokenKind::Ident, "r#type"));
    }

    #[test]
    fn raw_string_with_quote_and_hash_inside() {
        let src = r###"r##"she said "#hi"# loudly"## tail"###;
        let v = kinds(src);
        assert_eq!(v[0].0, TokenKind::StrLit);
        assert_eq!(v[0].1, r###"r##"she said "#hi"# loudly"##"###);
        roundtrip(src);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* one /* two */ still */ b";
        let v = kinds(src);
        assert_eq!(v[2], (TokenKind::BlockComment, "/* one /* two */ still */"));
        roundtrip(src);
    }

    #[test]
    fn numbers() {
        let v = kinds("1 1.5 1. 1..2 1.0e-3 0xFF_u64 0b1010 1_000usize 2f64 9.max(1)");
        assert_eq!(v[0], (TokenKind::Num, "1"));
        assert_eq!(v[2], (TokenKind::Num, "1.5"));
        assert_eq!(v[4], (TokenKind::Num, "1."));
        assert_eq!(v[6], (TokenKind::Num, "1"));
        assert_eq!(v[7], (TokenKind::Punct, ".."));
        assert_eq!(v[8], (TokenKind::Num, "2"));
        assert_eq!(v[10], (TokenKind::Num, "1.0e-3"));
        assert_eq!(v[12], (TokenKind::Num, "0xFF_u64"));
        assert_eq!(v[14], (TokenKind::Num, "0b1010"));
        assert_eq!(v[16], (TokenKind::Num, "1_000usize"));
        assert_eq!(v[18], (TokenKind::Num, "2f64"));
        // `9.max(1)`: the dot is method access, not a fraction.
        assert_eq!(v[20], (TokenKind::Num, "9"));
        assert_eq!(v[21], (TokenKind::Punct, "."));
        assert_eq!(v[22], (TokenKind::Ident, "max"));
    }

    #[test]
    fn multibyte_punct_joins() {
        let v = kinds("a..=b a::<T>() x <<= 2 y -> z");
        let puncts: Vec<&str> = v
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| *t)
            .collect();
        assert!(puncts.contains(&"..="));
        assert!(puncts.contains(&"::"));
        assert!(puncts.contains(&"<<="));
        assert!(puncts.contains(&"->"));
    }

    #[test]
    fn banned_names_inside_strings_are_strings() {
        let v = kinds(r#"let s = "Instant::now() inside a string"; // SystemTime in comment"#);
        assert!(v
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || !t.contains("Instant")));
        assert_eq!(v.last().unwrap().0, TokenKind::LineComment);
    }

    #[test]
    fn tricky_sources_round_trip() {
        for src in [
            "",
            "'",
            "\"unterminated",
            "/* unterminated /* nest",
            "r###\"unterminated",
            "let x = '\\'';",
            "émoji 🚀 in idents",
            "b'\\xFF' '\\x7f'",
            "x.0.1 + t.1",
            "''",
            "1.",
            "macro_rules! m { ($($t:tt)*) => {} }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn line_index() {
        let idx = LineIndex::new("ab\ncd\n\nx");
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(4), (2, 2));
        assert_eq!(idx.line_col(6), (3, 1));
        assert_eq!(idx.line_col(7), (4, 1));
    }
}
