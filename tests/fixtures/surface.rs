//! The surface meter's lexer fixture (tests/surface.rs). Never compiled.
/* A block comment with a brace { in it, /* a nested one } */ and
   `pub fn hidden_in_a_comment() {` after the nested close. */

pub struct Shape<'a> {
    pub name: &'a str,
}

pub fn braces<'a>(s: &'a str) -> (char, &'a str) {
    let _raw = r#"a raw } string with "quotes" {"#;
    let _plain = "a plain } string with \" an escaped quote {";
    ('a', s)
}

#[cfg(test)]
fn helper() -> usize {
    "}".len() + r##"pub fn in_a_raw_string() { "# }"##.len()
}

pub const AFTER_HELPER: u8 = b'}';

#[cfg(test)]
mod tests {
    #[cfg(test)]
    mod nested {
        pub fn inner() {}
    }

    pub fn in_tests() -> char {
        '{'
    }
}

pub(crate) fn crate_only() {}

impl Shape<'_> {
    pub const fn width(&self) -> usize {
        self.name.len()
    }
}

#[cfg(test)]
#[allow(dead_code)]
pub static TEST_ONLY: Shape<'static> = Shape { name: "}" };

pub trait Named {
    fn name(&self) -> &str;
}
