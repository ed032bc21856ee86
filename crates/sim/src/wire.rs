//! The workspace's one JSON grammar: the FNV-1a-64 content digest, the
//! string writer, the fail-closed parser and renderer, typed field
//! extraction, and the atomic temp-and-rename file publisher.
//!
//! Three formats are read back through this grammar, and each has
//! exactly one parser:
//!
//! * checkpoints ([`crate::Checkpoint`]);
//! * `sl-dist` coordinator/worker frames and the DAG shards they carry;
//! * `sl-bench` baselines (the CI gate configuration).
//!
//! `sl-analyze` certificates are only written (their strings through
//! [`push_str`]); the checked-in catalog is judged by its bytes.
//!
//! The grammar:
//!
//! * **strings** are UTF-8; [`push_str`] is the only writer and escapes
//!   `"`, `\` and every control character below U+0020 (`\n`, `\t`,
//!   `\r` by name, the rest as lowercase `\u00XX`). The parser decodes
//!   exactly those escapes and rejects any other, so every string has
//!   one encoding;
//! * **numbers** are unsigned 64-bit decimals, plus non-negative
//!   fixed-point decimals (`d+.d+`) that only baseline ratios use:
//!   [`Json::as_num`] and [`Fields::num`] refuse a decimal, so every
//!   integer field stays integral. Negatives, exponents and leading
//!   zeros are rejected;
//! * **objects** reject duplicate keys while parsing; [`Fields`]
//!   rejects unknown and missing ones (fail-closed);
//! * the canonical encoding is compact ([`Json::render`]: no
//!   whitespace, source field order). Checkpoints and frames (shard
//!   included) are canonical: after every typed check passes, their
//!   parsers re-render the parsed value and reject the document as
//!   `non-canonical` unless that reproduces the input bytes.
//!   Baselines are pretty-printed configuration and exempt.
//!
//! Checksummed formats lead with a `checksum` field, the FNV-1a-64 of
//! the canonical serialization of everything else ([`seal_checksum`]).
//! Nothing here is async or buffered: callers render whole documents
//! and publish them atomically ([`atomic_publish`] / [`atomic_write`]),
//! so a crash mid-write leaves the previous file intact, never a torn
//! mix.

use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a 64-bit over `bytes` — the wire-format content digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identifier charset for workload and mode names: they also name
/// checkpoint files, so they stay plain ASCII.
pub fn ident_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Appends `s` as a JSON string literal — the grammar's one string
/// writer (see the module docs for the escapes).
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a compact JSON array, rendering each item with `each`.
pub fn push_list<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut each: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// Appends a compact JSON array of unsigned decimals.
pub fn push_usizes(out: &mut String, xs: &[usize]) {
    push_list(out, xs, |out, x| {
        let _ = write!(out, "{x}");
    });
}

/// Splices the FNV-1a-64 digest of `body` (a canonical `{...}` object)
/// in as the leading `checksum` field: the full on-wire document.
pub fn seal_checksum(body: &str) -> String {
    let sum = fnv1a64(body.as_bytes());
    format!("{{\"checksum\":{sum},{}", &body[1..])
}

/// The rejection of a document whose bytes are not the canonical
/// rendering of its own parsed value.
pub fn non_canonical(what: &str) -> String {
    format!(
        "non-canonical {what}: re-rendering the parsed {what} does not reproduce its bytes \
         (reflowed whitespace, reordered fields or a non-canonical number; fail-closed)"
    )
}

/// Publishes `contents` atomically via an explicit temp path: full
/// write to `tmp`, then `rename` over `path`. The visible file is
/// always a complete document — a crash mid-write leaves the previous
/// one intact.
pub fn atomic_publish(tmp: &Path, path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(tmp, contents.as_bytes())
        .map_err(|e| format!("writing temp file {}: {e}", tmp.display()))?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        format!(
            "publishing {} (rename from {}): {e}",
            path.display(),
            tmp.display()
        )
    })?;
    Ok(())
}

/// Publishes `contents` atomically via a process-unique sibling temp
/// file (`{path}.tmp.{pid}`) — the discipline shared by the checkpoint
/// store and the baseline refresher.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    atomic_publish(Path::new(&tmp), path, contents)
}

// ---------------------------------------------------------------------
// The parsed value and its canonical renderer
// ---------------------------------------------------------------------

/// A parsed JSON value (see the module docs for the grammar).
#[derive(Clone, Debug)]
pub enum Json {
    /// A string literal, escapes decoded.
    Str(String),
    /// An unsigned decimal.
    Num(u64),
    /// A non-negative fixed-point decimal (`d+.d+`), kept as written.
    Dec(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as an unsigned integer, or a named diagnostic.
    pub fn as_num(&self, ctx: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::Dec(d) => Err(format!(
                "{ctx}: floating-point number {d} where an unsigned integer is required"
            )),
            other => Err(format!(
                "{ctx}: expected an unsigned integer, found {other:?}"
            )),
        }
    }

    /// Appends the canonical compact rendering: no whitespace, field
    /// order preserved, strings through [`push_str`].
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Str(s) => push_str(out, s),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Dec(d) => out.push_str(d),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => push_list(out, items, |out, item| item.render(out)),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------
// The fail-closed parser
// ---------------------------------------------------------------------

/// The fail-closed document parser. `what` names the document kind in
/// diagnostics ("checkpoint", "frame", ...), so every consumer's
/// rejections stay self-describing.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    what: &'static str,
}

impl<'a> Parser<'a> {
    /// A parser over `text` for a document kind named `what`.
    pub fn new(text: &'a str, what: &'static str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            line: 1,
            what,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{} line {}: {msg}", self.what, self.line)
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.byte(self.pos) {
            match b {
                b'\n' => self.line += 1,
                b' ' | b'\t' | b'\r' => {}
                _ => break,
            }
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.byte(self.pos).ok_or_else(|| {
            self.err(&format!(
                "unexpected end of input (truncated {}?)",
                self.what
            ))
        })
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(self.err(&format!(
                "expected '{}', found '{}'",
                b as char, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    /// Parses the single top-level value and rejects trailing garbage.
    pub fn parse_document(mut self) -> Result<Json, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err(&format!("trailing garbage after the {} value", self.what)));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.parse_obj(),
            b'[' => self.parse_arr(),
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b'0'..=b'9' => self.parse_num(),
            b't' | b'f' => self.parse_bool(),
            b'-' => Err(self.err(&format!(
                "negative numbers are not part of the {} format",
                self.what
            ))),
            _ => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                Err(self.err(&format!("unexpected character {c:?}")))
            }
        }
    }

    fn parse_obj(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!(
                    "duplicate key \"{key}\" (fail-closed: refusing to pick one)"
                )));
            }
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                c => return Err(self.err(&format!("expected ',' or '}}', found '{}'", c as char))),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => return Err(self.err(&format!("expected ',' or ']', found '{}'", c as char))),
            }
        }
    }

    /// Decodes one string literal: verbatim UTF-8 runs plus exactly the
    /// escapes [`push_str`] writes.
    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Stops only on ASCII bytes, so both ends are char boundaries.
            let start = self.pos;
            while matches!(self.byte(self.pos), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            s.push_str(&self.text[start..self.pos]);
            let Some(b) = self.byte(self.pos) else {
                return Err(self.err(&format!("unterminated string (truncated {}?)", self.what)));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let (c, len) = self.escape()?;
                    s.push(c);
                    self.pos += len;
                }
                _ => {
                    return Err(self.err(&format!(
                        "raw control character U+{b:04X} inside a string (it must be escaped)"
                    )))
                }
            }
        }
    }

    /// The escape at `pos` as (decoded char, byte length).
    fn escape(&self) -> Result<(char, usize), String> {
        let named = match self.byte(self.pos + 1) {
            Some(b'"') => Some('"'),
            Some(b'\\') => Some('\\'),
            Some(b'n') => Some('\n'),
            Some(b't') => Some('\t'),
            Some(b'r') => Some('\r'),
            _ => None,
        };
        if let Some(c) = named {
            return Ok((c, 2));
        }
        let control = self
            .text
            .get(self.pos + 1..self.pos + 6)
            .and_then(|e| e.strip_prefix("u00"))
            .filter(|hex| hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .filter(|&c| c < 0x20 && !matches!(c, 0x09 | 0x0a | 0x0d))
            .and_then(char::from_u32);
        control.map(|c| (c, 6)).ok_or_else(|| {
            self.err(&format!(
                "unsupported escape sequence in a {} string (only \\\" \\\\ \\n \\t \\r and \
                 lowercase \\u00XX for other control characters are part of the format)",
                self.what
            ))
        })
    }

    fn parse_num(&mut self) -> Result<Json, String> {
        let digits = |p: &mut Parser<'_>| {
            let start = p.pos;
            while matches!(p.byte(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - start
        };
        let start = self.pos;
        let int_len = digits(self);
        if int_len > 1 && self.byte(start) == Some(b'0') {
            return Err(self.err(&format!(
                "leading zeros are not part of the {} format",
                self.what
            )));
        }
        let decimal = self.byte(self.pos) == Some(b'.');
        if decimal {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(self.err("malformed decimal: digits must follow the point"));
            }
        }
        if matches!(self.byte(self.pos), Some(b'e' | b'E')) {
            return Err(self.err(&format!(
                "floating-point exponents are not part of the {} format",
                self.what
            )));
        }
        let text = &self.text[start..self.pos];
        if decimal {
            return Ok(Json::Dec(text.to_string()));
        }
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("number {text} does not fit in u64")))
    }

    fn parse_bool(&mut self) -> Result<Json, String> {
        for (word, value) in [("true", true), ("false", false)] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(self.err("expected 'true' or 'false'"))
    }
}

// ---------------------------------------------------------------------
// Typed field extraction
// ---------------------------------------------------------------------

/// Typed, fail-closed field extraction from a parsed object: every key
/// must be known, every key asked for must be present.
pub struct Fields {
    fields: Vec<(String, Json)>,
    ctx: String,
}

impl Fields {
    /// Wraps an [`Json::Obj`]; anything else is a named rejection.
    pub fn new(v: Json, ctx: impl Into<String>) -> Result<Fields, String> {
        let ctx = ctx.into();
        match v {
            Json::Obj(fields) => Ok(Fields { fields, ctx }),
            other => Err(format!("{ctx}: expected an object, found {other:?}")),
        }
    }

    /// Wraps an object whose key set must be exactly `keys`: an unknown
    /// key, then a missing one, is a named rejection.
    pub fn exact(v: Json, ctx: impl Into<String>, keys: &[&str]) -> Result<Fields, String> {
        let f = Fields::new(v, ctx)?;
        f.allow(keys)?;
        if let Some(k) = keys.iter().find(|k| !f.fields.iter().any(|(f, _)| f == *k)) {
            return Err(format!("{}: missing required field \"{k}\"", f.ctx));
        }
        Ok(f)
    }

    /// Rejects any key outside `keys` (fail-closed).
    pub fn allow(&self, keys: &[&str]) -> Result<(), String> {
        match self
            .fields
            .iter()
            .find(|(k, _)| !keys.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!(
                "{}: unknown field \"{k}\" (fail-closed: refusing to guess)",
                self.ctx
            )),
            None => Ok(()),
        }
    }

    /// Removes and returns the named field, or a named rejection.
    pub fn take(&mut self, key: &str) -> Result<Json, String> {
        let i = self
            .fields
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("{}: missing required field \"{key}\"", self.ctx))?;
        Ok(self.fields.remove(i).1)
    }

    fn mistyped(&self, key: &str, want: &str, found: &Json) -> String {
        format!("{}: \"{key}\" must be {want}, found {found:?}", self.ctx)
    }

    /// The named field as an unsigned integer.
    pub fn num(&mut self, key: &str) -> Result<u64, String> {
        match self.take(key)? {
            Json::Num(n) => Ok(n),
            other => other.as_num(&format!("{}: \"{key}\"", self.ctx)),
        }
    }

    /// The named field as a string.
    pub fn string(&mut self, key: &str) -> Result<String, String> {
        match self.take(key)? {
            Json::Str(s) => Ok(s),
            other => Err(self.mistyped(key, "a string", &other)),
        }
    }

    /// The named field as an array.
    pub fn array(&mut self, key: &str) -> Result<Vec<Json>, String> {
        match self.take(key)? {
            Json::Arr(items) => Ok(items),
            other => Err(self.mistyped(key, "an array", &other)),
        }
    }

    /// The named field as an array of unsigned integers.
    pub fn usizes(&mut self, key: &str) -> Result<Vec<usize>, String> {
        let ctx = format!("{}: \"{key}\" entry", self.ctx);
        self.array(key)?
            .iter()
            .map(|v| v.as_num(&ctx).map(|n| n as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_checksum_matches_manual_digest() {
        let body = "{\"version\":1,\"x\":2}";
        let sealed = seal_checksum(body);
        let sum = fnv1a64(body.as_bytes());
        assert_eq!(
            sealed,
            format!("{{\"checksum\":{sum},\"version\":1,\"x\":2}}")
        );
    }

    #[test]
    fn parser_names_the_document_kind() {
        let err = Parser::new("{\"a\":", "frame")
            .parse_document()
            .unwrap_err();
        assert!(err.contains("truncated frame"), "diagnostic: {err}");
        let err = Parser::new("{\"a\":-1}", "frame")
            .parse_document()
            .unwrap_err();
        assert!(
            err.contains("not part of the frame format"),
            "diagnostic: {err}"
        );
    }

    fn parse(text: &str) -> Result<Json, String> {
        Parser::new(text, "doc").parse_document()
    }

    #[test]
    fn strings_round_trip_through_the_one_escape_set() {
        let s = "q\"b\\n\nt\tr\r\u{0}\u{1f}\u{7f}\u{85}é—😀";
        let mut text = String::new();
        push_str(&mut text, s);
        assert_eq!(
            text,
            "\"q\\\"b\\\\n\\nt\\tr\\r\\u0000\\u001f\u{7f}\u{85}é—😀\""
        );
        let Json::Str(back) = parse(&text).unwrap() else {
            panic!("not a string")
        };
        assert_eq!(back, s);
        // Escapes push_str never writes, and raw control characters,
        // are rejected: every string has exactly one encoding.
        for bad in [
            "\"\\/\"",
            "\"\\u0041\"",
            "\"\\u000a\"",
            "\"\\u001F\"",
            "\"\\b\"",
            "\"\\u00\"",
            "\"a\tb\"",
            "\"a\nb\"",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.contains("escape") || err.contains("raw control"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn numbers_are_unsigned_integers_or_fixed_point_decimals() {
        assert!(matches!(
            parse("18446744073709551615"),
            Ok(Json::Num(u64::MAX))
        ));
        assert!(matches!(parse("0"), Ok(Json::Num(0))));
        let Ok(Json::Dec(d)) = parse("0.95") else {
            panic!("decimal")
        };
        assert_eq!(d, "0.95");
        let err = Json::Dec(d).as_num("ratio").unwrap_err();
        assert!(err.contains("floating-point"), "{err}");
        for (bad, needle) in [
            (".95", "unexpected character"),
            ("1.", "digits must follow"),
            ("1e5", "exponents"),
            ("1.5E2", "exponents"),
            ("007", "leading zeros"),
            ("-1", "negative"),
            ("18446744073709551616", "does not fit"),
            ("null", "unexpected character"),
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn render_is_the_compact_inverse_of_parse() {
        let text = "{\"a\":[1,2.50,true,\"x\\u0001\"],\"b\":{},\"c\":[]}";
        let mut out = String::new();
        parse(text).unwrap().render(&mut out);
        assert_eq!(out, text);
    }

    #[test]
    fn fields_name_unknown_missing_and_mistyped_keys() {
        let obj = || parse("{\"a\":1,\"b\":\"x\"}").unwrap();
        let err = Fields::exact(obj(), "doc", &["a"]).err().unwrap();
        assert!(err.contains("unknown field \"b\""), "{err}");
        let err = Fields::exact(obj(), "doc", &["a", "b", "c"]).err().unwrap();
        assert!(err.contains("missing required field \"c\""), "{err}");
        let mut f = Fields::exact(obj(), "doc", &["a", "b"]).unwrap();
        assert!(f.string("a").unwrap_err().contains("must be a string"));
        assert!(f
            .num("b")
            .unwrap_err()
            .contains("expected an unsigned integer"));
        let mut f = Fields::new(parse("{\"xs\":[3,1]}").unwrap(), "doc").unwrap();
        assert_eq!(f.usizes("xs").unwrap(), vec![3, 1]);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("sl-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        atomic_write(&path, "{\"x\":1}").unwrap();
        atomic_write(&path, "{\"x\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"x\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "doc.json")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
