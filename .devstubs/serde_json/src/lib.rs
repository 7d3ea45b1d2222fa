//! Minimal offline stand-in for serde_json working over the stub serde
//! value tree: a compact/pretty writer and a recursive-descent parser.
//!
//! Strings move in bulk, as in the real crate. The writer scans for the
//! next byte that needs escaping and copies the run before it with one
//! call; the parser scans for the next `"` or `\` and copies the run
//! before it with one `push_str`. Long payloads (the canvas data URLs
//! inside crawl records, tens of KB each) therefore serialize and parse
//! at memory speed rather than one character at a time. The escape set and its
//! spellings (`\"`, `\\`, `\n`, `\r`, `\t`, lowercase `\u00xx`) are
//! fixed: checkpoint CRCs are taken over these exact bytes.

use std::fmt;
use std::io;

use serde::json_value::JsonValue;

#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_json_value(), &mut out);
    Ok(out)
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_json_value(), &mut out, 0);
    Ok(out)
}

/// Serializes `value` as compact JSON straight into `writer`, with no
/// intermediate `String`. Like the real crate, every piece is a separate
/// `write_all`: wrap unbuffered writers (files, sockets) in a
/// `BufWriter`.
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    let mut out = IoSink {
        writer,
        error: None,
    };
    write_value(&value.to_json_value(), &mut out);
    match out.error {
        Some(e) => Err(Error::new(e.to_string())),
        None => Ok(()),
    }
}

pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new("trailing characters"));
    }
    T::from_json_value(&v).map_err(Error::new)
}

/// Where the writers put their output: a `String` or an `io::Write`.
trait Sink {
    fn put(&mut self, s: &str);
    fn put_fmt(&mut self, args: fmt::Arguments<'_>);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        // Formatting into a String cannot fail.
        let _ = fmt::Write::write_fmt(self, args);
    }
}

/// An `io::Write` sink that keeps the first error and drops every write
/// after it, so the writers stay infallible and `to_writer` reports it.
struct IoSink<W> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: io::Write> Sink for IoSink<W> {
    fn put(&mut self, s: &str) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_all(s.as_bytes()) {
                self.error = Some(e);
            }
        }
    }

    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_fmt(args) {
                self.error = Some(e);
            }
        }
    }
}

/// Bytes a JSON string cannot hold raw: the quote, the backslash, and
/// the C0 controls. All are ASCII, so every run between them is whole
/// UTF-8 and copies with one `put`.
fn needs_escape(b: u8) -> bool {
    (b == b'"') | (b == b'\\') | (b < 0x20)
}

/// Index of the first byte at or after `from` that needs escaping, or
/// `bytes.len()`. Whole 32-byte blocks are tested without branching per
/// byte, which the compiler turns into a few vector compares.
fn next_escape(bytes: &[u8], mut from: usize) -> usize {
    while let Some(block) = bytes.get(from..from + 32) {
        if block.iter().fold(false, |hit, &b| hit | needs_escape(b)) {
            break;
        }
        from += 32;
    }
    while from < bytes.len() && !needs_escape(bytes[from]) {
        from += 1;
    }
    from
}

fn write_escaped<S: Sink>(s: &str, out: &mut S) {
    let bytes = s.as_bytes();
    out.put("\"");
    let mut start = 0;
    loop {
        let at = next_escape(bytes, start);
        out.put(&s[start..at]);
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            b => out.put_fmt(format_args!("\\u{:04x}", b)),
        }
        start = at + 1;
    }
    out.put("\"");
}

fn write_num<S: Sink>(n: f64, out: &mut S) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        out.put_fmt(format_args!("{:.1}", n));
    } else {
        out.put_fmt(format_args!("{}", n));
    }
}

fn write_value<S: Sink>(v: &JsonValue, out: &mut S) {
    match v {
        JsonValue::Null => out.put("null"),
        JsonValue::Bool(b) => out.put(if *b { "true" } else { "false" }),
        JsonValue::UInt(n) => out.put_fmt(format_args!("{n}")),
        JsonValue::Int(n) => out.put_fmt(format_args!("{n}")),
        JsonValue::Num(n) => write_num(*n, out),
        JsonValue::Str(s) => write_escaped(s, out),
        JsonValue::Arr(items) => {
            out.put("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                write_value(item, out);
            }
            out.put("]");
        }
        JsonValue::Obj(entries) => {
            out.put("{");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                write_escaped(k, out);
                out.put(":");
                write_value(val, out);
            }
            out.put("}");
        }
    }
}

fn write_pretty(v: &JsonValue, out: &mut String, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        JsonValue::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner);
                write_pretty(item, out, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        JsonValue::Obj(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                out.push_str(&inner);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Index of the first `"` or `\` at or after `from`, or `bytes.len()`:
/// the only bytes that end a run of literal string content.
fn next_string_stop(bytes: &[u8], mut from: usize) -> usize {
    let stop = |b: u8| (b == b'"') | (b == b'\\');
    while let Some(block) = bytes.get(from..from + 32) {
        if block.iter().fold(false, |hit, &b| hit | stop(b)) {
            break;
        }
        from += 32;
    }
    while from < bytes.len() && !stop(bytes[from]) {
        from += 1;
    }
    from
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            let stop = next_string_stop(self.bytes, start);
            // Both ends sit next to an ASCII byte (a quote, a backslash,
            // or the last byte of an escape), so the run is whole UTF-8.
            let run = self
                .src
                .get(start..stop)
                .ok_or_else(|| Error::new("string escape splits a character"))?;
            s.push_str(run);
            let b = self
                .bytes
                .get(stop)
                .copied()
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos = stop + 1;
            if b == b'"' {
                return Ok(s);
            }
            let esc = self
                .peek()
                .ok_or_else(|| Error::new("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    if self.pos + 4 > self.bytes.len() {
                        return Err(Error::new("truncated \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| Error::new("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| Error::new("bad \\u escape"))?;
                    self.pos += 4;
                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(Error::new(format!("bad escape \\{}", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }

    fn array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(Error::new("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(Error::new("expected , or } in object")),
            }
        }
    }
}
