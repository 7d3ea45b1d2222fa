//! Oracles for the JSON stand-in's bulk string paths.
//!
//! The stand-in (`serde_json`, patched in from `.devstubs/`) escapes and
//! unescapes strings a run at a time. The char-at-a-time escape and the
//! byte-at-a-time unescape it replaced live on here as references: the
//! stand-in is not a workspace member, so tests placed in it never run,
//! and every checkpoint CRC depends on the escaped bytes staying exactly
//! what these oracles produce. The derive stand-in's one field attribute,
//! `#[serde(skip)]`, is round-tripped here for the same reason.

/// The char-at-a-time escape: a JSON string literal for `s`.
fn escape_oracle(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The byte-at-a-time unescape of one whole JSON string literal; `None`
/// wherever the old parser returned an error.
fn unescape_oracle(literal: &str) -> Option<String> {
    let bytes = literal.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    let mut pos = 1;
    let mut s = String::new();
    loop {
        let b = *bytes.get(pos)?;
        pos += 1;
        match b {
            b'"' => return (pos == bytes.len()).then_some(s),
            b'\\' => {
                let esc = *bytes.get(pos)?;
                pos += 1;
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
                        let hex = std::str::from_utf8(bytes.get(pos..pos + 4)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        pos += 4;
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return None,
                }
            }
            b if b < 0x80 => s.push(b as char),
            _ => {
                let start = pos - 1;
                let c = std::str::from_utf8(&bytes[start..]).ok()?.chars().next()?;
                s.push(c);
                pos = start + c.len_utf8();
            }
        }
    }
}

/// One character of every class the escape and the scan treat
/// differently: each escape spelling, the C0 range ends, DEL (not
/// escaped), and 2- and 4-byte UTF-8.
const SPECIALS: [&str; 10] = [
    "\"", "\\", "\n", "\r", "\t", "\x01", "\x1f", "\x7f", "é", "😃",
];

/// Byte offsets at and around each 32-byte block boundary below `len`,
/// plus the last byte.
fn offsets_near_blocks(len: usize) -> impl Iterator<Item = usize> {
    (0..len).filter(move |&i| matches!(i % 32, 0 | 1 | 30 | 31) || i + 1 == len)
}

fn assert_matches_oracle(s: &str) {
    let json = serde_json::to_string(s).unwrap();
    assert_eq!(json, escape_oracle(s), "escape of {s:?}");
    assert_eq!(
        serde_json::from_str::<String>(&json).unwrap(),
        s,
        "round trip of {s:?}"
    );
    assert_eq!(
        unescape_oracle(&json).as_deref(),
        Some(s),
        "oracle on {json:?}"
    );
}

#[test]
fn bulk_escape_matches_the_oracle_around_block_boundaries() {
    for len in 0..=100 {
        assert_matches_oracle(&"a".repeat(len));
        for special in SPECIALS {
            for at in offsets_near_blocks(len) {
                let s = format!("{}{special}{}", "a".repeat(at), "b".repeat(len - at - 1));
                assert_matches_oracle(&s);
            }
            // Nothing but the special: every byte is a stop.
            assert_matches_oracle(&special.repeat(len));
        }
    }
    // Every special in one string, shifted across a block boundary.
    for shift in 0..40 {
        assert_matches_oracle(&format!("{}{}", "x".repeat(shift), SPECIALS.concat()));
    }
}

#[test]
fn parse_handles_every_escape_and_matches_the_oracle() {
    let literals = [
        r#""a\/b\bc\fd""#,
        r#""\u0041\u00e9\u263a\u0000\u001F""#,
        r#""\"\\\n\r\t""#,
        // A lone surrogate decodes to U+FFFD; so does each half of a pair.
        r#""\ud83d""#,
        r#""x\ud83d\ude03y""#,
        // Raw control characters and DEL are accepted as they stand.
        "\"tab\there\x7f\"",
        "\"é😃 mixed \\u00e9\"",
    ];
    for literal in literals {
        let parsed: String = serde_json::from_str(literal).unwrap();
        assert_eq!(Some(parsed), unescape_oracle(literal), "{literal}");
    }
    assert_eq!(
        serde_json::from_str::<String>(r#""\ud83d""#).unwrap(),
        "\u{fffd}"
    );
    // Escapes at and around block boundaries in a long run.
    for pad in 0..70 {
        for esc in [r"\/", r"\b", r"\f", r"\u263a", r"\ud800", r#"\""#] {
            let literal = format!("\"{}{esc}{}\"", "p".repeat(pad), "q".repeat(pad));
            let parsed: String = serde_json::from_str(&literal).unwrap();
            assert_eq!(Some(parsed), unescape_oracle(&literal), "{literal}");
        }
    }
}

#[test]
fn malformed_strings_fail_like_the_oracle() {
    for literal in [
        r#""unterminated"#,
        r#""dangling\"#,
        r#""bad \q escape""#,
        r#""short \u12""#,
        r#""not hex \uzzzz""#,
        "\"non-ascii escape \\é\"",
    ] {
        assert!(
            serde_json::from_str::<String>(literal).is_err(),
            "{literal}"
        );
        assert_eq!(unescape_oracle(literal), None, "{literal}");
    }
}

#[test]
fn to_writer_writes_the_bytes_of_to_string() {
    let values = vec![
        "plain".to_string(),
        "quote \" slash \\ nl \n ctl \x02 emoji 😃".to_string(),
        "a".repeat(1000),
    ];
    let mut buf = Vec::new();
    serde_json::to_writer(&mut buf, &values).unwrap();
    assert_eq!(buf, serde_json::to_string(&values).unwrap().into_bytes());

    /// Accepts a few bytes, then fails every write.
    struct Full(usize);
    impl std::io::Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.0 == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.0);
            self.0 -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let err = serde_json::to_writer(Full(5), &values).unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
}

/// `#[serde(skip)]`, as real serde reads it: the field is never written,
/// and reading fills it with `Default` (an empty cache cell here).
#[test]
fn serde_skip_fields_are_not_written_and_read_as_default() {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Serialize, Deserialize)]
    struct Record {
        id: u64,
        /// A cache, not data.
        #[serde(skip)]
        memo: std::sync::OnceLock<u64>,
        #[serde(skip)]
        scratch: Vec<String>,
        name: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Event {
        Seen {
            #[serde(skip)]
            cached: Option<u32>,
            at: u64,
        },
        Gone,
    }

    let r = Record {
        id: 7,
        memo: std::sync::OnceLock::from(99),
        scratch: vec!["x".into()],
        name: "a\"b".into(),
    };
    let json = serde_json::to_string(&r).unwrap();
    assert_eq!(json, r#"{"id":7,"name":"a\"b"}"#);
    let back: Record = serde_json::from_str(&json).unwrap();
    assert_eq!((back.id, back.name.as_str()), (7, "a\"b"));
    assert_eq!(back.memo.get(), None);
    assert!(back.scratch.is_empty());
    // A skipped field present in the input is ignored, as in real serde.
    let back: Record = serde_json::from_str(r#"{"id":1,"memo":5,"name":""}"#).unwrap();
    assert_eq!(back.memo.get(), None);

    let e = Event::Seen {
        cached: Some(3),
        at: 12,
    };
    let json = serde_json::to_string(&e).unwrap();
    assert_eq!(json, r#"{"Seen":{"at":12}}"#);
    let back: Event = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back,
        Event::Seen {
            cached: None,
            at: 12
        }
    );
    let gone: Event = serde_json::from_str(&serde_json::to_string(&Event::Gone).unwrap()).unwrap();
    assert_eq!(gone, Event::Gone);
}
