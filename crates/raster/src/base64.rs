//! Standard (RFC 4648) base64 encoding and decoding.
//!
//! `toDataURL` returns `data:<mime>;base64,<payload>`; we implement the
//! codec from scratch so the crate has no image/encoding dependencies.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with `=` padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::new();
    encode_into(data, &mut out);
    out
}

/// Appends the standard base64 encoding of `data` (with `=` padding) to
/// `out`, growing it once to the final length.
pub fn encode_into(data: &[u8], out: &mut String) {
    let mut buf = std::mem::take(out).into_bytes();
    let start = buf.len();
    buf.resize(start + data.len().div_ceil(3) * 4, 0);
    let (body, tail) = buf[start..].split_at_mut(data.len() / 3 * 4);
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 63];
    let mut groups = data.chunks_exact(3);
    for (src, dst) in (&mut groups).zip(body.chunks_exact_mut(4)) {
        let n = (src[0] as u32) << 16 | (src[1] as u32) << 8 | src[2] as u32;
        dst.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    match *groups.remainder() {
        [b0] => {
            let n = (b0 as u32) << 16;
            tail.copy_from_slice(&[sextet(n, 18), sextet(n, 12), b'=', b'=']);
        }
        [b0, b1] => {
            let n = (b0 as u32) << 16 | (b1 as u32) << 8;
            tail.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), b'=']);
        }
        _ => {}
    }
    *out = String::from_utf8(buf).unwrap_or_else(|_| unreachable!("base64 output is ASCII"));
}

/// Decodes standard base64 (padding required for trailing groups, matching
/// what `encode` produces; whitespace is not accepted). Returns `None` on
/// any invalid input.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || (!last && pad > 0) {
            return None;
        }
        // Padding may only be trailing within the final group.
        if pad >= 1 && chunk[3] != b'=' {
            return None;
        }
        if pad == 2 && chunk[2] != b'=' {
            return None;
        }
        let v0 = val(chunk[0])?;
        let v1 = val(chunk[1])?;
        let v2 = if pad >= 2 { 0 } else { val(chunk[2])? };
        let v3 = if pad >= 1 { 0 } else { val(chunk[3])? };
        let n = (v0 << 18) | (v1 << 12) | (v2 << 6) | v3;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_test_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn encode_into_appends_after_existing_text() {
        let mut out = String::from("data:image/png;base64,");
        encode_into(b"fooba", &mut out);
        assert_eq!(out, "data:image/png;base64,Zm9vYmE=");
    }

    #[test]
    fn decode_roundtrip() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd", &[0u8, 255, 128, 7]] {
            assert_eq!(decode(&encode(data)).unwrap(), data);
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert!(decode("Zg=").is_none()); // bad length
        assert!(decode("Z!==").is_none()); // bad char
        assert!(decode("====").is_none()); // too much padding
        assert!(decode("Zg==Zg==").is_none()); // padding mid-stream
        assert!(decode("Zm9vZg==").is_some()); // multiple groups fine
    }

    #[cfg(test)]
    mod props {
        // The proptest stub swallows test bodies; imports look unused.
        #![allow(unused_imports)]
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrips(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                prop_assert_eq!(decode(&encode(&data)).unwrap(), data);
            }

            #[test]
            fn output_length_is_padded_multiple_of_four(data in proptest::collection::vec(any::<u8>(), 0..128)) {
                prop_assert_eq!(encode(&data).len() % 4, 0);
            }
        }
    }
}
