//! Minimal PNG encoder (and the checksums it needs), from scratch.
//!
//! The encoder emits a spec-valid PNG: IHDR + IDAT + IEND, 8-bit RGBA,
//! filter type 0 on every row, wrapped in a zlib stream that uses *stored*
//! (uncompressed) DEFLATE blocks. Stored blocks keep the implementation
//! small and the output byte-exact and deterministic — which is what canvas
//! clustering relies on. A matching decoder for our own output is provided
//! for tests and for `drawImage` of data URLs.
//!
//! [`crc32`] / [`Crc32`] is the workspace's one CRC-32: the crawler's
//! checkpoint and segment frames use it too.

use crate::surface::Surface;

/// Slice-by-8 lookup tables for the reflected CRC-32 polynomial: row 0 is
/// the classic byte table, row `k` advances a byte through `k` further
/// zero bytes. Built at compile time, so there is no lazy initialization.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (ISO 3309 / IEEE 802.3, as used by PNG chunks, zlib
/// and the crawler's checkpoint frames): feed bytes with
/// [`Crc32::update`] in any split, read the checksum with
/// [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over zero bytes.
    pub const fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Folds `data` into the running checksum, eight bytes per step.
    pub fn update(&mut self, data: &[u8]) -> &mut Crc32 {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][lo as u8 as usize]
                ^ t[6][(lo >> 8) as u8 as usize]
                ^ t[5][(lo >> 16) as u8 as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][hi as u8 as usize]
                ^ t[2][(hi >> 8) as u8 as usize]
                ^ t[1][(hi >> 16) as u8 as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
        }
        self.state = crc;
        self
    }

    /// The CRC-32 of every byte fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Folds `data` into a running Adler-32 value (a fresh stream starts at 1).
fn adler32_update(adler: u32, data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a = adler & 0xffff;
    let mut b = adler >> 16;
    // 5552 is the longest run for which `b` cannot overflow before the
    // reduction.
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Adler-32 checksum, as used by zlib streams.
pub fn adler32(data: &[u8]) -> u32 {
    adler32_update(1, data)
}

/// Longest payload of one stored DEFLATE block.
const STORED_BLOCK_MAX: usize = 65535;

/// zlib header: deflate, 32k window, no preset dictionary, fastest (a
/// checksum-valid CMF/FLG pair).
const ZLIB_HEADER: [u8; 2] = [0x78, 0x01];

/// Writes a zlib stream of stored DEFLATE blocks around a payload of
/// known total length straight into an output buffer, cutting blocks at
/// [`STORED_BLOCK_MAX`] bytes wherever they fall in the pieces it is fed
/// and keeping the payload's Adler-32 as it goes.
struct StoredBlocks {
    /// Payload bytes not yet written.
    remaining: usize,
    /// Payload bytes the open block still takes.
    block_left: usize,
    adler: u32,
}

impl StoredBlocks {
    /// Bytes of the whole stream around `len` payload bytes: header, one
    /// 5-byte block header per block (at least one, even when empty), and
    /// the Adler-32 trailer.
    fn stream_len(len: usize) -> usize {
        ZLIB_HEADER.len() + len.div_ceil(STORED_BLOCK_MAX).max(1) * 5 + len + 4
    }

    /// Writes the zlib header and opens the first block; an empty payload
    /// is exactly that one final, empty block.
    fn begin(out: &mut Vec<u8>, len: usize) -> StoredBlocks {
        out.extend_from_slice(&ZLIB_HEADER);
        let mut blocks = StoredBlocks {
            remaining: len,
            block_left: 0,
            adler: 1,
        };
        blocks.open_block(out);
        blocks
    }

    fn open_block(&mut self, out: &mut Vec<u8>) {
        let len = self.remaining.min(STORED_BLOCK_MAX);
        out.push(u8::from(len == self.remaining)); // BFINAL, BTYPE=00 stored
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&(!(len as u16)).to_le_bytes());
        self.block_left = len;
    }

    fn write(&mut self, out: &mut Vec<u8>, mut data: &[u8]) {
        assert!(data.len() <= self.remaining, "payload longer than declared");
        while !data.is_empty() {
            if self.block_left == 0 {
                self.open_block(out);
            }
            let (piece, rest) = data.split_at(data.len().min(self.block_left));
            out.extend_from_slice(piece);
            self.adler = adler32_update(self.adler, piece);
            self.block_left -= piece.len();
            self.remaining -= piece.len();
            data = rest;
        }
    }

    /// Closes the stream with the Adler-32 trailer.
    fn finish(self, out: &mut Vec<u8>) {
        assert_eq!(self.remaining, 0, "payload shorter than declared");
        out.extend_from_slice(&self.adler.to_be_bytes());
    }
}

/// Wraps raw bytes in a zlib stream of stored DEFLATE blocks.
#[cfg(test)]
fn zlib_store(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut blocks = StoredBlocks::begin(&mut out, data.len());
    blocks.write(&mut out, data);
    blocks.finish(&mut out);
    out
}

/// Inflates a zlib stream consisting of stored blocks only (the format
/// [`encode`] writes). Returns `None` for anything else.
pub fn zlib_unstore(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 6 {
        return None;
    }
    let mut pos = 2; // skip CMF/FLG
    let mut out = Vec::new();
    loop {
        let header = *data.get(pos)?;
        pos += 1;
        if header & 0b110 != 0 {
            return None; // not a stored block
        }
        let len = u16::from_le_bytes([*data.get(pos)?, *data.get(pos + 1)?]) as usize;
        let nlen = u16::from_le_bytes([*data.get(pos + 2)?, *data.get(pos + 3)?]);
        if !(len as u16) != nlen {
            return None;
        }
        pos += 4;
        out.extend_from_slice(data.get(pos..pos + len)?);
        pos += len;
        if header & 1 == 1 {
            break;
        }
    }
    let sum = u32::from_be_bytes([
        *data.get(pos)?,
        *data.get(pos + 1)?,
        *data.get(pos + 2)?,
        *data.get(pos + 3)?,
    ]);
    if sum != adler32(&out) {
        return None;
    }
    Some(out)
}

/// Appends a chunk whose body is already in memory; the CRC covers the
/// tag and body where they land in `out`.
fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    let start = out.len();
    out.extend_from_slice(tag);
    out.extend_from_slice(body);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// PNG magic bytes.
pub const PNG_SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a];

/// Encodes a surface as an RGBA8 PNG.
///
/// Single pass: each filter-0 scanline is copied once, straight from the
/// surface into the IDAT chunk's stored blocks, and the chunk CRC and the
/// zlib Adler-32 are folded in while the bytes are still in cache.
pub fn encode(surface: &Surface) -> Vec<u8> {
    let w = surface.width();
    let h = surface.height();
    let stride = w as usize * 4;
    let raw_len = (stride + 1) * h as usize;
    let idat_len = StoredBlocks::stream_len(raw_len);
    // Signature, then IHDR, IDAT and IEND with 12 framing bytes each.
    let mut out = Vec::with_capacity(PNG_SIGNATURE.len() + (12 + 13) + (12 + idat_len) + 12);
    out.extend_from_slice(&PNG_SIGNATURE);

    let mut ihdr = [0u8; 13];
    ihdr[0..4].copy_from_slice(&w.to_be_bytes());
    ihdr[4..8].copy_from_slice(&h.to_be_bytes());
    ihdr[8] = 8; // bit depth
    ihdr[9] = 6; // color type RGBA; compression, filter, interlace all 0
    chunk(&mut out, b"IHDR", &ihdr);

    out.extend_from_slice(&(idat_len as u32).to_be_bytes());
    let mut crc = Crc32::new();
    let mut unsummed = out.len();
    out.extend_from_slice(b"IDAT");
    let mut blocks = StoredBlocks::begin(&mut out, raw_len);
    let data = surface.data();
    for row in 0..h as usize {
        blocks.write(&mut out, &[0]); // filter type 0
        blocks.write(&mut out, &data[row * stride..(row + 1) * stride]);
        crc.update(&out[unsummed..]);
        unsummed = out.len();
    }
    blocks.finish(&mut out);
    crc.update(&out[unsummed..]);
    out.extend_from_slice(&crc.finish().to_be_bytes());

    chunk(&mut out, b"IEND", &[]);
    out
}

/// Decodes a PNG produced by [`encode`] (RGBA8, filter 0, stored-block
/// zlib). Used by tests and by `drawImage` of our own data URLs. Returns
/// `None` for foreign PNGs.
pub fn decode(data: &[u8]) -> Option<Surface> {
    if data.len() < 8 || data[..8] != PNG_SIGNATURE {
        return None;
    }
    let mut pos = 8;
    let mut width = 0u32;
    let mut height = 0u32;
    let mut idat = Vec::new();
    while pos + 8 <= data.len() {
        let len = u32::from_be_bytes(data[pos..pos + 4].try_into().ok()?) as usize;
        let tag = &data[pos + 4..pos + 8];
        let body = data.get(pos + 8..pos + 8 + len)?;
        match tag {
            b"IHDR" => {
                if body.len() != 13 || body[8] != 8 || body[9] != 6 {
                    return None;
                }
                width = u32::from_be_bytes(body[0..4].try_into().ok()?);
                height = u32::from_be_bytes(body[4..8].try_into().ok()?);
            }
            b"IDAT" => idat.extend_from_slice(body),
            b"IEND" => break,
            _ => {}
        }
        pos += 8 + len + 4; // skip CRC
    }
    let raw = zlib_unstore(&idat)?;
    let stride = width as usize * 4;
    if raw.len() != (stride + 1) * height as usize {
        return None;
    }
    let mut surface = Surface::new(width, height);
    for row in 0..height as usize {
        let line = &raw[row * (stride + 1)..(row + 1) * (stride + 1)];
        if line[0] != 0 {
            return None; // only filter 0 supported
        }
        surface.data_mut()[row * stride..(row + 1) * stride].copy_from_slice(&line[1..]);
    }
    Some(surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;

    /// The textbook bit-at-a-time CRC-32: the oracle the table-driven
    /// implementation is checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn noise_surface(w: u32, h: u32, seed: u64) -> Surface {
        let mut s = Surface::new(w, h);
        let bytes = noise(s.data().len(), seed);
        s.data_mut().copy_from_slice(&bytes);
        s
    }

    /// The two-pass encoder the single-pass [`encode`] replaced: copy the
    /// filtered scanlines, wrap them in stored blocks, then CRC a copy of
    /// each chunk's tag and body with the bitwise oracle.
    fn reference_encode(surface: &Surface) -> Vec<u8> {
        fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: &[u8]) {
            out.extend_from_slice(&(body.len() as u32).to_be_bytes());
            out.extend_from_slice(tag);
            out.extend_from_slice(body);
            let crc_input = [&tag[..], body].concat();
            out.extend_from_slice(&crc32_bitwise(&crc_input).to_be_bytes());
        }
        let (w, h) = (surface.width(), surface.height());
        let stride = w as usize * 4;
        let mut raw = Vec::new();
        for row in 0..h as usize {
            raw.push(0);
            raw.extend_from_slice(&surface.data()[row * stride..(row + 1) * stride]);
        }
        let mut z = vec![0x78, 0x01];
        if raw.is_empty() {
            z.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
        }
        let blocks = raw.chunks(65535).count();
        for (i, block) in raw.chunks(65535).enumerate() {
            let len = block.len() as u16;
            z.push(u8::from(i + 1 == blocks));
            z.extend_from_slice(&len.to_le_bytes());
            z.extend_from_slice(&(!len).to_le_bytes());
            z.extend_from_slice(block);
        }
        z.extend_from_slice(&adler32(&raw).to_be_bytes());

        let mut out = PNG_SIGNATURE.to_vec();
        let mut ihdr = Vec::new();
        ihdr.extend_from_slice(&w.to_be_bytes());
        ihdr.extend_from_slice(&h.to_be_bytes());
        ihdr.extend_from_slice(&[8, 6, 0, 0, 0]);
        chunk(&mut out, b"IHDR", &ihdr);
        chunk(&mut out, b"IDAT", &z);
        chunk(&mut out, b"IEND", &[]);
        out
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_offset_and_split() {
        let buf = noise(4096 + 8, 0x5eed);
        let lens = (0..=300).chain([511, 512, 513, 1023, 4095, 4096]);
        for len in lens {
            for offset in 0..8 {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "len {len} offset {offset}");
                for split in [1, 3, 7, 8, 9, 64] {
                    let mut crc = Crc32::new();
                    for piece in data.chunks(split) {
                        crc.update(piece);
                    }
                    assert_eq!(
                        crc.finish(),
                        want,
                        "len {len} offset {offset} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_matches_the_two_pass_reference() {
        // (64, 255) fills exactly one stored block; (64, 510) exactly two;
        // (128, 128) and (300, 150) cut a block inside a scanline.
        let sizes = [
            (0, 0),
            (0, 3),
            (3, 0),
            (1, 1),
            (5, 3),
            (64, 255),
            (64, 510),
            (128, 128),
            (300, 150),
        ];
        for (i, (w, h)) in sizes.into_iter().enumerate() {
            let s = noise_surface(w, h, i as u64 + 1);
            let png = encode(&s);
            assert_eq!(png, reference_encode(&s), "{w}x{h}");
            assert_eq!(png.len(), png.capacity(), "{w}x{h} pre-sized exactly");
            assert_eq!(decode(&png).unwrap(), s, "{w}x{h}");
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b"IEND"), 0xae426082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e60398);
    }

    #[test]
    fn zlib_roundtrip() {
        for data in [&b""[..], b"hello", &vec![7u8; 200_000][..]] {
            let z = zlib_store(data);
            assert_eq!(zlib_unstore(&z).unwrap(), data);
        }
    }

    #[test]
    fn zlib_detects_corruption() {
        let mut z = zlib_store(b"hello world");
        let n = z.len();
        z[n - 1] ^= 0xff; // corrupt adler
        assert!(zlib_unstore(&z).is_none());
    }

    #[test]
    fn png_roundtrip() {
        let mut s = Surface::new(5, 3);
        s.set(0, 0, Color::rgb(1, 2, 3));
        s.set(4, 2, Color::rgba(200, 100, 50, 25));
        let png = encode(&s);
        assert_eq!(&png[..8], &PNG_SIGNATURE);
        let back = decode(&png).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn png_is_deterministic() {
        let mut s = Surface::new(16, 16);
        s.set(3, 3, Color::WHITE);
        assert_eq!(encode(&s), encode(&s));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"not a png").is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn zero_sized_surface_encodes() {
        let s = Surface::new(0, 0);
        let png = encode(&s);
        assert_eq!(decode(&png).unwrap().width(), 0);
    }

    #[cfg(test)]
    mod props {
        // The proptest stub swallows test bodies; imports look unused.
        #![allow(unused_imports)]
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn crc32_matches_oracle_at_unaligned_offsets(
                data in proptest::collection::vec(any::<u8>(), 8..4104),
                offset in 0usize..8,
            ) {
                let data = &data[offset..];
                prop_assert_eq!(crc32(data), crc32_bitwise(data));
            }

            #[test]
            fn chunked_streaming_equals_one_shot(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                split in 1usize..200,
            ) {
                let mut crc = Crc32::new();
                for piece in data.chunks(split) {
                    crc.update(piece);
                }
                prop_assert_eq!(crc.finish(), crc32(&data));
            }

            #[test]
            fn zlib_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(zlib_unstore(&zlib_store(&data)).unwrap(), data);
            }

            #[test]
            fn png_roundtrips_random_pixels(
                w in 1u32..12, h in 1u32..12,
                seed in any::<u64>(),
            ) {
                let mut s = Surface::new(w, h);
                let mut x = seed | 1;
                let data = s.data_mut();
                for b in data.iter_mut() {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    *b = x as u8;
                }
                let back = decode(&encode(&s)).unwrap();
                prop_assert_eq!(back, s);
            }
        }
    }
}
