//! The binary durable format: every checkpoint payload and every redo-log
//! group is one checksummed frame, and this module is the only place that
//! knows its bytes (`PERSISTENCE.md` at the repository root documents the
//! layout).
//!
//! **Frames.** A frame is an 18-byte header, a body, and a trailer:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "DBCK"
//!      4     1  format version (1)
//!      5     1  kind (1 = checkpoint payload, 2 = redo group)
//!      6     8  body length, u64 LE
//!     14     4  header check: low 32 bits of checksum(bytes 0..14), LE
//!     18     n  body
//!   18+n     8  checksum(body), u64 LE
//! ```
//!
//! The checksum is XXH64 with seed 0. The header carries its own check so
//! that a corrupted length field is refused as a bad header instead of
//! reading as a frame that runs past the end of the file, which a redo
//! log would take for a torn append and truncate.
//!
//! **Bodies.** Callers build a body from a handful of primitives, all
//! little-endian: `u8`, `u64`, strings (`u64` length, UTF-8 bytes) and
//! integer arrays. An integer array is `len: u64, min: i64, width: u8`
//! followed by `len` offsets `v - min`, each `width` bytes, where `width`
//! is the smallest of 1, 2, 4 or 8 that holds the largest offset. A dense
//! OID range or a column over a small domain therefore costs one to four
//! bytes per element, not eight.
//!
//! **Decoding is total.** [`Reader`] checks every length against the bytes
//! that remain before it allocates or slices, so no input can make it
//! panic or allocate more than a small multiple of its own size; every
//! failure is a typed [`StorageError::PersistFormat`].

use crate::error::{StorageError, StorageResult};

/// First four bytes of every frame.
const MAGIC: [u8; 4] = *b"DBCK";

/// Frame format version written into every header.
const FORMAT_VERSION: u8 = 1;

/// Bytes before a frame's body.
pub const HEADER_LEN: usize = 18;

/// Bytes after a frame's body (the body checksum).
pub const TRAILER_LEN: usize = 8;

/// What a frame holds; a frame of one kind is never read as the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One checkpoint payload file.
    Payload = 1,
    /// One redo-log append group.
    Redo = 2,
}

fn format_err(msg: String) -> StorageError {
    StorageError::PersistFormat(msg)
}

// ---------------------------------------------------------------------
// Checksum: XXH64, seed 0.
// ---------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le64(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

fn le32(b: &[u8]) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&b[..4]);
    u32::from_le_bytes(w)
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 (seed 0) of `bytes`: four independent lanes over 32-byte
/// stripes, so it runs at several GB/s and any single changed word of a
/// payload changes the result.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, le64(word));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        h = (h ^ u64::from(le32(rest)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------

/// Reserve a frame header at the end of `buf`; the body is appended after
/// it and [`end_frame`] seals it. Returns the frame's start offset.
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    start
}

/// Seal the frame begun at `start`: everything after its header is the
/// body. Fills in the header and appends the body checksum.
pub fn end_frame(buf: &mut Vec<u8>, start: usize, kind: FrameKind) {
    let body_len = (buf.len() - start - HEADER_LEN) as u64;
    let sum = checksum(&buf[start + HEADER_LEN..]);
    let header = &mut buf[start..start + HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = FORMAT_VERSION;
    header[5] = kind as u8;
    header[6..14].copy_from_slice(&body_len.to_le_bytes());
    let check = checksum(&header[..14]) as u32;
    header[14..].copy_from_slice(&check.to_le_bytes());
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// What [`next_frame`] found at the start of a byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Next<'a> {
    /// A valid frame: its body, and the offset just past its trailer.
    Frame {
        /// The checksum-verified body.
        body: &'a [u8],
        /// Offset just past the frame.
        end: usize,
    },
    /// The header, or the body its valid header announces, runs past the
    /// end of the bytes.
    Truncated,
    /// A bad header or a body that fails its checksum.
    Corrupt {
        /// What is wrong.
        why: String,
        /// Offset just past the frame, as its length field gives it, when
        /// that lies within the bytes. For a bad header this is a guess.
        end: Option<usize>,
    },
}

/// Parse the frame at the start of `bytes`, expecting `kind`.
pub fn next_frame(bytes: &[u8], kind: FrameKind) -> Next<'_> {
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Next::Truncated;
    };
    let end = usize::try_from(le64(&header[6..14]))
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN + TRAILER_LEN))
        .filter(|&end| end <= bytes.len());
    let bad_header = if header[..4] != MAGIC {
        Some("bad magic".to_string())
    } else if le32(&header[14..]) != checksum(&header[..14]) as u32 {
        Some("header check mismatch".to_string())
    } else if header[4] != FORMAT_VERSION {
        Some(format!("unsupported frame version {}", header[4]))
    } else if header[5] != kind as u8 {
        Some(format!(
            "frame kind {} where {} was expected",
            header[5], kind as u8
        ))
    } else {
        None
    };
    if let Some(why) = bad_header {
        return Next::Corrupt { why, end };
    }
    let Some(end) = end else {
        return Next::Truncated;
    };
    let body = &bytes[HEADER_LEN..end - TRAILER_LEN];
    if le64(&bytes[end - TRAILER_LEN..end]) != checksum(body) {
        return Next::Corrupt {
            why: "body checksum mismatch".to_string(),
            end: Some(end),
        };
    }
    Next::Frame { body, end }
}

/// The body of `bytes`, which must be exactly one valid frame of `kind`.
pub fn open_frame(bytes: &[u8], kind: FrameKind) -> StorageResult<&[u8]> {
    match next_frame(bytes, kind) {
        Next::Frame { body, end } if end == bytes.len() => Ok(body),
        Next::Frame { end, .. } => Err(format_err(format!(
            "{} bytes after the frame",
            bytes.len() - end
        ))),
        Next::Truncated => Err(format_err(format!(
            "truncated frame ({} bytes)",
            bytes.len()
        ))),
        Next::Corrupt { why, .. } => Err(format_err(why)),
    }
}

/// A whole file holding one verified frame: owns the bytes, lends the
/// body (no copy of a multi-megabyte payload just to drop its header).
#[derive(Debug)]
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// Verify that `bytes` is exactly one valid frame of `kind`.
    pub fn open(bytes: Vec<u8>, kind: FrameKind) -> StorageResult<Self> {
        open_frame(&bytes, kind)?;
        Ok(Frame { bytes })
    }

    /// The checksum-verified body.
    pub fn body(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..self.bytes.len() - TRAILER_LEN]
    }
}

// ---------------------------------------------------------------------
// Body primitives: writing.
// ---------------------------------------------------------------------

/// An integer type stored through integer arrays.
pub trait Int: Copy {
    /// Widen to `i64`, losslessly.
    fn to_i64(self) -> i64;
    /// Narrow back; `None` when `v` is out of this type's range.
    fn from_i64(v: i64) -> Option<Self>;
}

impl Int for i64 {
    fn to_i64(self) -> i64 {
        self
    }
    fn from_i64(v: i64) -> Option<Self> {
        Some(v)
    }
}

impl Int for u32 {
    fn to_i64(self) -> i64 {
        i64::from(self)
    }
    fn from_i64(v: i64) -> Option<Self> {
        u32::try_from(v).ok()
    }
}

impl Int for usize {
    fn to_i64(self) -> i64 {
        self as i64
    }
    fn from_i64(v: i64) -> Option<Self> {
        usize::try_from(v).ok()
    }
}

impl Int for bool {
    fn to_i64(self) -> i64 {
        i64::from(self)
    }
    fn from_i64(v: i64) -> Option<Self> {
        match v {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// Append one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a string: its byte length, then its UTF-8 bytes.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append an integer array.
pub fn put_ints<T: Int>(buf: &mut Vec<u8>, vals: &[T]) {
    put_int_iter(buf, vals.iter().map(|v| v.to_i64()));
}

/// Append an integer array from an iterator, walked twice: once for the
/// minimum and maximum that fix the width, once to write the offsets.
pub fn put_int_iter<I>(buf: &mut Vec<u8>, vals: I)
where
    I: ExactSizeIterator<Item = i64> + Clone,
{
    let len = vals.len();
    let (min, max) = vals
        .clone()
        .fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let (min, span) = if len == 0 {
        (0, 0)
    } else {
        (min, max.wrapping_sub(min) as u64)
    };
    let width = match span {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    };
    put_u64(buf, len as u64);
    put_u64(buf, min as u64);
    put_u8(buf, width as u8);
    match width {
        1 => put_offsets::<1>(buf, len, min, vals),
        2 => put_offsets::<2>(buf, len, min, vals),
        4 => put_offsets::<4>(buf, len, min, vals),
        _ => put_offsets::<8>(buf, len, min, vals),
    }
}

fn put_offsets<const W: usize>(
    buf: &mut Vec<u8>,
    len: usize,
    min: i64,
    vals: impl Iterator<Item = i64>,
) {
    let start = buf.len();
    buf.resize(start + len * W, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(W).zip(vals) {
        dst.copy_from_slice(&(v.wrapping_sub(min) as u64).to_le_bytes()[..W]);
    }
}

// ---------------------------------------------------------------------
// Body primitives: reading.
// ---------------------------------------------------------------------

/// A cursor over a frame body. Every read checks the bytes that remain
/// before it allocates or slices.
#[derive(Debug)]
pub struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn err(&self, what: &str) -> StorageError {
        format_err(format!(
            "{what} at byte {} of {}",
            self.pos,
            self.body.len()
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> StorageResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.err(&format!("{what} ({n} bytes) runs past the end")));
        }
        let out = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> StorageResult<u64> {
        Ok(le64(self.take(8, "u64")?))
    }

    /// An element count: a `u64` that must not exceed the bytes that
    /// remain, since every element takes at least one. Safe to pass to
    /// `Vec::with_capacity`.
    pub fn count(&mut self) -> StorageResult<usize> {
        let n = self.u64()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.err(&format!("count {n} exceeds the remaining bytes"))),
        }
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self) -> StorageResult<String> {
        let n = self.count()?;
        let bytes = self.take(n, "string")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not UTF-8"))
    }

    /// An integer array written by [`put_ints`] / [`put_int_iter`].
    pub fn ints<T: Int>(&mut self) -> StorageResult<Vec<T>> {
        let len = self.u64()?;
        let min = self.u64()? as i64;
        let width = self.u8()?;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(self.err(&format!("integer width {width}")));
        }
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_mul(usize::from(width)))
            .filter(|&b| b <= self.remaining())
            .ok_or_else(|| {
                self.err(&format!(
                    "array of {len} × {width} bytes exceeds the remaining bytes"
                ))
            })?;
        let at = self.pos;
        let bytes = self.take(bytes, "array")?;
        let out = match width {
            1 => get_offsets::<T, 1>(bytes, min),
            2 => get_offsets::<T, 2>(bytes, min),
            4 => get_offsets::<T, 4>(bytes, min),
            _ => get_offsets::<T, 8>(bytes, min),
        };
        out.ok_or_else(|| {
            format_err(format!(
                "array at byte {at} holds a value out of range for {}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// Succeed only when every byte was consumed.
    pub fn finish(self) -> StorageResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err(&format!("{n} trailing bytes"))),
        }
    }
}

fn get_offsets<T: Int, const W: usize>(bytes: &[u8], min: i64) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(bytes.len() / W);
    for c in bytes.chunks_exact(W) {
        let mut w = [0u8; 8];
        w[..W].copy_from_slice(c);
        out.push(T::from_i64(min.wrapping_add(u64::from_le_bytes(w) as i64))?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksum_matches_the_xxh64_reference_vectors() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = checksum(&bytes);
        for i in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(checksum(&flipped), base, "bit {i}");
        }
    }

    fn framed(body: &[u8], kind: FrameKind) -> Vec<u8> {
        let mut buf = Vec::new();
        let start = begin_frame(&mut buf);
        buf.extend_from_slice(body);
        end_frame(&mut buf, start, kind);
        buf
    }

    #[test]
    fn width_follows_the_span_not_the_values() {
        for (vals, width) in [
            (vec![], 1u8),
            (vec![7i64; 5], 1),
            (vec![1_000_000, 1_000_255], 1),
            (vec![-5, 251], 2),
            (vec![0, 1 << 20], 4),
            (vec![i64::MIN, i64::MAX], 8),
        ] {
            let mut buf = Vec::new();
            put_ints(&mut buf, &vals);
            assert_eq!(buf[16], width, "{vals:?}");
            assert_eq!(buf.len(), 17 + vals.len() * usize::from(width));
            let mut r = Reader::new(&buf);
            assert_eq!(r.ints::<i64>().unwrap(), vals);
            r.finish().unwrap();
        }
    }

    #[test]
    fn narrowing_refuses_out_of_range_values() {
        let mut buf = Vec::new();
        put_ints(&mut buf, &[-1i64, 3]);
        assert!(Reader::new(&buf).ints::<u32>().is_err());
        assert!(Reader::new(&buf).ints::<bool>().is_err());
        assert_eq!(Reader::new(&buf).ints::<i64>().unwrap(), vec![-1, 3]);
    }

    #[test]
    fn huge_lengths_are_refused_before_any_allocation() {
        // len = 2^62 elements of width 8: an allocator would abort.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 62);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 8);
        assert!(Reader::new(&buf).ints::<i64>().is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Reader::new(&buf).count().is_err());
        assert!(Reader::new(&buf).str().is_err());
    }

    #[test]
    fn frames_roundtrip_and_refuse_the_wrong_kind() {
        let frame = framed(b"hello", FrameKind::Payload);
        assert_eq!(frame.len(), HEADER_LEN + 5 + TRAILER_LEN);
        assert_eq!(open_frame(&frame, FrameKind::Payload).unwrap(), b"hello");
        assert!(open_frame(&frame, FrameKind::Redo).is_err());
        let owned = Frame::open(frame, FrameKind::Payload).unwrap();
        assert_eq!(owned.body(), b"hello");
    }

    #[test]
    fn a_corrupted_length_is_a_bad_header_not_a_truncation() {
        let mut frame = framed(b"body", FrameKind::Redo);
        frame[13] ^= 0x40; // the top byte of the body length
        assert!(matches!(
            next_frame(&frame, FrameKind::Redo),
            Next::Corrupt { end: None, .. }
        ));
    }

    /// A sample body: a string and two arrays.
    fn sample_body(vals: &[i64]) -> Vec<u8> {
        let mut body = Vec::new();
        put_str(&mut body, "t.v");
        put_ints(&mut body, vals);
        put_ints(
            &mut body,
            &vals.iter().map(|&v| v as u32).collect::<Vec<_>>(),
        );
        body
    }

    /// Decode everything `sample_body` wrote from an opened frame.
    fn decode(bytes: &[u8]) -> StorageResult<(String, Vec<i64>, Vec<u32>)> {
        let mut r = Reader::new(open_frame(bytes, FrameKind::Payload)?);
        let out = (r.str()?, r.ints()?, r.ints()?);
        r.finish()?;
        Ok(out)
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_decode_to_a_typed_error(
            bytes in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            prop_assert!(matches!(decode(&bytes), Err(StorageError::PersistFormat(_))));
            // The reader alone, without the frame, is total too.
            let mut r = Reader::new(&bytes);
            let _ = (r.str(), r.ints::<i64>(), r.ints::<u32>(), r.count(), r.u64());
        }

        #[test]
        fn every_truncation_and_bit_flip_of_a_frame_is_refused(
            vals in proptest::collection::vec(0i64..70_000, 0..12),
        ) {
            let frame = framed(&sample_body(&vals), FrameKind::Payload);
            let want = vals.iter().map(|&v| v as u32).collect::<Vec<_>>();
            prop_assert_eq!(decode(&frame).unwrap(), ("t.v".to_string(), vals, want));
            for cut in 0..frame.len() {
                prop_assert!(decode(&frame[..cut]).is_err(), "truncation at {}", cut);
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(
                    matches!(decode(&flipped), Err(StorageError::PersistFormat(_))),
                    "bit {} accepted", bit
                );
            }
        }
    }
}
