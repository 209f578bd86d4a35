//! The hand-rolled wire format: a versioned, length-prefixed frame codec
//! over fixed-width big-endian integers. No serde — the whole protocol is
//! a few dozen fixed layouts, and a reproduction should own its bytes.
//!
//! Frame layout:
//!
//! ```text
//! +------+------+---------+----------+===================+
//! | 0x52 | 0x43 | version | reserved | u32 BE payload len | payload …
//! +------+------+---------+----------+===================+
//! ```
//!
//! The magic is `b"RC"`; `version` is [`WIRE_VERSION`]; `reserved` must be
//! zero. The length prefix counts payload bytes only and is capped at
//! [`MAX_FRAME_LEN`], so a corrupt or hostile prefix cannot drive an
//! allocation. Every decode error is a typed [`WireError`] — malformed
//! input must never panic (pinned by the crate's property tests).

use rechord_id::MAX_LEVEL;
use std::fmt;

/// First magic byte (`b'R'`).
pub const MAGIC0: u8 = 0x52;
/// Second magic byte (`b'C'`).
pub const MAGIC1: u8 = 0x43;
/// Current wire protocol version. Bumps are breaking: a node refuses
/// frames from any other version rather than guessing at layouts.
pub const WIRE_VERSION: u8 = 1;
/// Frame header length: magic (2) + version (1) + reserved (1) + len (4).
pub const HEADER_LEN: usize = 8;
/// Hard cap on a frame payload. A full `StateSync` for a large overlay is
/// well under a mebibyte; 16 MiB leaves room without letting a corrupt
/// length prefix allocate the moon.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Everything that can go wrong decoding bytes into a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the layout said it would.
    Truncated,
    /// The frame does not start with the `b"RC"` magic.
    BadMagic([u8; 2]),
    /// The frame carries an unknown protocol version.
    BadVersion(u8),
    /// The reserved header byte was not zero.
    BadReserved(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Unknown message tag byte.
    BadTag(u8),
    /// Unknown edge-class byte inside a message body.
    BadKind(u8),
    /// A node level (of a reference, or a state's level key) above
    /// [`MAX_LEVEL`].
    BadLevel(u8),
    /// A set of node references not in strictly ascending order, the only
    /// order a set encodes to.
    UnorderedSet,
    /// A state's level key not above the key before it.
    UnorderedLevels(u8),
    /// A declared collection length exceeds what the payload could hold.
    BadLength(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes were left over after the message body was fully decoded.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadReserved(b) => write!(f, "reserved header byte {b:#04x} is not zero"),
            WireError::Oversized(n) => write!(f, "length prefix {n} exceeds {MAX_FRAME_LEN}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadKind(k) => write!(f, "unknown edge kind {k:#04x}"),
            WireError::BadLevel(l) => write!(f, "node level {l} exceeds {MAX_LEVEL}"),
            WireError::UnorderedSet => write!(f, "node-reference set is not strictly ascending"),
            WireError::UnorderedLevels(l) => write!(f, "level key {l} is not above the one before"),
            WireError::BadLength(n) => write!(f, "declared length {n} exceeds payload"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message body"),
        }
    }
}

impl std::error::Error for WireError {}

/// A byte cursor over one frame payload. All reads are bounds-checked and
/// return [`WireError::Truncated`] instead of slicing past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`WireError::Trailing`] unless everything was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_be_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_be_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Reads a collection length and sanity-checks it against the bytes
    /// actually remaining: each element occupies at least `min_elem_bytes`,
    /// so a length that could not possibly fit is rejected up front instead
    /// of looping until [`WireError::Truncated`] (defense against hostile
    /// lengths driving large pre-allocations).
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        let need =
            (n as usize).checked_mul(min_elem_bytes.max(1)).ok_or(WireError::BadLength(n))?;
        if need > self.remaining() {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// Appends a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_be_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Wraps an encoded payload in a frame header.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN as usize, "payload exceeds MAX_FRAME_LEN");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(MAGIC0);
    out.push(MAGIC1);
    out.push(WIRE_VERSION);
    out.push(0);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

/// Appends a frame header with a placeholder length to `out` and returns a
/// mark for [`end_frame`]. Together they let a payload be encoded straight
/// into `out` — no intermediate payload allocation — with the length
/// prefix backfilled once the payload size is known.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    out.push(MAGIC0);
    out.push(MAGIC1);
    out.push(WIRE_VERSION);
    out.push(0);
    put_u32(out, 0); // backfilled by end_frame
    mark
}

/// Closes a frame opened by [`begin_frame`] at `mark`: everything appended
/// since is the payload, whose length is backfilled into the header.
pub fn end_frame(out: &mut [u8], mark: usize) {
    let payload_len = out.len() - mark - HEADER_LEN;
    assert!(payload_len <= MAX_FRAME_LEN as usize, "payload exceeds MAX_FRAME_LEN");
    out[mark + 4..mark + HEADER_LEN].copy_from_slice(&(payload_len as u32).to_be_bytes());
}

/// Validates a frame header, returning the declared payload length.
/// `header` must be exactly [`HEADER_LEN`] bytes.
pub fn check_header(header: &[u8; HEADER_LEN]) -> Result<u32, WireError> {
    if header[0] != MAGIC0 || header[1] != MAGIC1 {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    if header[3] != 0 {
        return Err(WireError::BadReserved(header[3]));
    }
    let len = u32::from_be_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    Ok(len)
}

/// Splits one frame off the front of `buf`: returns the payload slice and
/// the total bytes consumed, or `None` when more input is needed (a frame
/// is still arriving). Malformed headers are typed errors.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header slice");
    let len = check_header(&header)? as usize;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((&buf[HEADER_LEN..total], total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrips() {
        let f = frame(b"hello");
        let (payload, used) = split_frame(&f).unwrap().unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(used, f.len());
    }

    #[test]
    fn in_place_framing_matches_frame_and_appends() {
        // A frame built with begin/end into a dirty buffer is the same
        // bytes `frame` produces, appended after the existing contents.
        let mut buf = b"already-there".to_vec();
        let mark = begin_frame(&mut buf);
        buf.extend_from_slice(b"hello");
        end_frame(&mut buf, mark);
        assert_eq!(&buf[..mark], b"already-there");
        assert_eq!(&buf[mark..], &frame(b"hello")[..]);
    }

    #[test]
    fn short_input_wants_more() {
        let f = frame(b"payload");
        for cut in 0..f.len() {
            assert_eq!(split_frame(&f[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_version_reserved_rejected() {
        let mut f = frame(b"x");
        f[0] = 0x00;
        assert!(matches!(split_frame(&f), Err(WireError::BadMagic(_))));
        let mut f = frame(b"x");
        f[2] = 99;
        assert_eq!(split_frame(&f), Err(WireError::BadVersion(99)));
        let mut f = frame(b"x");
        f[3] = 1;
        assert_eq!(split_frame(&f), Err(WireError::BadReserved(1)));
    }

    #[test]
    fn oversized_prefix_rejected_without_allocating() {
        let mut f = frame(b"x");
        f[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(split_frame(&f), Err(WireError::Oversized(u32::MAX)));
    }

    #[test]
    fn reader_bounds_are_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 2);
        let mut r = Reader::new(&[0, 0, 0, 9, b'a']);
        assert_eq!(r.len(1), Err(WireError::BadLength(9)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = Reader::new(&[7, 8]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
    }
}
