//! A minimal little-endian byte codec for `mfhls-store` record payloads
//! (written as v2, read as v1 or v2).
//!
//! Fixed-width little-endian integers, length-prefixed byte strings, no
//! varints, no reflection: the format is boring on purpose. Decoding is
//! defensive — every length is bounds-checked against both the remaining
//! input and a sanity cap, so a corrupt record that somehow passes the
//! checksum still cannot drive an allocation or a panic.

/// Decode failure (the reader ran dry or a length was implausible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("payload does not decode as an mfhls-store/v1 or v2 record")
    }
}

impl std::error::Error for DecodeError {}

/// Sanity cap on any single decoded collection length. Far above anything
/// a real layer produces, far below anything that could hurt.
const MAX_LEN: u64 = 1 << 22;

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a 32-bit little-endian integer.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a 64-bit little-endian integer.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a 64-bit little-endian integer.
    pub fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.size(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked byte reader over an encoded payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed (decoders should end here).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError)?;
        if end > self.buf.len() {
            return Err(DecodeError);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a 32-bit little-endian integer.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a 64-bit little-endian integer.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` previously written by [`ByteWriter::size`],
    /// rejecting values over the sanity cap.
    pub fn size(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return Err(DecodeError);
        }
        usize::try_from(v).map_err(|_| DecodeError)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.size()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.size(12345);
        w.str("hello κόσμε");
        w.bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.size(), Ok(12345));
        assert_eq!(r.str(), Ok("hello κόσμε"));
        assert_eq!(r.bytes(), Ok(&[1u8, 2, 3][..]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_and_oversized_inputs_are_errors_not_panics() {
        let mut w = ByteWriter::new();
        w.str("payload");
        let buf = w.finish();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(r.str().is_err(), "cut at {cut} must fail");
        }
        // A length far past the sanity cap is rejected before allocating.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let buf = w.finish();
        assert_eq!(ByteReader::new(&buf).size(), Err(DecodeError));
    }

    #[test]
    fn decode_errors_name_both_readable_format_versions() {
        // Records are read from v1 and v2 segments alike, so the message
        // (which reaches `StoreStats::last_error` and the serve summary)
        // must not claim the payload had to be v1.
        let text = DecodeError.to_string();
        assert!(text.contains("mfhls-store/v1 or v2"), "{text}");
    }
}
