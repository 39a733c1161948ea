//! LEB128 variable-length integers, the workhorse of the PTML and snapshot
//! encodings. PTML is deliberately compact — the paper reports that even so,
//! attaching PTML to every compiled function doubles the persistent code
//! size (1.2 MB vs 600 kB for the complete Tycoon system).

/// Append `x` to `out` as unsigned LEB128.
pub fn put_u64(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `x` as zigzag-encoded signed LEB128.
pub fn put_i64(out: &mut Vec<u8>, x: i64) {
    put_u64(out, zigzag(x));
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Zigzag-encode a signed integer.
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a value.
    Truncated,
    /// A varint ran longer than 10 bytes.
    Overlong,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An unknown tag byte was encountered.
    BadTag(u8),
    /// A reference (prim/var index) was out of range.
    BadIndex(u64),
    /// The input did not start with the expected magic bytes.
    BadMagic,
    /// The image checksum did not match its contents.
    BadCrc {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// The format version byte is newer than this decoder understands.
    BadVersion(u8),
    /// A length-framed record did not consume exactly its declared size.
    Frame {
        /// Byte offset of the frame start.
        offset: usize,
        /// Declared frame length.
        declared: usize,
        /// Bytes actually consumed by the decoder.
        used: usize,
    },
    /// Nesting exceeded the decoder's depth limit.
    TooDeep {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A persisted term references a primitive by a name the decoding
    /// context's registry does not know. Carries the name so the loader
    /// can degrade the affected term instead of failing the whole image.
    UnknownPrim(String),
    /// A sorted section holds an entry that does not follow its
    /// predecessor (repeated or out of order); carries the entry's key or
    /// position.
    Order(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated input"),
            DecodeError::Overlong => write!(f, "overlong varint"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 string"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            DecodeError::BadIndex(i) => write!(f, "index {i} out of range"),
            DecodeError::BadMagic => write!(f, "bad magic header"),
            DecodeError::BadCrc { stored, computed } => write!(
                f,
                "checksum mismatch: trailer {stored:#010x}, body {computed:#010x}"
            ),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Frame {
                offset,
                declared,
                used,
            } => write!(
                f,
                "bad frame at offset {offset}: declared {declared} bytes, decoder used {used}"
            ),
            DecodeError::TooDeep { limit } => {
                write!(f, "nesting exceeds depth limit {limit}")
            }
            DecodeError::UnknownPrim(name) => {
                write!(f, "unknown primitive {name:?}")
            }
            DecodeError::Order(k) => write!(f, "entry {k} repeated or out of order"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader at offset zero.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed: a bound on how many encoded items can
    /// follow, for sizing a buffer from a count read off the input.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` if all input has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read one byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read an unsigned LEB128 value.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut x: u64 = 0;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(DecodeError::Overlong);
            }
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-encoded signed value.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.u64()?))
    }

    /// `true` when all input is consumed (alias of [`Reader::is_at_end`],
    /// pairing with the length-reading `len`).
    pub fn is_empty(&self) -> bool {
        self.is_at_end()
    }

    /// Read a `usize`, failing on 32-bit overflow.
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| DecodeError::BadIndex(n))
    }

    /// Read a length-prefixed byte string.
    pub fn byte_string(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.len()?;
        self.bytes(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.byte_string()?).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, x);
            let mut r = Reader::new(&buf);
            assert_eq!(r.u64().unwrap(), x);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn i64_roundtrip() {
        for x in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_i64(&mut buf, x);
            let mut r = Reader::new(&buf);
            assert_eq!(r.i64().unwrap(), x);
        }
    }

    #[test]
    fn zigzag_is_bijective_on_samples() {
        for x in [-3i64, -2, -1, 0, 1, 2, 3, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "complex.x");
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "complex.x");
    }

    #[test]
    fn truncated_input_detected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 10_000);
        buf.pop();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64(), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn zigzag_boundary_values() {
        // The extremes map to the top of the unsigned range without
        // wrapping: MIN is all-ones, MAX is all-ones minus one.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        assert_eq!(unzigzag(u64::MAX), i64::MIN);
        assert_eq!(unzigzag(u64::MAX - 1), i64::MAX);
        // Encoded form round-trips at exactly the 10-byte varint ceiling.
        for x in [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1] {
            let mut buf = Vec::new();
            put_i64(&mut buf, x);
            assert_eq!(buf.len(), 10);
            let mut r = Reader::new(&buf);
            assert_eq!(r.i64().unwrap(), x);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn zero_length_byte_strings_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[]);
        put_str(&mut buf, "");
        assert_eq!(buf, [0, 0], "empty payloads are a bare zero length");
        let mut r = Reader::new(&buf);
        assert_eq!(r.byte_string().unwrap(), &[] as &[u8]);
        assert_eq!(r.str().unwrap(), "");
        assert!(r.is_at_end());
    }

    #[test]
    fn truncated_composites_error_at_every_cut() {
        // A composite buffer: varints, a string, a byte string, a zigzag
        // extreme. Every proper prefix must produce an error through the
        // matching read sequence — never a panic, never a bogus success.
        let mut buf = Vec::new();
        put_u64(&mut buf, 300);
        put_str(&mut buf, "geom.abs");
        put_bytes(&mut buf, &[1, 2, 3]);
        put_i64(&mut buf, i64::MIN);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let result = r
                .u64()
                .and_then(|_| r.str().map(drop))
                .and_then(|_| r.byte_string().map(drop))
                .and_then(|_| r.i64().map(drop));
            assert_eq!(result, Err(DecodeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn byte_string_length_exceeding_input_is_truncation_not_panic() {
        // A length prefix far past the end of input.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::from(u32::MAX));
        let mut r = Reader::new(&buf);
        assert_eq!(r.byte_string(), Err(DecodeError::Truncated));
    }
}
