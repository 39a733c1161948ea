//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for the catalog,
//! store-encoding and log-record trailers.
//!
//! The persistent image *is* the database — the paper keeps every compiled
//! function's PTML in the store, so a silently corrupt image is not a cache
//! miss but data loss. Like the ASF+SDF compiler's persistent term store,
//! the image must be self-validating: the TYCAT2 catalog (like the TYSTO3
//! store encoding) appends a CRC-32 of the whole body so torn writes and
//! bit rot are detected before any object is trusted.
//!
//! Table-driven, no dependencies, byte-at-a-time — catalog IO is
//! file-system bound, not CRC bound.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// 256-entry lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// An incremental CRC-32 computation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32(0xffff_ffff)
    }

    /// Fold in a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

/// One-shot checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"persistent intermediate code representations";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0u16..256).map(|i| (i * 31 % 251) as u8).collect();
        let good = crc32(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[pos] ^= 1 << bit;
                assert_ne!(crc32(&m), good, "flip at {pos}.{bit} undetected");
            }
        }
    }
}
