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
//! Slicing-by-8 over eight tables built at compile time, no dependencies:
//! the loop folds eight bytes per step with eight independent table
//! lookups instead of one dependent lookup per byte. The checksum is on
//! the open path, and it costs more than the IO there. On the 107 KB
//! catalog of a `world_build` image, the bytewise loop took 0.31–0.36 ms
//! and reading the file 0.02–0.07 ms. Slicing-by-8 takes 0.08–0.09 ms
//! (EXPERIMENTS.md E20).

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Slicing tables built at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight bytes fold in with one lookup in each table.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
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
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t7[(lo & 0xff) as usize]
                ^ t6[((lo >> 8) & 0xff) as usize]
                ^ t5[((lo >> 16) & 0xff) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[w[4] as usize]
                ^ t2[w[5] as usize]
                ^ t1[w[6] as usize]
                ^ t0[w[7] as usize];
        }
        for &b in words.remainder() {
            c = t0[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
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

    /// The bytewise loop the sliced kernel replaced, kept as its oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    /// Deterministic pseudo-random bytes (xorshift).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 8, 0x9e37_79b9_7f4a_7c15);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
        let big = noise(1 << 20, 42);
        assert_eq!(crc32(&big), bytewise(&big), "1 MiB buffer");
    }

    #[test]
    fn sliced_matches_bytewise_when_split_at_random_points() {
        let data = noise(4096 + 13, 7);
        let want = bytewise(&data);
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200 {
            let mut c = Crc32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let cut = (seed % 40) as usize;
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                c.update(head);
                rest = tail;
            }
            assert_eq!(c.finish(), want);
        }
    }

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
