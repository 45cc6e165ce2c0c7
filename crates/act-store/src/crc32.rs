//! CRC-32 (IEEE 802.3 polynomial), table-driven, built in-tree because the
//! workspace must compile offline. Every segment block carries a CRC of its
//! body so bit rot and torn writes are detected before decode.
//!
//! The kernel is slicing-by-8: eight 256-entry tables fold 8 input bytes
//! per step, and a tail shorter than 8 bytes takes the bytewise step of
//! the first table. Digests are those of the bytewise loop for every input
//! and every chunking.

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` is the CRC state that
/// byte `i` leaves after `k` more zero bytes, so one step can fold byte `j`
/// of an 8-byte block through `TABLES[7 - j]`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (reflected, init/xorout `!0` — the zlib convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 over a byte stream, for callers that see the data in
/// chunks (an [`UploadCheck`]): feed with [`Crc32::update`],
/// read the digest with [`Crc32::finish`]. `Crc32::new().update(b).finish()`
/// equals [`crc32`]`(b)` for any chunking of `b`.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher (empty input digests to 0).
    pub fn new() -> Crc32 {
        Crc32 { state: !0u32 }
    }

    /// Fold `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(b[4])]
                ^ t[2][usize::from(b[5])]
                ^ t[1][usize::from(b[6])]
                ^ t[0][usize::from(b[7])];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The digest of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The running tally of a chunked upload — CRC-32 and byte count over
/// every chunk, in order — and the check of the pair `STREAM_END` seals it
/// with. The client keeps one to seal its upload, the server one to verify
/// it.
#[derive(Debug, Clone, Default)]
pub struct UploadCheck {
    crc: Crc32,
    total_len: u64,
}

impl UploadCheck {
    /// Fold one chunk into the tally.
    pub fn update(&mut self, bytes: &[u8]) {
        self.crc.update(bytes);
        self.total_len += bytes.len() as u64;
    }

    /// Bytes tallied so far.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// CRC-32 of the bytes tallied so far.
    pub fn crc32(&self) -> u32 {
        self.crc.finish()
    }

    /// Check the tally against what the client sealed the upload with.
    ///
    /// # Errors
    ///
    /// The length mismatch (checked first), else the CRC mismatch.
    pub fn verify(&self, crc32: u32, total_len: u64) -> Result<(), String> {
        if self.total_len != total_len {
            return Err(format!(
                "stream length mismatch: received {} bytes, client sealed {total_len}",
                self.total_len
            ));
        }
        let got = self.crc32();
        if got != crc32 {
            return Err(format!(
                "stream crc mismatch: received {got:#010x}, client sealed {crc32:#010x}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot_for_any_chunking() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let want = crc32(data);
        for split in [0, 1, 7, 20, data.len()] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    /// The bytewise kernel slicing-by-8 replaced: one table step per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0u32, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize])
    }

    /// `len` seeded random bytes.
    fn noise(rng: &mut proptest::TestRng, len: usize) -> Vec<u8> {
        use proptest::prelude::*;
        (0..len).map(|_| any::<u8>().generate(rng)).collect()
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_length_and_offset() {
        let data = noise(&mut proptest::rng_for("crc32_lengths", 0), 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {start}, length {len}");
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_random_split_points() {
        use proptest::prelude::*;
        for case in 0..64u64 {
            let mut rng = proptest::rng_for("crc32_splits", case);
            let len = (1..4097usize).generate(&mut rng);
            let data = noise(&mut rng, len);
            let mut points: Vec<usize> = (0..4).map(|_| (0..len + 1).generate(&mut rng)).collect();
            points.sort_unstable();
            let mut h = Crc32::new();
            let mut at = 0;
            for p in points.into_iter().chain([len]) {
                h.update(&data[at..p]);
                at = p;
            }
            assert_eq!(h.finish(), bytewise(&data), "case {case}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = crc32(b"the quick brown fox");
        let mut flipped = b"the quick brown fox".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(crc32(&flipped), base);
    }
}
