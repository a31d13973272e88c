//! FNV-1a output digests: one 64-bit fingerprint per checked output, so
//! a change that alters what the program computes shows up across
//! commits even when every correctness check still passes.

/// An incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a word in (little-endian bytes).
    pub fn word(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds an index or count in.
    pub fn index(&mut self, value: usize) -> &mut Self {
        self.word(u64::try_from(value).unwrap_or(u64::MAX))
    }

    /// Folds a float in by its exact bit pattern.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vector() {
        assert_eq!(
            Digest::default().bytes(b"a").finish(),
            0xAF63_DC4C_8601_EC8C
        );
        assert_ne!(
            Digest::default().word(1).word(2).finish(),
            Digest::default().word(2).word(1).finish()
        );
    }
}
