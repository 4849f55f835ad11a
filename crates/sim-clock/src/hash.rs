//! The workspace's one non-cryptographic hash: FNV-1a 64 and the
//! splitmix64 finalizer.
//!
//! Routing (hash ring, topic partitions), checksums, pseudonyms, trace
//! ids and artifact fingerprints all key off these two functions, so the
//! outputs are part of the determinism contract: changing a constant
//! here re-routes every key and invalidates every golden.

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
///
/// # Examples
///
/// ```
/// assert_eq!(simclock::hash::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET_BASIS, bytes)
}

/// Continues an FNV-1a hash from `state`: feeds `bytes` through the same
/// xor-multiply round as [`fnv1a`]. `fnv1a_from(fnv1a(a), b)` hashes the
/// concatenation `a ‖ b`; a keyed hash starts from
/// `fnv1a(&[]) ^ key` instead of the plain offset basis.
pub fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// splitmix64 finalizer (golden-ratio increment, then two
/// xor-shift-multiply rounds). Bijective over `u64`, so distinct inputs
/// never collide; used to scramble weak seeds and to spread FNV's
/// clustered outputs.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_from_streams_a_concatenation() {
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_from(7, b""), 7);
    }

    #[test]
    fn mix64_matches_splitmix64_and_seeds_the_rng() {
        // First output of the reference splitmix64 generator seeded with 0.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        // `SeededRng::new` scrambles its seed with `mix64`; these are the
        // stream's first outputs as they were before the mixer moved here.
        let mut rng = SeededRng::new(42);
        assert_eq!(rng.next_u64(), 0x31b0_ece7_c4f6_97a2);
        assert_eq!(rng.next_u64(), 0x9008_a3b1_cb68_6f03);
    }
}
