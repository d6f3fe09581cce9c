//! The workspace's one non-cryptographic hash: FNV-1a folded over 64-bit
//! words, with an avalanche finalizer wherever the low bits are consumed.
//!
//! Three jobs share it, none of them adversarial:
//!
//! * **Content keys** ([`Fnv::finish`]): the checker's summary-cache keys
//!   (transitive content hashes of function bodies and calling contexts).
//!   These values are stable: the summary cache is keyed by them.
//! * **Hash maps** ([`FnvHasher`], [`FnvMap`], [`FnvSet`]): the checker's
//!   instance maps and the rewrite interner's hash-consing table, where
//!   SipHash's keyed setup is measurable overhead. `hashbrown` and
//!   linear-probing tables take bucket indices from the low bits, which
//!   FNV's final multiply leaves weakly mixed, so [`FnvHasher::finish`]
//!   runs [`finalize`].
//! * **String keys** ([`hash_str`]): the service's shard routing key,
//!   batching key and consistent-hash ring points, over whole wire
//!   strings that differ from each other in a few digits. Each word step
//!   runs through [`finalize`] (see there for why), and ring points need
//!   the avalanche anyway: raw FNV of `shard-<s>-vnode-<v>` clusters,
//!   leaving some shards a small fraction of the ring. The response
//!   cache still keys by classic byte-wise FNV-1a ([`fnv1a_bytes`]).
//!
//! Word folding (one step per 8 bytes instead of per byte) is what makes
//! content-hashing 10^5 function bodies per incremental request, or a
//! 26 KB lint frame per request, cheap; variable-length input is
//! length-prefixed so the zero-padded tail cannot collide across
//! boundaries.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// Streaming word-folded FNV-1a. [`Fnv::finish`] returns the raw state
/// (no finalizer), which is what content keys are defined as.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Offset-basis start.
    pub const fn new() -> Fnv {
        Fnv(OFFSET_BASIS)
    }

    /// Mix one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.write_u64(u64::from(b));
    }

    /// Mix a 64-bit word in one step.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Mix a byte slice, eight bytes per step. Callers length-prefix
    /// variable-size input.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for_each_word(bytes, |w| self.write_u64(w));
    }

    /// Mix a length-prefixed string (the prefix prevents concatenation
    /// collisions between adjacent names).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The raw digest (no finalizer).
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feed `bytes` to `f` as little-endian 64-bit words, the tail
/// zero-padded. (An iterator adaptor over `chunks` measured 1.5–3×
/// slower: it copies every word through a variable-length `memcpy`.)
#[inline]
fn for_each_word(bytes: &[u8], mut f: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        f(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        f(rem.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
    }
}

/// 64-bit avalanche finalizer (the MurmurHash3 `fmix64` first half):
/// folds the well-mixed high bits of an FNV state into the low bits.
pub fn finalize(h: u64) -> u64 {
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Hash of one string: the service's routing, batching and ring key.
///
/// Word-folded FNV-1a with every step avalanched. In plain word-folded
/// FNV a multiply carries a word's difference only towards the high
/// bits, so differences in two nearby words can cancel: 4 of the 64
/// distinct canonical `prove` requests of experiment E14 (which differ
/// only in a numeric suffix) collided. Finalizing each step costs two
/// multiplies per 8 bytes, still far below byte-wise FNV-1a.
pub fn hash_str(s: &str) -> u64 {
    let mut h = OFFSET_BASIS ^ s.len() as u64;
    for_each_word(s.as_bytes(), |w| h = finalize((h ^ w).wrapping_mul(PRIME)));
    finalize(h)
}

/// Classic byte-wise FNV-1a, unfinalized: the service's response-cache
/// key.
///
/// Its low bits are weakly mixed (the low `k` bits depend only on the
/// low `k` bits of every byte), and the cache picks its stripe as
/// `hash % stripes`: on large lint frames only half of the stripes ever
/// fill. Moving the cache to [`hash_str`] fills them all, which doubles
/// the bytes the cache retains on that traffic (59 KB entries), so that
/// switch waits for a cache budgeted in bytes rather than entries.
pub fn fnv1a_bytes(s: &str) -> u64 {
    s.bytes()
        .fold(OFFSET_BASIS, |h, b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// [`Fnv`] as a [`std::hash::Hasher`], finalized on [`Hasher::finish`].
/// Integer writes fold in one step each.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvHasher(Fnv);

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.0.write_u8(b);
    }

    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.0.write_u64(u64::from(w));
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.0.write_u64(w);
    }

    #[inline]
    fn write_usize(&mut self, w: usize) {
        self.0.write_u64(w as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.0.finish())
    }
}

/// `HashMap` keyed through [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
/// `HashSet` keyed through [`FnvHasher`].
pub type FnvSet<T> = HashSet<T, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_digests_match_known_answers() {
        // Content keys are persisted in summary caches: these values
        // must never change.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write_u64(42);
        assert_eq!(h.finish(), 0xaf63_a74c_8601_927d);
        let mut h = Fnv::new();
        h.write_str("hello, world");
        assert_eq!(h.finish(), 0x24fa_374c_3a73_55c2);
    }

    #[test]
    fn hasher_digests_match_known_answers() {
        let mut h = FnvHasher::default();
        h.write_u64(42);
        assert_eq!(h.finish(), 0x3043_cb9a_f2fe_6592);
        let mut h = FnvHasher::default();
        h.write(b"abc");
        assert_eq!(h.finish(), 0xfc1f_9b04_b32d_25a0);
    }

    #[test]
    fn byte_wise_fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_bytes(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn strings_are_length_prefixed() {
        // Zero padding alone would make "a" and "a\0" one word.
        assert_ne!(hash_str("a"), hash_str("a\0"));
        assert_ne!(hash_str("ab"), hash_str("a"));
        assert_ne!(hash_str("lint:{}"), hash_str("lint:{} "));
        assert_eq!(hash_str("same"), hash_str("same"));
    }

    #[test]
    fn strings_differing_in_nearby_words_do_not_collide() {
        // The shape of the E14 shard pool: two numeric suffixes a few
        // words apart. Plain word-folded FNV collides on these.
        let key = |i: u32| {
            format!(
                r#"prove:{{"theory":"monoid","instance":"shardpool{i}","model":[["op","op{i}"],["e","zero"]]}}"#
            )
        };
        let raw = |s: &str| {
            let mut h = Fnv::new();
            h.write_str(s);
            h.finish()
        };
        let distinct = |f: &dyn Fn(&str) -> u64| {
            let mut hashes: Vec<u64> = (0..20_000).map(|i| f(&key(i))).collect();
            hashes.sort_unstable();
            hashes.dedup();
            hashes.len()
        };
        assert!(distinct(&raw) < 20_000, "the weakness this guards against");
        assert_eq!(distinct(&hash_str), 20_000);
    }
}
