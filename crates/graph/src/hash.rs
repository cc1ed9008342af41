//! Hashers for hot-path maps, shared by every crate of the workspace.
//!
//! Outputs never depend on map iteration order anywhere these are used
//! (callers sort or key-address their reads), so swapping SipHash for a
//! cheap mixer is a pure wall-clock win.

/// Pass-through hasher for keys that are already uniform 64-bit hashes
/// (Zobrist fingerprints, splitmix64-chained cone keys): hashing them
/// again with SipHash would only burn cycles on a hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FpHasher only accepts u64 keys");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// `BuildHasher` of [`FpHasher`].
pub type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// Cheap multiply-xor hasher (FxHash-style) for small `Copy` keys on
/// hot paths; only membership semantics matter. The low bits of
/// [`finish`](std::hash::Hasher::finish) are the best mixed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
    }
}

/// `BuildHasher` of [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;
