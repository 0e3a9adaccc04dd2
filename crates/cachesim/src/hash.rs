//! A multiplicative hasher for the attribution side tables.
//!
//! Their keys are line numbers and packed `(segment, owner)` ids the
//! simulator generates itself — never outside input — so SipHash's
//! collision resistance buys nothing there and costs more than the rest of
//! a simulated miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci hashing of one `u64` key.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; the table indexes
        // with the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// `HashMap` keyed by simulator-generated `u64`s.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;
