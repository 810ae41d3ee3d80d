//! The workspace-wide seed-derivation primitives.
//!
//! These live at the bottom of the crate graph so every layer — the
//! experiment drivers in `unxpec::experiments::seeding`, the cache
//! fault-injection streams, the harness trial enumeration — derives
//! seeds with the *same* arithmetic. A trial's seed, and every fault
//! decision made under it, is a pure function of `(root, label, index)`
//! and never of execution order, which is what keeps an N-way parallel
//! sweep byte-identical to a serial one even under injection.
//!
//! Derivation is [`splitmix64`] over `root XOR fnv1a64(label)`:
//! splitmix64 is a full-period bijective finalizer, so distinct labels
//! can never collapse onto one stream, and the scheme needs no state.

/// Sebastiano Vigna's splitmix64 finalizer: a bijective avalanche mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The FNV-1a 64-bit offset basis: where every FNV chain starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a round: folds the word `v` into the running hash `h`.
/// Every FNV chain in the workspace — label hashes, digests, the
/// record log's line checksum — is built from this one step.
pub fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over `label`'s bytes — the stable label hash.
pub fn fnv1a64(label: &str) -> u64 {
    label
        .as_bytes()
        .iter()
        .fold(FNV_OFFSET, |h, b| fnv_mix(h, u64::from(*b)))
}

/// The seed for the stream `label` under `root`.
pub fn stream(root: u64, label: &str) -> u64 {
    splitmix64(root ^ fnv1a64(label))
}

/// The seed for repetition `index` of stream `label` under `root`
/// (e.g. one trial of a seed-axis sweep).
pub fn indexed(root: u64, label: &str, index: u64) -> u64 {
    splitmix64(stream(root, label).wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_label_sensitive_and_stable() {
        assert_ne!(stream(1, "pdf"), stream(1, "leakage"));
        assert_ne!(stream(1, "pdf"), stream(2, "pdf"));
        assert_eq!(stream(7, "rate"), stream(7, "rate"));
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }
}
