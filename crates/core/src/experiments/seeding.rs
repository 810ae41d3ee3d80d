//! The uniform experiment seeding scheme.
//!
//! Every experiment entry point takes an explicit `seed: u64` (the
//! channel/config seed it hands to [`AttackConfig::with_seed`] and the
//! noise models). Call sites that own several experiments — the
//! `experiments` binary, the scorecard, the sweep harness — derive
//! those per-experiment seeds from a single *root* seed with the
//! helpers here, so one `--seed` flag reproduces an entire run while
//! still giving every experiment (and every trial of a sweep) a
//! statistically independent stream.
//!
//! Derivation is [`splitmix64`] over `root XOR fnv1a64(label)`:
//! splitmix64 is a full-period bijective finalizer, so distinct labels
//! can never collapse onto one stream, and the scheme needs no state —
//! any trial's seed is computable from `(root, label, index)` alone.
//! That independence from execution order is what lets an N-way
//! parallel sweep reproduce a serial run bit for bit.
//!
//! The arithmetic itself lives in [`unxpec_mem::seed`] at the bottom of
//! the crate graph, so the cache-level fault-injection streams
//! ([`unxpec_mem::FaultStream`]) derive from *exactly* the same
//! primitives — injection decisions inherit the same order-independence
//! guarantee as trial seeds.
//!
//! [`AttackConfig::with_seed`]: unxpec_attack::AttackConfig::with_seed

pub use unxpec_mem::seed::{fnv1a64, fnv_mix, indexed, splitmix64, stream, FNV_OFFSET};

/// The workspace-wide default root seed (also
/// [`AttackConfig`](unxpec_attack::AttackConfig)'s default).
pub const DEFAULT_ROOT_SEED: u64 = 0x5eed;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_label_sensitive_and_stable() {
        assert_ne!(stream(1, "pdf"), stream(1, "leakage"));
        assert_ne!(stream(1, "pdf"), stream(2, "pdf"));
        assert_eq!(stream(7, "rate"), stream(7, "rate"));
    }

    #[test]
    fn indexed_seeds_do_not_collide_across_small_ranges() {
        let mut seen = std::collections::HashSet::new();
        for label in ["rollback", "pdf", "leakage"] {
            for i in 0..1000 {
                assert!(
                    seen.insert(indexed(42, label, i)),
                    "collision at {label}/{i}"
                );
            }
        }
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // Distinct inputs keep distinct outputs (spot check).
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(splitmix64(x)));
        }
    }

    #[test]
    fn fault_streams_share_the_experiment_derivation() {
        // A FaultStream forked by label must agree with the experiment
        // stream helper — one arithmetic, two consumers.
        let fs = unxpec_mem::FaultStream::new(99).fork("chaos");
        assert_eq!(fs.seed(), stream(99, "chaos"));
    }
}
