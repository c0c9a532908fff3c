//! Per-stage channel-occupancy bitmasks of the MDP fabric
//! ([`crate::network`]).
//!
//! A stage's mask has channel `c`'s bit set
//! (`mask[c / 64] >> (c % 64) & 1`) iff its FIFO is non-empty, so a
//! tick visits only occupied channels instead of scanning the full
//! fabric width — sparsely-occupied stages dominate ramp-up and drain
//! tails.

/// Words needed for an `n`-channel stage mask.
#[inline]
pub(crate) fn mask_words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets channel `c`'s bit in one stage's mask.
#[inline]
pub(crate) fn mask_set(mask: &mut [u64], c: usize) {
    mask[c / 64] |= 1u64 << (c % 64);
}

/// Clears channel `c`'s bit in one stage's mask.
#[inline]
pub(crate) fn mask_clear(mask: &mut [u64], c: usize) {
    mask[c / 64] &= !(1u64 << (c % 64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_round_trips_across_words() {
        let mut mask = vec![0u64; mask_words(130)];
        assert_eq!(mask.len(), 3);
        for c in [0usize, 63, 64, 127, 129] {
            mask_set(&mut mask, c);
            assert_eq!(mask[c / 64] >> (c % 64) & 1, 1, "{c}");
            mask_clear(&mut mask, c);
            assert!(mask.iter().all(|&w| w == 0), "{c}");
        }
    }
}
