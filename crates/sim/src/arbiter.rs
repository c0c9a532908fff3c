//! HiGraph's odd-even arbiter for Offset Array access (Sec. 4.1): "odd
//! and even channels alternately have higher priority to issue
//! vertices". The crossbar's round-robin arbitration lives in the
//! crossbar itself, which rotates its own priority pointer.

/// HiGraph's odd-even alternating-priority arbiter (Sec. 4.1).
///
/// On even cycles the even channels have priority; on odd cycles the odd
/// channels do. The accelerator front-end asks which parity currently has
/// priority and issues high-priority channels unconditionally, letting
/// low-priority channels issue only into leftover bank ports.
#[derive(Debug, Clone, Default)]
pub struct OddEvenArbiter {
    odd_has_priority: bool,
}

impl OddEvenArbiter {
    /// Creates the arbiter with even channels prioritized first.
    pub fn new() -> Self {
        OddEvenArbiter::default()
    }

    /// Whether odd channels have priority in the current cycle.
    #[inline]
    pub fn odd_has_priority(&self) -> bool {
        self.odd_has_priority
    }

    /// Whether channel `ch` has priority in the current cycle.
    #[inline]
    pub fn has_priority(&self, ch: usize) -> bool {
        (ch % 2 == 1) == self.odd_has_priority
    }

    /// Advances to the next cycle, flipping the prioritized parity.
    #[inline]
    pub fn tick(&mut self) {
        self.odd_has_priority = !self.odd_has_priority;
    }

    /// Advances `cycles` cycles at once (fast-forward): parity flips once
    /// per cycle, so only its oddness matters.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        if cycles % 2 == 1 {
            self.odd_has_priority = !self.odd_has_priority;
        }
    }
}

impl crate::snapshot::Snapshot for OddEvenArbiter {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"OEAB");
        w.bool(self.odd_has_priority);
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"OEAB")?;
        self.odd_has_priority = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_even_alternates() {
        let mut a = OddEvenArbiter::new();
        assert!(a.has_priority(0));
        assert!(a.has_priority(2));
        assert!(!a.has_priority(1));
        a.tick();
        assert!(a.has_priority(1));
        assert!(!a.has_priority(0));
        a.tick();
        assert!(a.has_priority(4));
    }

    #[test]
    fn no_starvation_over_two_cycles() {
        // every channel has priority at least once in any two cycles
        let mut a = OddEvenArbiter::new();
        for ch in 0..8 {
            let first = a.has_priority(ch);
            a.tick();
            let second = a.has_priority(ch);
            a.tick();
            assert!(first || second, "channel {ch} starved");
        }
    }
}
