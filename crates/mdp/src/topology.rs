//! Algorithm 1: the automatic MDP-network topology generator.
//!
//! Given `n` total channels and a `radix` (the write-port count of the
//! FIFOs a stage is built from), the generator produces `log_radix(n)`
//! stages. In stage `i` the channels are divided into `radix^i` groups with
//! the same target range; within each group, `channel_step` apart, `radix`
//! channels are connected to one module, routed by the next
//! `log2(radix)` bits of the destination address (most-significant first).
//!
//! The paper uses radix 2 (Sec. 5.4 finds larger radices re-introduce
//! design centralization); the generator supports any power-of-two radix
//! so the Sec. 5.4 design-option experiment can be reproduced.

use std::error::Error;
use std::fmt;

/// Errors from topology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// `n` is not a power of `radix` (so stages would not divide evenly).
    NotPowerOfRadix {
        /// Requested channel count.
        n: usize,
        /// Requested radix.
        radix: usize,
    },
    /// The radix is not a power of two of at least 2.
    BadRadix {
        /// Requested radix.
        radix: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotPowerOfRadix { n, radix } => {
                write!(f, "channel count {n} is not a power of radix {radix}")
            }
            TopologyError::BadRadix { radix } => {
                write!(f, "radix {radix} must be a power of two and at least 2")
            }
        }
    }
}

impl Error for TopologyError {}

/// One module of a stage: `radix` input channels sharing `radix` FIFOs,
/// routed by an address-bit field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    /// The channels connected to this module (ascending; `radix` of them).
    pub channels: Vec<usize>,
}

/// One stage of the MDP-network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Modules of this stage; together they cover every channel once.
    pub modules: Vec<Module>,
    /// Right-shift applied to a destination address before masking, i.e.
    /// this stage routes on bits `[shift, shift + log2(radix))`.
    pub shift: u32,
    /// `radix - 1`: the mask selecting this stage's address-bit field.
    pub mask: usize,
}

impl Stage {
    /// The index (within its module) a packet destined for `dest` takes.
    #[inline]
    pub fn slot_for(&self, dest: usize) -> usize {
        (dest >> self.shift) & self.mask
    }
}

/// A generated MDP-network topology (Algorithm 1 output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    radix: usize,
    stages: Vec<Stage>,
}

impl Topology {
    /// Runs Algorithm 1 for `n` channels with the given `radix`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadRadix`] unless `radix` is a power of two
    /// ≥ 2, and [`TopologyError::NotPowerOfRadix`] unless `n` is a power of
    /// `radix` (equivalently: a power of two whose log is divisible by
    /// `log2(radix)`).
    ///
    /// # Example
    ///
    /// ```
    /// use higraph_mdp::topology::Topology;
    ///
    /// let t = Topology::new(4, 2)?;
    /// assert_eq!(t.num_stages(), 2);
    /// // Paper's toy example: stage 1 pairs {0,2} and {1,3} on addr[1].
    /// assert_eq!(t.stage(0).modules[0].channels, vec![0, 2]);
    /// assert_eq!(t.stage(0).modules[1].channels, vec![1, 3]);
    /// assert_eq!(t.stage(0).shift, 1);
    /// // Stage 2 pairs {0,1} and {2,3} on addr[0].
    /// assert_eq!(t.stage(1).modules[0].channels, vec![0, 1]);
    /// assert_eq!(t.stage(1).shift, 0);
    /// # Ok::<(), higraph_mdp::TopologyError>(())
    /// ```
    pub fn new(n: usize, radix: usize) -> Result<Self, TopologyError> {
        if radix < 2 || !radix.is_power_of_two() {
            return Err(TopologyError::BadRadix { radix });
        }
        let bits_per_stage = radix.trailing_zeros();
        if n < radix || !n.is_power_of_two() || !n.trailing_zeros().is_multiple_of(bits_per_stage) {
            return Err(TopologyError::NotPowerOfRadix { n, radix });
        }
        let num_stages = (n.trailing_zeros() / bits_per_stage) as usize;
        Topology::from_stage_radices(n, &vec![radix; num_stages])
    }

    /// Runs Algorithm 1 with a *mixed-radix* stage list: as many
    /// full-`radix` stages as the channel count's bit width allows, then
    /// one final narrower stage for the leftover bits. This makes every
    /// power-of-two channel count valid for every power-of-two radix
    /// (e.g. 32 channels with radix 4 → stages of radix 4, 4, 2).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadRadix`] unless `radix` is a power of two
    /// ≥ 2, and [`TopologyError::NotPowerOfRadix`] unless `n` is a power of
    /// two ≥ 2.
    ///
    /// # Example
    ///
    /// ```
    /// use higraph_mdp::topology::Topology;
    ///
    /// let t = Topology::new_mixed(32, 4)?;
    /// assert_eq!(t.num_stages(), 3); // 4 × 4 × 2
    /// assert_eq!(t.route(7, 19).last(), Some(&19));
    /// # Ok::<(), higraph_mdp::TopologyError>(())
    /// ```
    pub fn new_mixed(n: usize, radix: usize) -> Result<Self, TopologyError> {
        if radix < 2 || !radix.is_power_of_two() {
            return Err(TopologyError::BadRadix { radix });
        }
        if n < 2 || !n.is_power_of_two() {
            return Err(TopologyError::NotPowerOfRadix { n, radix });
        }
        let bits_per_stage = radix.trailing_zeros();
        let total_bits = n.trailing_zeros();
        let mut radices = vec![radix; (total_bits / bits_per_stage) as usize];
        let leftover = total_bits % bits_per_stage;
        if leftover > 0 {
            radices.push(1 << leftover);
        }
        Topology::from_stage_radices(n, &radices)
    }

    /// Runs Algorithm 1 for an explicit per-stage radix list whose product
    /// must equal `n`.
    fn from_stage_radices(n: usize, radices: &[usize]) -> Result<Self, TopologyError> {
        debug_assert_eq!(radices.iter().product::<usize>(), n);
        let total_bits = n.trailing_zeros();
        let mut stages = Vec::with_capacity(radices.len());
        let mut bits_consumed = 0u32;
        let mut target_group = 1usize;
        for &r in radices {
            // Algorithm 1 body, generalized from radix 2 to radix r.
            let group_base = n / target_group;
            let channel_step = group_base / r;
            let mut modules = Vec::with_capacity(n / r);
            for j in 0..target_group {
                let real_base = group_base * j;
                for k in 0..channel_step {
                    let channels = (0..r).map(|t| real_base + k + t * channel_step).collect();
                    modules.push(Module { channels });
                }
            }
            bits_consumed += r.trailing_zeros();
            stages.push(Stage {
                modules,
                shift: total_bits - bits_consumed,
                mask: r - 1,
            });
            target_group *= r;
        }
        Ok(Topology {
            n,
            radix: radices.iter().copied().max().unwrap_or(2),
            stages,
        })
    }

    /// Whether every stage uses the same radix (required by the Verilog
    /// generator, which emits one FIFO module shared by all stages).
    pub fn is_uniform_radix(&self) -> bool {
        self.stages.iter().all(|s| s.mask == self.stages[0].mask)
    }

    /// Number of channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.n
    }

    /// The radix (FIFO write-port count).
    #[inline]
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of stages (`log_radix(n)`).
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The `i`-th stage.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_stages()`.
    #[inline]
    pub fn stage(&self, i: usize) -> &Stage {
        &self.stages[i]
    }

    /// All stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The channel a packet in channel `channel` moves to when routed by
    /// stage `stage` toward destination `dest`.
    ///
    /// Algorithm 1 puts slot `t` of a stage's module on the module's
    /// channel whose bits `[shift, shift + log2(radix))` hold `t` (a
    /// module's channels are `channel_step = 1 << shift` apart), so the
    /// move keeps `channel`'s other bits and takes that field from `dest`:
    /// the channel at [`Stage::slot_for`]`(dest)` of `channel`'s module.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[inline]
    pub fn next_channel(&self, stage: usize, channel: usize, dest: usize) -> usize {
        let st = &self.stages[stage];
        let field = st.mask << st.shift;
        (channel & !field) | (dest & field)
    }

    /// The full path of channels a packet takes from `input` to `dest`
    /// (one entry per stage, ending at `dest`).
    pub fn route(&self, input: usize, dest: usize) -> Vec<usize> {
        let mut path = Vec::with_capacity(self.num_stages());
        let mut c = input;
        for s in 0..self.num_stages() {
            c = self.next_channel(s, c, dest);
            path.push(c);
        }
        path
    }

    /// The paper's "target range": the number of destination channels still
    /// reachable from a packet's position after it has been routed by
    /// stages `0..=stage`. Fig. 6 annotates these as "Target Range 16 → 8 →
    /// 4 …".
    pub fn target_range(&self, stage: usize) -> usize {
        1 << self.stages[stage].shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_toy_example_n4() {
        let t = Topology::new(4, 2).unwrap();
        assert_eq!(t.num_stages(), 2);
        // stage 1 (paper): {0,2} and {1,3} with addr[1]
        assert_eq!(t.stage(0).modules.len(), 2);
        assert_eq!(t.stage(0).modules[0].channels, vec![0, 2]);
        assert_eq!(t.stage(0).modules[1].channels, vec![1, 3]);
        assert_eq!(t.stage(0).shift, 1);
        // stage 2: {0,1} from group 1, {2,3} from group 2 with addr[0]
        assert_eq!(t.stage(1).modules[0].channels, vec![0, 1]);
        assert_eq!(t.stage(1).modules[1].channels, vec![2, 3]);
        assert_eq!(t.stage(1).shift, 0);
    }

    #[test]
    fn every_route_reaches_destination() {
        for n in [2usize, 4, 8, 16, 32, 64] {
            let t = Topology::new(n, 2).unwrap();
            for input in 0..n {
                for dest in 0..n {
                    let path = t.route(input, dest);
                    assert_eq!(path.len(), t.num_stages());
                    assert_eq!(*path.last().unwrap(), dest, "n={n} {input}->{dest}");
                }
            }
        }
    }

    #[test]
    fn radix_4_routes_correctly() {
        let t = Topology::new(16, 4).unwrap();
        assert_eq!(t.num_stages(), 2);
        for input in 0..16 {
            for dest in 0..16 {
                assert_eq!(*t.route(input, dest).last().unwrap(), dest);
            }
        }
    }

    #[test]
    fn radix_equals_n_single_stage() {
        let t = Topology::new(8, 8).unwrap();
        assert_eq!(t.num_stages(), 1);
        assert_eq!(t.stage(0).modules.len(), 1);
        assert_eq!(t.stage(0).modules[0].channels.len(), 8);
        for dest in 0..8 {
            assert_eq!(t.next_channel(0, 3, dest), dest);
        }
    }

    #[test]
    fn next_channel_is_the_module_slot_of_algorithm_1() {
        // The bit-field route must pick the channel at `slot_for(dest)`
        // of the routing channel's module — the tables the Verilog
        // generator emits.
        for log_n in 1..=8 {
            let n = 1usize << log_n;
            for radix in [2usize, 4, 8, 64] {
                let t = Topology::new_mixed(n, radix).unwrap();
                for (s, stage) in t.stages().iter().enumerate() {
                    let mut module_of = vec![usize::MAX; n];
                    for (i, module) in stage.modules.iter().enumerate() {
                        for &c in &module.channels {
                            module_of[c] = i;
                        }
                    }
                    for (c, &module) in module_of.iter().enumerate() {
                        let channels = &stage.modules[module].channels;
                        for dest in 0..n {
                            assert_eq!(
                                t.next_channel(s, c, dest),
                                channels[stage.slot_for(dest)],
                                "n={n} radix={radix} stage={s} {c}->{dest}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn each_stage_covers_all_channels_once() {
        let t = Topology::new(32, 2).unwrap();
        for st in t.stages() {
            let mut seen = [false; 32];
            for m in &st.modules {
                for &c in &m.channels {
                    assert!(!seen[c], "channel {c} appears twice");
                    seen[c] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(matches!(
            Topology::new(6, 2),
            Err(TopologyError::NotPowerOfRadix { .. })
        ));
        assert!(matches!(
            Topology::new(8, 3),
            Err(TopologyError::BadRadix { .. })
        ));
        assert!(matches!(
            Topology::new(8, 4), // 8 is not a power of 4
            Err(TopologyError::NotPowerOfRadix { .. })
        ));
        assert!(matches!(
            Topology::new(1, 2),
            Err(TopologyError::NotPowerOfRadix { .. })
        ));
        assert!(Topology::new(16, 4).is_ok());
    }

    #[test]
    fn error_display() {
        let e = Topology::new(6, 2).unwrap_err();
        assert!(e.to_string().contains("not a power of radix"));
        let e = Topology::new(8, 5).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }
}

#[cfg(test)]
mod target_range_tests {
    use super::*;

    #[test]
    fn target_range_narrows_per_stage() {
        let t = Topology::new(16, 2).unwrap();
        let ranges: Vec<_> = (0..t.num_stages()).map(|s| t.target_range(s)).collect();
        assert_eq!(ranges, vec![8, 4, 2, 1]);
    }
}

#[cfg(test)]
mod mixed_radix_tests {
    use super::*;

    #[test]
    fn mixed_radix_decomposes_leftover_bits() {
        let t = Topology::new_mixed(32, 4).unwrap(); // 4 x 4 x 2
        assert_eq!(t.num_stages(), 3);
        assert_eq!(t.stage(0).mask, 3);
        assert_eq!(t.stage(1).mask, 3);
        assert_eq!(t.stage(2).mask, 1);
        assert!(!t.is_uniform_radix());
    }

    #[test]
    fn mixed_radix_routes_all_pairs() {
        for (n, radix) in [(32usize, 4usize), (8, 4), (128, 8), (16, 16), (2, 4)] {
            let t = Topology::new_mixed(n, radix).unwrap();
            for input in 0..n {
                for dest in 0..n {
                    assert_eq!(
                        *t.route(input, dest).last().unwrap(),
                        dest,
                        "n={n} radix={radix} {input}->{dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_cases_match_plain_constructor() {
        for (n, radix) in [(16usize, 2usize), (16, 4), (64, 8)] {
            assert_eq!(
                Topology::new(n, radix).unwrap(),
                Topology::new_mixed(n, radix).unwrap()
            );
        }
    }

    #[test]
    fn target_range_with_mixed_radix() {
        let t = Topology::new_mixed(32, 4).unwrap();
        let ranges: Vec<_> = (0..t.num_stages()).map(|s| t.target_range(s)).collect();
        assert_eq!(ranges, vec![8, 2, 1]);
    }

    #[test]
    fn mixed_rejects_bad_inputs() {
        assert!(Topology::new_mixed(6, 2).is_err());
        assert!(Topology::new_mixed(8, 3).is_err());
        assert!(Topology::new_mixed(1, 2).is_err());
    }
}
