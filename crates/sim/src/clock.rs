//! The cycle protocol as a first-class abstraction: [`ClockedComponent`]
//! and the [`Scheduler`] that drives any set of components.
//!
//! Every stateful block in the reproduction follows the same per-cycle
//! protocol (see the crate docs): consumers pop, producers push, then one
//! `tick()` advances the clock. Before this module existed the protocol
//! was prose in the crate docs and a hand-woven loop in the accelerator
//! engine; now it is a trait plus a driver, so any composition of
//! components — a single fabric under test, or the engine's whole
//! scatter pipeline — is clocked by the same code.
//!
//! # Driving a component
//!
//! [`Scheduler::drain`] runs the canonical loop: each cycle it first calls
//! the caller's *combinational phase* (the pop/push stage logic, evaluated
//! consumer-first), then [`ClockedComponent::tick`] (the clock edge), until
//! [`ClockedComponent::is_drained`] reports no work left. A stall guard
//! bounds the loop so a backpressure deadlock surfaces as a
//! [`StallError`] instead of a hang.
//!
//! # Event-driven fast-forward
//!
//! With long off-chip latencies most simulated cycles are idle waits. A
//! component can advertise that through
//! [`ClockedComponent::next_activity`]: the number of upcoming cycles
//! during which it is guaranteed to neither change observable state nor
//! enable the combinational phase to act (`Some(0)` = busy now, `None` =
//! quiescent until new input arrives). A fast-forward scheduler
//! ([`Scheduler::with_fast_forward`]) takes the component-wide minimum
//! and, when it is strictly positive, commits the whole idle window in
//! O(1) via [`ClockedComponent::skip`] instead of O(cycles) ticking —
//! bit-identical to the naive loop, including every cycle counter. See
//! `docs/simulation.md` for the full contract.
//!
//! ```
//! use higraph_sim::clock::{ClockedComponent, Scheduler};
//! use higraph_sim::{CrossbarNetwork, Network, Packet};
//!
//! #[derive(Debug)]
//! struct P(usize);
//! impl Packet for P {
//!     fn dest(&self) -> usize { self.0 }
//! }
//!
//! let mut net = CrossbarNetwork::new(4, 4, 8);
//! net.push(0, P(2)).ok();
//! let mut got = 0;
//! let mut scheduler = Scheduler::new();
//! let cycles = scheduler
//!     .drain(&mut net, |net, _cycle| {
//!         if net.pop(2).is_some() {
//!             got += 1;
//!         }
//!     })
//!     .expect("no stall");
//! assert_eq!(got, 1);
//! assert!(cycles >= 1);
//! assert_eq!(scheduler.cycles(), cycles);
//! ```

use crate::arbiter::OddEvenArbiter;
use crate::control::DrainError;
use std::collections::VecDeque;
use std::fmt;

/// A block of hardware state advanced by the common clock.
///
/// This is the protocol's sequential half: [`crate::Network`] (and every other
/// stage interface) is layered *on top* of it, so `tick` and the
/// in-flight accounting are defined exactly once per component.
/// Implementations must uphold the one-stage-per-cycle contract: state
/// pushed into the component becomes observable at the earliest on the
/// *next* cycle's combinational phase, never the same one.
pub trait ClockedComponent {
    /// Advances internal state by one cycle (the clock edge).
    fn tick(&mut self);

    /// Number of items (packets, ranges, queued entries) currently held.
    ///
    /// Purely combinational components (arbiters, priority state) hold
    /// nothing and return 0.
    fn in_flight(&self) -> usize;

    /// Whether the component holds no in-flight work.
    fn is_drained(&self) -> bool {
        self.in_flight() == 0
    }

    /// How many upcoming cycles this component is guaranteed to stay
    /// inert, assuming no new external input.
    ///
    /// * `Some(0)` — the component is busy now: its next `tick` moves
    ///   state, or it holds output a consumer could pop, or the
    ///   combinational phase touching it would have any side effect
    ///   (including statistics counters);
    /// * `Some(k)` — the next `k` ticks are *trivial* (time-keeping
    ///   counters only; committed in bulk by [`ClockedComponent::skip`]),
    ///   and nothing a combinational phase does with this component
    ///   during those cycles can have any effect;
    /// * `None` — quiescent: nothing will ever happen without new input.
    ///
    /// The hint must never be over-optimistic (claiming more idle cycles
    /// than real — [`ClockedComponent::skip`] implementations
    /// debug-assert against that) but may be arbitrarily conservative;
    /// the default reports `Some(0)` whenever the component holds work,
    /// which disables fast-forward and is always safe. It must also be
    /// monotone under idleness: if a component reports `Some(k)`, then
    /// after `j <= k` trivial ticks it reports at least `Some(k - j)`.
    fn next_activity(&self) -> Option<u64> {
        if self.is_drained() {
            None
        } else {
            Some(0)
        }
    }

    /// Commits `cycles` idle cycles at once — exactly equivalent to
    /// `cycles` calls to [`ClockedComponent::tick`] under the
    /// no-activity precondition of [`ClockedComponent::next_activity`].
    ///
    /// Implementations that keep per-cycle state (cycle counters,
    /// rotating priorities, timestamps) advance it here in O(1); the
    /// default falls back to per-cycle ticking, which is always correct.
    /// Implementations should debug-assert that `cycles` does not overrun
    /// their own activity window, so an over-optimistic
    /// [`ClockedComponent::next_activity`] is caught in debug builds
    /// instead of silently corrupting timing.
    fn skip(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }
}

/// Folds two activity hints: the composite can act as soon as either
/// part can (`None` = quiescent = identity).
pub fn min_activity(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    }
}

/// A bounded FIFO holds work but has no sequential logic of its own.
impl<T> ClockedComponent for crate::fifo::Fifo<T> {
    fn tick(&mut self) {}

    fn in_flight(&self) -> usize {
        self.len()
    }

    /// Queued items are poppable *now*; an empty FIFO never acts alone.
    fn next_activity(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn skip(&mut self, _cycles: u64) {}
}

/// Plain queues (the engine's ActiveVertex parts) count as storage.
impl<T> ClockedComponent for VecDeque<T> {
    fn tick(&mut self) {}

    fn in_flight(&self) -> usize {
        self.len()
    }

    fn next_activity(&self) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn skip(&mut self, _cycles: u64) {}
}

/// The odd-even arbiter's only state is its alternating priority bit.
impl ClockedComponent for OddEvenArbiter {
    fn tick(&mut self) {
        OddEvenArbiter::tick(self);
    }

    fn in_flight(&self) -> usize {
        0
    }

    /// The parity flip is pure time-keeping; owners fold it into their
    /// own activity hint.
    fn next_activity(&self) -> Option<u64> {
        None
    }

    fn skip(&mut self, cycles: u64) {
        self.advance(cycles);
    }
}

/// A homogeneous bank of components clocks as one.
impl<C: ClockedComponent> ClockedComponent for Vec<C> {
    fn tick(&mut self) {
        for c in self.iter_mut() {
            c.tick();
        }
    }

    fn in_flight(&self) -> usize {
        self.iter().map(|c| c.in_flight()).sum()
    }

    fn is_drained(&self) -> bool {
        self.iter().all(ClockedComponent::is_drained)
    }

    fn next_activity(&self) -> Option<u64> {
        self.iter()
            .map(ClockedComponent::next_activity)
            .fold(None, min_activity)
    }

    fn skip(&mut self, cycles: u64) {
        for c in self.iter_mut() {
            c.skip(cycles);
        }
    }
}

/// The scheduler hit its stall guard: no completion within the cycle
/// budget, i.e. the pipeline deadlocked or livelocked under backpressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallError {
    /// Cycles executed in the stalled drain.
    pub cycles: u64,
    /// The guard that was exceeded.
    pub limit: u64,
}

impl fmt::Display for StallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drain stalled: no completion after {} cycles (guard: {})",
            self.cycles, self.limit
        )
    }
}

impl std::error::Error for StallError {}

/// Default stall guard for [`Scheduler::drain`] when the caller does not
/// provide a workload-derived bound.
pub const DEFAULT_STALL_GUARD: u64 = 1_000_000;

/// One step of a [`Scheduler::drain_with`] drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStep {
    /// A normal cycle: evaluate the combinational phase (the clock edge
    /// follows). The payload is the in-drain cycle index, from zero.
    Cycle(u64),
    /// Fast-forward bulk-committed `cycles` idle cycles starting at
    /// in-drain cycle `start`. The callback must commit whatever
    /// per-cycle effects its combinational phase accrues even when no
    /// work moves (idle counters, rotating priorities); component state
    /// itself was already advanced by [`ClockedComponent::skip`].
    Skipped {
        /// First skipped in-drain cycle index.
        start: u64,
        /// Number of idle cycles committed.
        cycles: u64,
    },
}

/// Drives [`ClockedComponent`]s through the pop → push → tick protocol and
/// accounts the cycles they consume.
///
/// One scheduler instance accumulates cycles across the drains it runs
/// (`cycles()` is their total). The accelerator engines give every chip
/// and link drain a fresh scheduler, configured for that scatter phase.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cycles: u64,
    stall_guard: u64,
    fast_forward: bool,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Scheduler {
    /// A scheduler with the [`DEFAULT_STALL_GUARD`], ticking every cycle.
    pub fn new() -> Self {
        Scheduler {
            cycles: 0,
            stall_guard: DEFAULT_STALL_GUARD,
            fast_forward: false,
        }
    }

    /// Sets the stall guard applied to subsequent drains.
    pub fn with_stall_guard(mut self, limit: u64) -> Self {
        self.stall_guard = limit.max(1);
        self
    }

    /// Enables or disables event-driven fast-forward: when the drained
    /// component reports a strictly positive [`next_activity`] window,
    /// the whole window is committed in O(1) via [`skip`] instead of
    /// O(cycles) ticking. Cycle accounting (the drain's return value,
    /// [`Scheduler::cycles`], every component counter) is bit-identical
    /// to the naive loop.
    ///
    /// Callers whose combinational phase has per-cycle effects even on
    /// idle cycles must drive through [`Scheduler::drain_with`] and
    /// commit them on [`DrainStep::Skipped`].
    ///
    /// [`next_activity`]: ClockedComponent::next_activity
    /// [`skip`]: ClockedComponent::skip
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Total cycles driven by this scheduler so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Runs `component` until it drains.
    ///
    /// Per cycle: `combinational(component, cycle_index)` evaluates the
    /// stage logic (pops and pushes, consumer-first), then the clock edge
    /// `component.tick()` commits it. `cycle_index` counts from zero
    /// within this drain.
    ///
    /// Returns the number of cycles this drain consumed.
    ///
    /// # Errors
    ///
    /// [`StallError`] if the component does not drain within the stall
    /// guard; the scheduler's cycle count still includes the aborted
    /// cycles, so diagnostics can report where time went.
    pub fn drain<C, F>(
        &mut self,
        component: &mut C,
        mut combinational: F,
    ) -> Result<u64, StallError>
    where
        C: ClockedComponent + ?Sized,
        F: FnMut(&mut C, u64),
    {
        self.drain_with(component, |component, step| {
            if let DrainStep::Cycle(cycle) = step {
                combinational(component, cycle);
            }
        })
    }

    /// Like [`Scheduler::drain`], but the callback also observes
    /// fast-forwarded idle windows ([`DrainStep::Skipped`]) so it can
    /// commit per-cycle effects its combinational phase would have had —
    /// the accelerator engine uses this to keep starvation and
    /// memory-stall counters bit-identical under fast-forward.
    ///
    /// With fast-forward disabled (the default) every step is
    /// [`DrainStep::Cycle`] and this is exactly the naive loop.
    ///
    /// # Errors
    ///
    /// [`StallError`] as for [`Scheduler::drain`]; a fast-forwarded
    /// drain reports the same `cycles` as the naive loop would (idle
    /// windows never advance past the guard).
    pub fn drain_with<C, F>(&mut self, component: &mut C, f: F) -> Result<u64, StallError>
    where
        C: ClockedComponent + ?Sized,
        F: FnMut(&mut C, DrainStep),
    {
        self.drain_impl(component, None, f).map_err(|e| match e {
            DrainError::Stall(stall) => stall,
            DrainError::Interrupted { .. } => {
                // lint:allow(panic-freedom): no control was attached, so `drain_impl` can never construct Interrupted
                unreachable!("uncontrolled drain cannot be interrupted")
            }
        })
    }

    /// Like [`Scheduler::drain_with`], but polls `control`, when given,
    /// for cooperative cancellation every
    /// [`crate::control::CANCEL_POLL_INTERVAL`] drained cycles. A run
    /// that completes is bit-identical to an uncontrolled drain —
    /// polling never alters simulated behaviour.
    ///
    /// Parking and budgets are *not* checked here: they are
    /// boundary-only decisions the engines make between drains, where
    /// the pipeline state is trivially checkpointable.
    ///
    /// # Errors
    ///
    /// [`DrainError::Stall`] as for [`Scheduler::drain_with`];
    /// [`DrainError::Interrupted`] when `control` observes a
    /// cancellation request (the caller discards the partial drain).
    pub fn drain_ctrl<C, F>(
        &mut self,
        component: &mut C,
        control: Option<&crate::control::RunControl>,
        f: F,
    ) -> Result<u64, DrainError>
    where
        C: ClockedComponent + ?Sized,
        F: FnMut(&mut C, DrainStep),
    {
        self.drain_impl(component, control, f)
    }

    fn drain_impl<C, F>(
        &mut self,
        component: &mut C,
        control: Option<&crate::control::RunControl>,
        mut f: F,
    ) -> Result<u64, DrainError>
    where
        C: ClockedComponent + ?Sized,
        F: FnMut(&mut C, DrainStep),
    {
        use crate::control::CANCEL_POLL_INTERVAL;
        let mut next_poll = 0u64;
        let mut selections = 0u64;
        let mut spent = 0u64;
        let result = loop {
            if let Some(control) = control {
                if spent >= next_poll {
                    if control.cancelled() {
                        break Err(DrainError::Interrupted { cycles: spent });
                    }
                    next_poll = spent + CANCEL_POLL_INTERVAL;
                }
            }
            if component.is_drained() {
                break Ok(spent);
            }
            if spent >= self.stall_guard {
                break Err(DrainError::Stall(StallError {
                    cycles: spent,
                    limit: self.stall_guard,
                }));
            }
            if self.fast_forward {
                // A quiescent-but-undrained component is a deadlock: no
                // input will ever arrive inside a drain, so burn the
                // remaining guard in one step (the naive loop would tick
                // it away) and report the stall on the next iteration.
                selections += 1;
                let window = component.next_activity().unwrap_or(u64::MAX);
                if window > 0 {
                    let window = window.min(self.stall_guard - spent);
                    #[cfg(debug_assertions)]
                    let in_flight_before = component.in_flight();
                    component.skip(window);
                    #[cfg(debug_assertions)]
                    debug_assert_eq!(
                        component.in_flight(),
                        in_flight_before,
                        "skip() must not create or retire in-flight work"
                    );
                    f(
                        component,
                        DrainStep::Skipped {
                            start: spent,
                            cycles: window,
                        },
                    );
                    spent += window;
                    self.cycles += window;
                    continue;
                }
            }
            f(component, DrainStep::Cycle(spent));
            component.tick();
            spent += 1;
            self.cycles += 1;
        };
        // Window selections go to the process-wide tally once per drain.
        crate::selection::record(selections);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarNetwork;
    use crate::fifo::Fifo;
    use crate::network::testing::TestPacket;
    use crate::network::Network;

    #[test]
    fn drain_stops_when_component_empties() {
        let mut net: CrossbarNetwork<TestPacket> = CrossbarNetwork::new(2, 2, 4);
        net.push(0, TestPacket { dest: 1, tag: 7 }).unwrap();
        let mut seen = Vec::new();
        let mut s = Scheduler::new();
        let spent = s
            .drain(&mut net, |net, _| {
                if let Some(p) = net.pop(1) {
                    seen.push(p.tag);
                }
            })
            .expect("drains");
        assert_eq!(seen, [7]);
        assert!(spent >= 1);
        assert_eq!(s.cycles(), spent);
    }

    #[test]
    fn drain_of_drained_component_is_free() {
        let mut fifo: Fifo<u32> = Fifo::new(4);
        let mut s = Scheduler::new();
        let spent = s.drain(&mut fifo, |_, _| {}).expect("empty");
        assert_eq!(spent, 0);
        assert_eq!(s.cycles(), 0);
    }

    #[test]
    fn stall_guard_reports_deadlock() {
        // A FIFO nobody pops can never drain.
        let mut fifo: Fifo<u32> = Fifo::new(4);
        fifo.push(9).unwrap();
        let mut s = Scheduler::new().with_stall_guard(50);
        let err = s.drain(&mut fifo, |_, _| {}).expect_err("stalls");
        assert_eq!(
            err,
            StallError {
                cycles: 50,
                limit: 50
            }
        );
        assert_eq!(s.cycles(), 50);
        assert!(err.to_string().contains("50"));
    }

    #[test]
    fn cycles_accumulate_across_drains() {
        let mut s = Scheduler::new();
        for round in 1..=3u64 {
            let mut net: CrossbarNetwork<TestPacket> = CrossbarNetwork::new(2, 2, 4);
            net.push(
                0,
                TestPacket {
                    dest: 0,
                    tag: round,
                },
            )
            .unwrap();
            s.drain(&mut net, |net, _| {
                net.pop(0);
            })
            .expect("drains");
        }
        assert!(s.cycles() >= 3);
    }

    #[test]
    fn vec_of_components_clocks_as_one() {
        let mut bank: Vec<Fifo<u32>> = vec![Fifo::new(2), Fifo::new(2)];
        assert!(bank.is_drained());
        bank[1].push(3).unwrap();
        assert!(!bank.is_drained());
        bank.tick(); // no-op for FIFOs, must not panic
        bank[1].pop();
        assert!(bank.is_drained());
    }

    /// A component that becomes poppable `delay` ticks after each load —
    /// the smallest timed component, for exercising the fast path.
    #[derive(Debug)]
    struct Timed {
        item: Option<u64>,
        ready_in: u64,
        ticks: u64,
    }

    impl Timed {
        fn loaded(delay: u64) -> Self {
            Timed {
                item: Some(7),
                ready_in: delay,
                ticks: 0,
            }
        }

        fn pop(&mut self) -> Option<u64> {
            if self.ready_in == 0 {
                self.item.take()
            } else {
                None
            }
        }
    }

    impl ClockedComponent for Timed {
        fn tick(&mut self) {
            self.ticks += 1;
            self.ready_in = self.ready_in.saturating_sub(1);
        }

        fn in_flight(&self) -> usize {
            usize::from(self.item.is_some())
        }

        fn next_activity(&self) -> Option<u64> {
            self.item.map(|_| self.ready_in)
        }

        fn skip(&mut self, cycles: u64) {
            debug_assert!(
                cycles <= self.ready_in,
                "skip() overran the activity window"
            );
            self.ticks += cycles;
            self.ready_in -= cycles;
        }
    }

    #[test]
    fn fast_forward_skips_idle_windows_with_identical_accounting() {
        let run = |fast| {
            let mut t = Timed::loaded(100);
            let mut s = Scheduler::new().with_fast_forward(fast);
            let mut cycle_steps = 0u64;
            let mut skipped = 0u64;
            let spent = s
                .drain_with(&mut t, |t, step| match step {
                    DrainStep::Cycle(_) => {
                        cycle_steps += 1;
                        t.pop();
                    }
                    DrainStep::Skipped { cycles, .. } => skipped += cycles,
                })
                .expect("drains");
            (spent, s.cycles(), t.ticks, cycle_steps, skipped)
        };
        let naive = run(false);
        let fast = run(true);
        // identical simulated time, component clock, and scheduler clock
        assert_eq!(naive.0, fast.0);
        assert_eq!(naive.1, fast.1);
        assert_eq!(naive.2, fast.2);
        // …but the fast drive evaluated the combinational phase on only
        // the active cycles
        assert_eq!(naive.3, naive.0);
        assert!(fast.3 < naive.3, "fast {} vs naive {}", fast.3, naive.3);
        assert_eq!(fast.4 + fast.3, fast.0);
    }

    #[test]
    fn fast_forward_stall_matches_naive_cycle_count() {
        // A FIFO nobody pops deadlocks; both modes must report the same
        // StallError.
        let mut naive: Fifo<u32> = Fifo::new(2);
        naive.push(1).unwrap();
        let err_naive = Scheduler::new()
            .with_stall_guard(40)
            .drain(&mut naive, |_, _| {})
            .expect_err("stalls");
        let mut fast: Fifo<u32> = Fifo::new(2);
        fast.push(1).unwrap();
        let err_fast = Scheduler::new()
            .with_stall_guard(40)
            .with_fast_forward(true)
            .drain(&mut fast, |_, _| {})
            .expect_err("stalls");
        assert_eq!(err_naive, err_fast);
    }

    #[test]
    fn default_activity_hint_disables_skipping() {
        // A busy component without an overridden hint reports Some(0):
        // the fast path degenerates to the naive loop.
        let mut net: CrossbarNetwork<TestPacket> = CrossbarNetwork::new(2, 2, 4);
        net.push(0, TestPacket { dest: 1, tag: 7 }).unwrap();
        assert_eq!(net.next_activity(), Some(0));
        let mut s = Scheduler::new().with_fast_forward(true);
        let mut skipped = false;
        s.drain_with(&mut net, |net, step| match step {
            DrainStep::Cycle(_) => {
                net.pop(1);
            }
            DrainStep::Skipped { .. } => skipped = true,
        })
        .expect("drains");
        assert!(!skipped);
    }

    #[test]
    fn min_activity_treats_none_as_quiescent() {
        assert_eq!(min_activity(None, None), None);
        assert_eq!(min_activity(Some(3), None), Some(3));
        assert_eq!(min_activity(None, Some(4)), Some(4));
        assert_eq!(min_activity(Some(3), Some(4)), Some(3));
    }

    #[test]
    fn odd_even_skip_advances_parity() {
        let mut a = OddEvenArbiter::new();
        assert!(a.has_priority(0));
        ClockedComponent::skip(&mut a, 3);
        assert!(a.has_priority(1), "odd parity after an odd skip");
        ClockedComponent::skip(&mut a, 2);
        assert!(a.has_priority(1), "even skip preserves parity");
    }
}
