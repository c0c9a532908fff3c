//! Deterministic intra-run chip-level parallelism for the sharded
//! executor.
//!
//! One scatter phase of `crate::sharded::ShardedEngine` is P + 1
//! independent drains: each chip's [`crate::engine::ScatterPipeline`]
//! under its own `Scheduler`, and the inter-chip link with its staged
//! counts under another. Nothing couples them inside a phase — a chip
//! scatters its own slice graph into its own tProperty interval and its
//! own `Metrics`, cross-chip traffic is count-staged at phase start and
//! discarded on arrival — so *which* host thread runs a drain, and in
//! what order, is invisible to the simulated state. [`drain_all`] spreads
//! the drains over a [`CoreLease`]'s team and the calling thread through
//! one shared cursor; the engine combines the results after the join, in
//! fixed component order, so cycles and every metric are
//! **bit-identical** for any worker count (`tests/thread_determinism.rs`
//! asserts this; `docs/performance.md` has the full argument).

use crate::sharded::ShardPacket;
use higraph_pool::{CoreLease, TeamTask};
use higraph_sim::{InterChipLink, Network};
use std::sync::Mutex;

/// One cycle's inter-chip exchange: chips sink whatever updates arrived
/// this cycle, then staged updates (synthesized from the counts) are
/// offered until the link back-pressures.
pub(crate) fn exchange_link(link: &mut InterChipLink<ShardPacket>, staged: &mut [Vec<u64>]) {
    for ci in 0..staged.len() {
        while link.pop(ci).is_some() {}
    }
    for (src_chip, row) in staged.iter_mut().enumerate() {
        // a full egress queue blocks every destination of this source
        // chip alike — move to the next chip
        'dsts: for (dst_chip, count) in row.iter_mut().enumerate() {
            while *count > 0 {
                let pkt = ShardPacket { src_chip, dst_chip };
                match link.push(src_chip, pkt) {
                    Ok(()) => *count -= 1,
                    Err(_) => break 'dsts,
                }
            }
        }
    }
}

/// Runs `lead` on the calling thread, then `drain` once on every lane.
///
/// The lease's team and the calling thread (once `lead` returns) pull
/// lanes from one shared cursor until it runs dry; without a lease the
/// caller drains every lane back to back. Results come back in lane
/// order, whoever ran them. A panic in any drain is re-raised here after
/// the whole team has finished.
pub(crate) fn drain_all<L, R, T>(
    lease: Option<&CoreLease<'_>>,
    lanes: Vec<L>,
    lead: impl FnOnce() -> T,
    drain: impl Fn(L) -> R + Sync,
) -> (T, Vec<R>)
where
    L: Send,
    R: Send,
{
    let cursor = Mutex::new(lanes.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        // The lock is never held across a drain, so it cannot be
        // poisoned; a poisoned cursor would only end this participant.
        while let Some((index, lane)) = cursor.lock().ok().and_then(|mut lanes| lanes.next()) {
            done.push((index, drain(lane)));
        }
        done
    };
    let (led, parts) = match lease {
        Some(lease) => {
            let tasks: Vec<TeamTask<'_, _>> = (0..lease.team_size())
                .map(|_| Box::new(&work) as TeamTask<'_, _>)
                .collect();
            let ((led, own), mut parts) = lease.run_team(tasks, || (lead(), work()));
            parts.push(own);
            (led, parts)
        }
        None => (lead(), vec![work()]),
    };
    let mut done: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(index, _)| index);
    (led, done.into_iter().map(|(_, result)| result).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use higraph_pool::CorePool;

    #[test]
    fn every_lane_drains_once_in_lane_order() {
        let pool = CorePool::new(2);
        for team in [None, Some(1usize), Some(3)] {
            let lease = team.map(|n| pool.lease_exact(n));
            let (led, out) = drain_all(lease.as_ref(), (0..9u64).collect(), || 7, |x| x * x);
            assert_eq!(led, 7);
            assert_eq!(
                out,
                (0..9u64).map(|x| x * x).collect::<Vec<_>>(),
                "{team:?}"
            );
        }
    }
}
