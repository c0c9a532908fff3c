//! Property-based tests of the MDP-network invariants (proptest).
//!
//! The invariants under randomized traffic and shapes:
//!
//! * Algorithm 1 routes every (input, destination) pair to its destination
//!   in exactly `log_radix(n)` hops;
//! * the cycle-level network neither loses nor duplicates packets and
//!   preserves per-flow FIFO order;
//! * the range-splitting variant covers every requested edge exactly once,
//!   and with one bank per channel it is the packet network, pop for pop;
//! * the replay engine's chunks tile `{Off, nOff}` without gaps/overlap.

use higraph::mdp::{EdgeRange, MdpNetwork, RangeMdpNetwork, ReplayEngine, Topology};
use higraph::sim::{ClockedComponent, Network, Packet};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct P {
    dest: usize,
    tag: u64,
}

impl Packet for P {
    fn dest(&self) -> usize {
        self.dest
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topology_routes_all_pairs(log_n in 1usize..7, radix_log in 1usize..3) {
        prop_assume!(log_n % radix_log == 0);
        let n = 1 << log_n;
        let radix = 1 << radix_log;
        let topo = Topology::new(n, radix).expect("valid shape");
        prop_assert_eq!(topo.num_stages(), log_n / radix_log);
        for input in 0..n {
            for dest in 0..n {
                let path = topo.route(input, dest);
                prop_assert_eq!(*path.last().expect("non-empty"), dest);
            }
        }
    }

    #[test]
    fn stage_modules_partition_channels(log_n in 1usize..8) {
        let n = 1 << log_n;
        let topo = Topology::new(n, 2).expect("valid");
        for stage in topo.stages() {
            let mut seen = vec![false; n];
            for module in &stage.modules {
                prop_assert_eq!(module.channels.len(), 2);
                for &c in &module.channels {
                    prop_assert!(!seen[c]);
                    seen[c] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn network_no_loss_no_duplication(
        log_n in 1usize..6,
        cap in 1usize..6,
        dests in proptest::collection::vec((0usize..1 << 5, 0usize..1 << 5), 1..200),
        seed in 0u64..1000,
    ) {
        let n = 1 << log_n;
        let topo = Topology::new(n, 2).expect("valid");
        let mut net: MdpNetwork<P> = MdpNetwork::new(topo, cap);
        let mut to_send: Vec<P> = dests
            .iter()
            .enumerate()
            .map(|(i, &(input, dest))| P { dest: dest % n, tag: (i as u64) << 8 | (input % n) as u64 })
            .collect();
        let mut received: Vec<P> = Vec::new();
        let mut cursor = 0usize;
        let mut rng = seed;
        for _ in 0..10_000 {
            for o in 0..n {
                if let Some(p) = net.pop(o) {
                    prop_assert_eq!(p.dest, o);
                    received.push(p);
                }
            }
            // push the next pending packet at a pseudo-random input
            if cursor < to_send.len() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let input = (to_send[cursor].tag & 0xff) as usize;
                if net.push(input, to_send[cursor]).is_ok() {
                    cursor += 1;
                }
            }
            net.tick();
            if cursor == to_send.len() && net.is_empty() {
                break;
            }
        }
        prop_assert_eq!(received.len(), to_send.len(), "lost or stuck packets");
        received.sort_by_key(|p| p.tag);
        to_send.sort_by_key(|p| p.tag);
        prop_assert_eq!(received, to_send);
    }

    #[test]
    fn network_preserves_per_flow_order(
        log_n in 1usize..6,
        count in 1usize..40,
        input in 0usize..32,
        dest in 0usize..32,
    ) {
        let n = 1 << log_n;
        let (input, dest) = (input % n, dest % n);
        let topo = Topology::new(n, 2).expect("valid");
        let mut net: MdpNetwork<P> = MdpNetwork::new(topo, 4);
        let mut sent = 0u64;
        let mut got = Vec::new();
        for _ in 0..10_000 {
            if let Some(p) = net.pop(dest) {
                got.push(p.tag);
            }
            if (sent as usize) < count
                && net.push(input, P { dest, tag: sent }).is_ok() {
                    sent += 1;
                }
            net.tick();
            if got.len() == count {
                break;
            }
        }
        prop_assert_eq!(got, (0..count as u64).collect::<Vec<_>>());
    }

    #[test]
    fn replay_chunks_tile_the_request(
        off in 0u64..10_000,
        len in 0u64..200,
        banks in 1usize..64,
    ) {
        let mut re = ReplayEngine::new(banks);
        prop_assert!(re.load(off, off + len, ()));
        let mut covered = Vec::new();
        while let Some(chunk) = re.emit() {
            // chunks never wrap the interleaving
            let b0 = chunk.off % banks as u64;
            prop_assert!(b0 + u64::from(chunk.len) <= banks as u64);
            covered.extend(chunk.off..chunk.end());
        }
        prop_assert_eq!(covered, (off..off + len).collect::<Vec<_>>());
        prop_assert!(re.is_idle());
    }

    #[test]
    fn range_network_covers_exactly(
        log_n in 1usize..4,
        width_log in 0usize..3,
        requests in proptest::collection::vec((0u64..50, 0usize..32), 1..40),
    ) {
        let n = 1 << log_n;
        let banks = n << width_log;
        let topo = Topology::new(n, 2).expect("valid");
        let mut net: RangeMdpNetwork<u32> = RangeMdpNetwork::new(topo, banks, 4).expect("valid");
        // convert requests into non-wrapping ranges
        let ranges: Vec<EdgeRange<u32>> = requests
            .iter()
            .map(|&(row, start)| {
                let start = start % banks;
                let len = 1 + (row as usize + start) % (banks - start).max(1);
                EdgeRange { off: row * banks as u64 + start as u64, len: len as u32, payload: 7 }
            })
            .collect();
        let expected: u64 = ranges.iter().map(|r| u64::from(r.len)).sum();
        let mut covered: Vec<u64> = Vec::new();
        let mut cursor = 0usize;
        for step in 0..20_000u64 {
            for o in 0..n {
                if let Some(r) = net.pop(o) {
                    prop_assert_eq!(r.payload, 7);
                    covered.extend(r.off..r.end());
                }
            }
            if cursor < ranges.len() {
                let input = (step as usize) % n;
                if net.push(input, ranges[cursor]).is_ok() {
                    cursor += 1;
                }
            }
            net.tick();
            if cursor == ranges.len() && net.is_empty() {
                break;
            }
        }
        prop_assert_eq!(covered.len() as u64, expected);
        let mut sorted_expected: Vec<u64> = ranges.iter().flat_map(|r| r.off..r.end()).collect();
        sorted_expected.sort_unstable();
        covered.sort_unstable();
        prop_assert_eq!(covered, sorted_expected);
    }

    #[test]
    fn packet_network_is_the_one_piece_range_network(
        log_n in 1usize..7,
        radix in prop_oneof![Just(2usize), Just(4), Just(8), Just(64)],
        cap in 1usize..4,
        load in 1u64..5,
        seed in 0u64..1000,
    ) {
        // One bank per channel: a one-edge range at bank `dest` is one
        // piece bound for `dest` at every stage, exactly like a packet.
        let n = 1 << log_n;
        let topo = Topology::new_mixed(n, radix).expect("power-of-two channels");
        let mut packets: MdpNetwork<P> = MdpNetwork::new(topo.clone(), cap);
        let mut ranges: RangeMdpNetwork<u64> =
            RangeMdpNetwork::new(topo, n, cap).expect("one bank per channel");
        let mut rng = seed;
        let mut tag = 0u64;
        for _ in 0..300 {
            for o in 0..n {
                let got = ranges.pop(o).map(|r| (r.off % n as u64, r.len, r.payload));
                prop_assert_eq!(packets.pop(o).map(|p| (o as u64, 1, p.tag)), got);
            }
            for input in 0..n {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (rng >> 60) >= load * 4 {
                    continue;
                }
                let dest = (rng >> 33) as usize % n;
                let row = (rng >> 45) % 1000;
                let range = EdgeRange { off: row * n as u64 + dest as u64, len: 1, payload: tag };
                prop_assert_eq!(
                    packets.push(input, P { dest, tag }).is_ok(),
                    ranges.push(input, range).is_ok()
                );
                tag += 1;
            }
            packets.tick();
            ranges.tick();
            prop_assert_eq!(packets.stats(), ranges.stats());
            prop_assert_eq!(packets.in_flight(), ranges.in_flight());
        }
    }
}

#[test]
fn fifo_capacity_invariant_under_stress() {
    // deterministic stress: the network never exceeds its buffer budget
    let topo = Topology::new(16, 2).expect("valid");
    let mut net = MdpNetwork::new(topo, 2);
    let budget = net.total_buffer_entries();
    let mut rng = 1u64;
    for cycle in 0..3000u64 {
        for o in 0..16 {
            if cycle % 3 == 0 {
                let _ = net.pop(o);
            }
        }
        for i in 0..16 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let _ = net.push(
                i,
                P {
                    dest: (rng >> 33) as usize % 16,
                    tag: cycle,
                },
            );
        }
        net.tick();
        assert!(net.in_flight() <= budget);
    }
}
