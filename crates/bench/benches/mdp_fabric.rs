//! Microbenchmarks of the propagation fabrics themselves (packets/second
//! of simulation), plus Algorithm 1 topology generation and the Verilog
//! emitter — the components a downstream user is most likely to reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use higraph::mdp::verilog::{self, VerilogOptions};
use higraph::mdp::{EdgeRange, RangeMdpNetwork, ReplayEngine};
use higraph::prelude::*;
use higraph::sim::{CrossbarNetwork, Packet};
use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
struct P(usize);
impl Packet for P {
    fn dest(&self) -> usize {
        self.0
    }
}

const CYCLES: u64 = 2_000;

fn drive<N: Network<P>>(mut net: N, channels: usize) -> u64 {
    let mut delivered = 0u64;
    let mut rng = 0x9E37u64;
    for _ in 0..CYCLES {
        for o in 0..channels {
            if net.pop(o).is_some() {
                delivered += 1;
            }
        }
        for i in 0..channels {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let _ = net.push(i, P((rng >> 33) as usize % channels));
        }
        net.tick();
    }
    delivered
}

/// [`drive`] for the range instance: each input's replay engine splits
/// random `{Off, nOff}` requests (1–48 edges) into row-aligned chunks,
/// one offered per cycle; returns the edges delivered.
fn drive_ranges(mut net: RangeMdpNetwork<u32>, channels: usize, banks: usize) -> u64 {
    let mut engines: Vec<ReplayEngine<u32>> =
        (0..channels).map(|_| ReplayEngine::new(banks)).collect();
    let mut offered: Vec<Option<EdgeRange<u32>>> = vec![None; channels];
    let mut delivered = 0u64;
    let mut rng = 0x9E37u64;
    for _ in 0..CYCLES {
        for o in 0..channels {
            if let Some(r) = net.pop(o) {
                delivered += u64::from(r.len);
            }
        }
        for (i, (engine, slot)) in engines.iter_mut().zip(&mut offered).enumerate() {
            if engine.is_idle() && slot.is_none() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let off = (rng >> 33) % (1 << 20);
                engine.load(off, off + (rng >> 20) % 48 + 1, i as u32);
            }
            if slot.is_none() {
                *slot = engine.emit();
            }
            if let Some(chunk) = *slot {
                if net.push(i, chunk).is_ok() {
                    *slot = None;
                }
            }
        }
        net.tick();
    }
    delivered
}

fn bench_fabrics(c: &mut Criterion) {
    let channels = 32;
    let mut group = c.benchmark_group("fabric_sim_throughput");
    group.throughput(Throughput::Elements(CYCLES * channels as u64));
    group.bench_function("mdp_32ch", |b| {
        b.iter(|| {
            let topo = Topology::new(channels, 2).expect("valid");
            black_box(drive(MdpNetwork::with_channel_budget(topo, 160), channels))
        })
    });
    group.bench_function("range_mdp_32ch", |b| {
        b.iter(|| {
            let topo = Topology::new(channels, 2).expect("valid");
            let net = RangeMdpNetwork::new(topo, 64, 8).expect("64 banks over 32 channels");
            black_box(drive_ranges(net, channels, 64))
        })
    });
    group.bench_function("crossbar_32ch", |b| {
        b.iter(|| {
            black_box(drive(
                CrossbarNetwork::new(channels, channels, 128),
                channels,
            ))
        })
    });
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("mdp_generator");
    for n in [32usize, 256] {
        group.bench_with_input(BenchmarkId::new("topology", n), &n, |b, &n| {
            b.iter(|| black_box(Topology::new(black_box(n), 2).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("verilog", n), &n, |b, &n| {
            let topo = Topology::new(n, 2).expect("valid");
            b.iter(|| black_box(verilog::generate(&topo, &VerilogOptions::default()).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fabrics, bench_generator);
criterion_main!(benches);
