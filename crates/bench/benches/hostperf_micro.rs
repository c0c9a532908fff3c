//! Host-performance microbenchmarks of the per-cycle hot-path
//! primitives: `Fifo` push/pop (the ring buffer under every buffered
//! datapath), a loaded crossbar tick, and a loaded `MemoryChannel` tick.
//! The `repro hostperf` target measures whole runs; these isolate the
//! data-structure layer so a ring-buffer or channel regression is
//! visible on its own, without a simulation around it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use higraph::sim::{
    ClockedComponent, CrossbarNetwork, DramTiming, Fifo, MemoryChannel, Network, Packet,
};
use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
struct P(usize);
impl Packet for P {
    fn dest(&self) -> usize {
        self.0
    }
}

/// Steady-state FIFO traffic: fill half, then push+pop around the ring
/// so every operation wraps eventually.
fn bench_fifo(c: &mut Criterion) {
    const OPS: u64 = 200_000;
    let mut group = c.benchmark_group("fifo");
    group.throughput(Throughput::Elements(OPS));
    group.bench_function("push_pop_cap8", |b| {
        b.iter(|| {
            let mut fifo: Fifo<u64> = Fifo::new(8);
            for i in 0..4u64 {
                fifo.push(i).unwrap();
            }
            let mut sum = 0u64;
            for i in 0..OPS {
                if fifo.push(i).is_ok() {
                    sum = sum.wrapping_add(fifo.pop().unwrap());
                }
            }
            black_box(sum)
        })
    });
    group.bench_function("push_pop_cap160", |b| {
        b.iter(|| {
            let mut fifo: Fifo<u64> = Fifo::new(160);
            for i in 0..80u64 {
                fifo.push(i).unwrap();
            }
            let mut sum = 0u64;
            for i in 0..OPS {
                if fifo.push(i).is_ok() {
                    sum = sum.wrapping_add(fifo.pop().unwrap());
                }
            }
            black_box(sum)
        })
    });
    group.bench_function("peek_as_slices_cap160", |b| {
        let mut fifo: Fifo<u64> = Fifo::new(160);
        for i in 0..100u64 {
            fifo.push(i).unwrap();
        }
        // wrap the ring so both slices are non-empty
        for _ in 0..60 {
            let v = fifo.pop().unwrap();
            fifo.push(v).unwrap();
        }
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..(OPS / 100) {
                let (a, z) = fifo.as_slices();
                sum = sum.wrapping_add(a.iter().chain(z).sum::<u64>());
            }
            black_box(sum)
        })
    });
    group.finish();
}

/// A 32×32 crossbar ticked under saturating load: the arbitration loop
/// plus the reused grant scratch.
fn bench_crossbar_tick(c: &mut Criterion) {
    const CYCLES: u64 = 20_000;
    let channels = 32;
    let mut group = c.benchmark_group("crossbar_tick");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("loaded_32x32", |b| {
        b.iter(|| {
            let mut xbar: CrossbarNetwork<P> = CrossbarNetwork::new(channels, channels, 8);
            let mut rng = 0x2545F491u64;
            let mut delivered = 0u64;
            for _ in 0..CYCLES {
                for o in 0..channels {
                    if xbar.pop(o).is_some() {
                        delivered += 1;
                    }
                }
                for i in 0..channels {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let _ = xbar.push(i, P((rng >> 33) as usize % channels));
                }
                xbar.tick();
            }
            black_box(delivered)
        })
    });
    group.finish();
}

/// A 16-bank memory channel ticked under a saturating request stream:
/// the issue scan plus the reused per-bank scratch.
fn bench_memory_channel_tick(c: &mut Criterion) {
    const CYCLES: u64 = 20_000;
    let mut group = c.benchmark_group("memory_channel_tick");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("loaded_16banks", |b| {
        b.iter(|| {
            let mut channel = MemoryChannel::new(16, 16, DramTiming::default());
            let mut line = 0u64;
            let mut completed = 0u64;
            for _ in 0..CYCLES {
                while channel.can_accept() {
                    // walk rows slowly so hits, misses, and conflicts mix
                    let bank = (line % 16) as usize;
                    let row = line / 64;
                    if !channel.try_request(line, bank, row) {
                        break;
                    }
                    line += 1;
                }
                channel.tick();
                while channel.pop_ready().is_some() {
                    completed += 1;
                }
            }
            black_box(completed)
        })
    });
    group.finish();
}

criterion_group!(
    hostperf_micro,
    bench_fifo,
    bench_crossbar_tick,
    bench_memory_channel_tick
);
criterion_main!(hostperf_micro);
