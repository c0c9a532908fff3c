//! Host-performance microbenchmarks of the per-cycle hot-path
//! primitives: `Fifo` push/pop (the ring buffer under every buffered
//! datapath), a loaded crossbar tick, a loaded `MemoryChannel` tick,
//! and the `EventWheel` selection loop under sparse vs dense wake sets.
//! The `repro hostperf` target measures whole runs; these isolate the
//! data-structure layer so a ring-buffer or wheel regression is visible
//! on its own, without a simulation around it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use higraph::sim::{
    ClockedComponent, CrossbarNetwork, DramTiming, EventWheel, Fifo, MemoryChannel, Network, Packet,
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

/// Drives an [`EventWheel`] through the scheduler's fast-forward
/// discipline for `run` simulated cycles: pop the minimum window, jump
/// to it, let due slots re-arm one period ahead, mark them dirty, and
/// select again. `strides[s] == 0` leaves slot `s` unarmed. Returns the
/// number of window selections (the checksum the benches black-box).
fn drive_wheel(strides: &[u64], run: u64) -> u64 {
    let slots = strides.len();
    let mut wheel = EventWheel::new(slots, 1024);
    let armed: Vec<usize> = (0..slots).filter(|&s| strides[s] != 0).collect();
    let mut due: Vec<u64> = strides
        .iter()
        .map(|&st| if st == 0 { 0 } else { st })
        .collect();
    for &s in &armed {
        wheel.register(s, Some(due[s]));
    }
    let mut now = 0u64;
    let mut selections = 0u64;
    while now < run {
        let window = {
            let due = &due;
            wheel.next_window(|s| {
                if strides[s] == 0 {
                    None
                } else {
                    Some(due[s].saturating_sub(now))
                }
            })
        };
        selections += 1;
        let step = window.unwrap_or(1).max(1);
        now += step;
        wheel.advance(step);
        for &s in &armed {
            if due[s] <= now {
                due[s] = now + strides[s]; // the slot "fired"; next period
            }
        }
        wheel.dirty_due();
    }
    selections
}

/// The event wheel under the two load shapes that bracket its cost
/// model: a sparse wake set (few armed slots, long windows — selection
/// cost is the bitmap jump) and a dense one (every slot armed, short
/// windows — selection cost is bucket churn and re-registration).
fn bench_event_wheel(c: &mut Criterion) {
    const RUN: u64 = 200_000;
    const SLOTS: usize = 1024;
    let mut group = c.benchmark_group("event_wheel");
    group.throughput(Throughput::Elements(RUN));
    group.bench_function("sparse_8_of_1024", |b| {
        let mut strides = vec![0u64; SLOTS];
        for (i, s) in [3usize, 131, 257, 389, 521, 647, 769, 1021]
            .iter()
            .enumerate()
        {
            strides[*s] = 61 + 53 * i as u64; // co-prime-ish periods
        }
        b.iter(|| black_box(drive_wheel(&strides, RUN)))
    });
    // Dense selections cost ~40x sparse ones, so run a tenth as many
    // simulated cycles to keep wall time comparable.
    const RUN_DENSE: u64 = RUN / 10;
    group.throughput(Throughput::Elements(RUN_DENSE));
    group.bench_function("dense_1024_of_1024", |b| {
        let strides: Vec<u64> = (0..SLOTS as u64).map(|s| 1 + (s % 15)).collect();
        b.iter(|| black_box(drive_wheel(&strides, RUN_DENSE)))
    });
    group.finish();
}

criterion_group!(
    hostperf_micro,
    bench_fifo,
    bench_crossbar_tick,
    bench_memory_channel_tick,
    bench_event_wheel
);
criterion_main!(hostperf_micro);
