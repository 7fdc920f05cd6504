//! The reference kernel: a fixed amount of event-loop work, timed just
//! before each run, that the driver divides the run's timings by.
//!
//! On a shared host the same run can take twice as long in one minute as
//! in another, because other tenants contend for the caches and memory
//! the simulator uses. A loop of pure arithmetic keeps its speed through
//! that; a loop that touches memory the way the simulator does slows with
//! it. So the kernel is a small discrete-event loop — a binary heap of
//! pending events and random updates to a table several MiB large — and
//! uses only `std`, so that no change to the program can change it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Pending events in the heap (about 1.6 MiB).
const PENDING: u64 = 100_000;
/// Words in the table the events update (8 MiB).
const TABLE_WORDS: usize = 1 << 20;
/// Events executed: 0.12-0.2 s on a 2.1 GHz Xeon, slower when contended.
const STEPS: u64 = 500_000;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Runs the kernel once and returns its wall seconds.
pub fn time_s() -> f64 {
    let start = Instant::now();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..PENDING)
        .map(|id| Reverse((id.wrapping_mul(7_919) % 1_000_003, id)))
        .collect();
    let mut table = vec![0u64; TABLE_WORDS];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..STEPS {
        let Some(Reverse((at, id))) = heap.pop() else {
            break;
        };
        x = lcg(x);
        let slot = (x >> 20) as usize % TABLE_WORDS;
        table[slot] = table[slot].wrapping_add(id);
        heap.push(Reverse((at + (x >> 50) + 1, id)));
    }
    std::hint::black_box((&heap, &table));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_kernel_takes_measurable_time() {
        assert!(super::time_s() > 0.0);
    }
}
