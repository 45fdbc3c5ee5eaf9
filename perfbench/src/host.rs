//! Host-speed reference: scales timed windows to a nominal host.
//!
//! The benchmark shares a 2-core host with other tenants, and their load
//! moves this program's speed by up to 40% over tens of seconds (the thread
//! CPU time moves with the wall time, so it is contention for the cores,
//! not time stolen from them). A run's median absolute wall time therefore
//! spreads by 15-20% between runs of the same code. So right after every
//! timed window, each of the host's cores runs a fixed reference kernel;
//! `NOMINAL_S / reference time` is a sample of the scale that turns wall
//! seconds into seconds on a host where the kernel takes `NOMINAL_S`.
//!
//! The kernel is this package's own code, so a change to the simulator
//! moves every rescaled time by exactly the factor it moves the wall time.
//! It mixes independent integer streams and a sort, the two kinds of work
//! whose speed tracked the simulator's most closely under contention.
//!
//! `fabric_4x4` and `campaign_cold` keep both cores busy computing, and
//! rescale their end-to-end times by the run's median sample. A whole
//! `service_warm` campaign mostly waits on the transport and its wall time
//! does not follow the host's speed, so only the parts of that workload
//! that compute are rescaled: the time to the first point and the one-shot
//! leg that `service_overhead` divides by.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Threads the reference kernel runs on at once: one per core.
const THREADS: usize = 2;

/// Chunks each thread times; a sample is the median chunk, so a chunk
/// that was preempted or shared its core with a straggling thread of the
/// workload does not move it.
const CHUNKS: usize = 5;

/// Chunk time of the nominal host, in seconds (a round figure near its
/// median on the 2-vCPU Xeon host the benchmark was tuned on).
pub const NOMINAL_S: f64 = 0.002;

/// One chunk of the reference kernel: independent xorshift streams
/// updating a 32 KiB table, then a sort of pseudo-random keys (branchy,
/// data-dependent work). Both live on the stack, so the chunk takes no
/// page faults and does not touch the workload's heap.
fn chunk() -> u64 {
    let mut table = [0u64; 1 << 12];
    let mut x = [1u64, 2, 3, 4].map(|k| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k));
    for _ in 0..120_000 {
        for x in &mut x {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let i = (*x as usize) & 0xFFF;
            table[i] = table[i].wrapping_add(*x);
        }
    }
    let mut y = x[0];
    let mut keys = [0u32; 40_000];
    for k in &mut keys {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        *k = y as u32;
    }
    keys.sort_unstable();
    u64::from(keys[keys.len() / 2]).wrapping_add(table[0])
}

/// Runs the reference kernel on every core at once and returns the
/// median chunk time, in seconds.
fn reference_s() -> f64 {
    let mut times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    (0..CHUNKS)
                        .map(|_| {
                            let t0 = Instant::now();
                            black_box(chunk());
                            t0.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference kernel panicked"))
            .collect()
    });
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A sample of the factor that turns seconds measured just now into
/// nominal-host seconds.
pub fn scale() -> f64 {
    NOMINAL_S / reference_s()
}

/// A run's scale: the median of the samples taken after its timed
/// windows. Single samples are short and spread widely; their median
/// follows the host's speed over the run.
pub fn run_scale(samples: &[f64]) -> f64 {
    let scale = median(samples);
    eprintln!(
        "perfbench: host scale {scale:.4} (median of {} samples)",
        samples.len()
    );
    scale
}
