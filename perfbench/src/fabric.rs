//! `fabric_4x4`: the bare event kernel on the 4x4 reference mesh.
//!
//! Uniform-random traffic at 5% injection, no observers, driven by
//! `Injector::run` and `Noc::run_until_idle`. Kernel-only changes show
//! here; the monitor, checkpoints and the service are bypassed, so for
//! changes to those the prediction on this workload is "no change".
//!
//! The load is closed-loop in rounds: each round runs one repetition on
//! each of two threads and ends when both return. Keeping both cores busy
//! (as the campaign workloads do) made the figures far steadier on a
//! shared 2-core host than one thread with the other core idle.

use std::time::Instant;

use xpipes::noc::Noc;
use xpipes_bench::cycle_engine::{reference_spec, BENCH_RATE, BENCH_SEED};
use xpipes_sim::KernelPhase;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

use crate::report::{Outcome, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Window};

/// Injection cycles per repetition; the drain budget is half of it.
const CYCLES_PER_REP: u64 = 20_000;

/// Repetitions run in parallel per round (the host has two cores).
const LANES: usize = 2;

/// Set-ups timed before each round; `setup_s` is the median over the run,
/// so it samples the same host conditions as the timed rounds.
const SETUPS_PER_ROUND: usize = 4;

/// The `BENCH_cycle_engine.json` work fingerprint of `uniform_random_4x4`
/// (seed 42, 200,000 injection cycles): cycles, flits routed, packets
/// delivered.
const PINNED: (u64, u64, u64) = (200_037, 1_684_524, 60_152);

/// The deterministic outcome of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    cycles: u64,
    flits_routed: u64,
    packets_delivered: u64,
}

/// One repetition: its work fingerprint and measurements.
struct Rep {
    work: Work,
    wall_s: f64,
    assembly_ms: f64,
    event_steps: u64,
    fallback_steps: u64,
    shares: Option<[f64; 5]>,
    problems: Vec<String>,
}

fn assemble(spec: &NocSpec, seed: u64) -> Result<(Noc, Injector), String> {
    let noc = Noc::with_seed(spec, seed).map_err(|e| e.to_string())?;
    let cfg = InjectorConfig::new(BENCH_RATE, Pattern::Uniform);
    let inj = Injector::new(spec, cfg, seed ^ 0x5EED).map_err(|e| e.to_string())?;
    Ok((noc, inj))
}

/// Assembles a fresh network and runs `cycles` of injection plus drain.
/// `profile` arms the kernel phase profiler.
fn rep(
    tracer: &mut Tracer,
    group: u64,
    spec: &NocSpec,
    seed: u64,
    cycles: u64,
    profile: bool,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let (mut noc, mut inj) = tracer.span("core.Noc::with_seed", group, |_| assemble(spec, seed))?;
    let assembly_ms = t0.elapsed().as_secs_f64() * 1e3;
    if profile {
        noc.enable_profiling();
    }
    let t0 = Instant::now();
    tracer.span("traffic.Injector::run", group, |_| {
        inj.run(&mut noc, cycles)
    });
    let drained = tracer.span("core.Noc::run_until_idle", group, |_| {
        noc.run_until_idle(cycles / 2)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    inj.drain_responses(&mut noc);
    let stats = noc.stats();
    let mut problems = Vec::new();
    if !drained {
        problems.push(format!(
            "network did not drain within {} cycles",
            cycles / 2
        ));
    }
    if stats.packets_delivered != stats.packets_sent {
        problems.push(format!(
            "{} of {} packets delivered after drain",
            stats.packets_delivered, stats.packets_sent
        ));
    }
    let shares = noc.kernel_profile().map(|p| {
        let total = p.total_nanos().max(1) as f64;
        KernelPhase::ALL.map(|phase| p.nanos(phase) as f64 / total)
    });
    let health = noc.kernel_health();
    Ok(Rep {
        work: Work {
            cycles: stats.cycles,
            flits_routed: stats.flits_routed,
            packets_delivered: stats.packets_delivered,
        },
        wall_s,
        assembly_ms,
        event_steps: health.event_steps(),
        fallback_steps: health.fallback_steps(),
        shares,
        problems,
    })
}

/// One round: a repetition on each lane, in one timed window.
fn round(ctx: &Ctx, tracer: &mut Tracer, spec: &NocSpec) -> Result<(Vec<Rep>, Window), String> {
    let group = tracer.group();
    let (reps, window) = ctx.window(|| {
        tracer.span("bench.fabric_round", group, |tracer| {
            let lanes: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..LANES)
                    .map(|_| {
                        let mut lane = tracer.fork();
                        s.spawn(move || {
                            let r = rep(&mut lane, group, spec, ctx.seed, CYCLES_PER_REP, false);
                            (r, lane)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fabric lane panicked"))
                    .collect()
            });
            let mut reps = Vec::with_capacity(LANES);
            for (r, lane) in lanes {
                tracer.join(lane);
                reps.push(r);
            }
            reps.into_iter().collect::<Result<Vec<_>, _>>()
        })
    });
    Ok((reps?, window))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(ctx.trace);

    let mut setups = Vec::new();
    let spec = reference_spec();

    // The pinned fingerprint ties this workload to the cycle-engine
    // baseline; it is checked untimed, outside the measured loop.
    let pinned = rep(
        &mut Tracer::new(false),
        0,
        &spec,
        BENCH_SEED,
        200_000,
        false,
    )?;
    let mut problems = pinned.problems;
    let w = pinned.work;
    let got = (w.cycles, w.flits_routed, w.packets_delivered);
    if got != PINNED {
        problems.push(format!(
            "seed 42 fingerprint (cycles, flits, delivered) = {got:?}, pinned {PINNED:?}"
        ));
    }
    tally.record("pinned seed-42 fingerprint", &problems);

    // Warm-up round: its work is the reference every timed repetition must
    // reproduce, its time is discarded.
    let (warmup, _) = round(ctx, &mut tracer, &spec)?;
    let first = warmup[0].work;
    for r in &warmup {
        tally.record("warm-up repetition", &check(r, first));
    }

    let mut rounds: Vec<(Vec<Rep>, Window)> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut scales = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < ctx.budget || rounds.is_empty() {
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            let spec = reference_spec();
            std::hint::black_box(assemble(&spec, ctx.seed)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        // The traced run alternates traced and untraced rounds; the
        // difference is the tracing overhead.
        let traced = i.is_multiple_of(2);
        tracer.set_recording(traced);
        let (reps, window) = round(ctx, &mut tracer, &spec)?;
        scales.push(window.scale);
        for r in &reps {
            tally.record("repetition", &check(r, first));
        }
        if ctx.trace && !traced {
            untraced_walls.push(window.wall_s);
        } else {
            rounds.push((reps, window));
        }
        i += 1;
    }
    tracer.set_recording(true);

    let round_walls: Vec<f64> = rounds.iter().map(|r| r.1.wall_s).collect();
    let reps: Vec<&Rep> = rounds.iter().flat_map(|r| &r.0).collect();
    let rep_walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cycles = first.cycles as f64;
    let scale = crate::host::run_scale(&scales);
    let mut out = Outcome::new(tally, tracer);
    if !ctx.trace {
        let lanes = LANES as f64;
        out.set("setup_s", median(&setups) * scale);
        out.set(
            "sim_cycles_per_s",
            median(
                &round_walls
                    .iter()
                    .map(|w| lanes * cycles / w)
                    .collect::<Vec<_>>(),
            ) / scale,
        );
        out.set(
            "points_per_s",
            median(&round_walls.iter().map(|w| lanes / w).collect::<Vec<_>>()) / scale,
        );
        out.set("first_point_s", median(&rep_walls) * scale);
        // No service in this workload's path.
        out.set("service_overhead", 1.0);
        return Ok(out);
    }

    let profiled = rep(&mut out.tracer, 0, &spec, ctx.seed, CYCLES_PER_REP, true)?;
    out.tally
        .record("profiled repetition", &check(&profiled, first));
    out.set_profile_shares(&profiled.shares.expect("profiling was armed"));
    let sample = reps[0];
    let steps = (sample.event_steps + sample.fallback_steps).max(1) as f64;
    out.set("core.event_step_share", sample.event_steps as f64 / steps);
    out.set("core.ns_per_cycle", median(&rep_walls) * 1e9 / cycles);
    out.set(
        "core.ns_per_flit",
        median(&rep_walls) * 1e9 / first.flits_routed.max(1) as f64,
    );
    out.set(
        "core.assembly_ms",
        median(&reps.iter().map(|r| r.assembly_ms).collect::<Vec<_>>()),
    );
    out.set(
        "bench.trace_overhead",
        median(&round_walls) / median(&untraced_walls) - 1.0,
    );
    out.set("bench.host_scale", scale);
    Ok(out)
}

/// Checks one repetition: every packet delivered after drain, and the same
/// work as the first repetition.
fn check(r: &Rep, first: Work) -> Vec<String> {
    let mut problems = r.problems.clone();
    if r.work != first {
        problems.push(format!(
            "work fingerprint {:?} differs from the first repetition's {first:?}",
            r.work
        ));
    }
    problems
}
