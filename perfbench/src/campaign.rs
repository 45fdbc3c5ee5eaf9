//! `campaign_cold`: the product's unit of work.
//!
//! The full default grid (5 fault models x 3 error rates + the fault-free
//! baseline = 16 points) on `campaign_spec()` with the full observer set,
//! run cold through `run_campaign_streaming` with 2 pool workers. The
//! protocol monitor's fallback to the full-scan kernel and the observers
//! dominate here; checkpoints and the transport are bypassed.
//!
//! The per-layer probes of a grid point (observer A/B, kernel profile,
//! serial `run_grid_point` timings) live here too; `service_warm` runs the
//! same probes on warm-started points.

use std::time::Instant;

use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, NocStats, TelemetryConfig};
use xpipes_sim::{FaultKind, FaultPlan, KernelPhase, Snapshot, SnapshotReader};
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::faultcampaign::{
    assemble_report, campaign_spec, grid_size, run_campaign_streaming, run_grid_point,
    CampaignConfig, CompletedPoint, WarmStart,
};
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

use crate::report::{Outcome, Tally};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Window};

/// Injection cycles per grid point (the `faultcampaign` and `xpipesd`
/// default).
pub const CYCLES: u64 = 20_000;

/// Pool workers: the host has two cores.
pub const WORKERS: usize = 2;

/// Set-ups timed before each campaign; `setup_s` is the median over the
/// run, so it samples the same host conditions as the timed campaigns.
const SETUPS_PER_CAMPAIGN: usize = 8;

/// Serial passes over the grid for `traffic.point_ms`: 7 x 16 = 112
/// samples, so the 90th percentile has more than ten samples beyond it.
const POINT_PASSES: usize = 7;

/// Interleaved rounds of the observer A/B.
const AB_ROUNDS: usize = 8;

pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed, CYCLES)
}

/// Which observers a replica grid point arms.
#[derive(Debug, Clone, Copy)]
pub struct Observers {
    pub monitor: bool,
    pub telemetry: bool,
    pub attribution: bool,
    pub profile: bool,
}

/// The campaign's observer set.
pub const FULL: Observers = Observers {
    monitor: true,
    telemetry: true,
    attribution: true,
    profile: false,
};

/// A replica of grid point 0 run from this package, so observers can be
/// toggled one at a time.
pub struct Replica {
    pub wall_s: f64,
    pub assembly_ms: f64,
    pub stats: NocStats,
    pub event_steps: u64,
    pub fallback_steps: u64,
    pub shares: Option<[f64; 5]>,
}

/// Assembles the network and injector of a grid point with the given
/// observers, as the campaign runner does for each point.
pub fn assemble_point(
    spec: &NocSpec,
    cfg: &CampaignConfig,
    seed: u64,
    obs: Observers,
) -> Result<(Noc, Injector), String> {
    let mut noc = Noc::with_faults(spec, seed, &FaultPlan::none()).map_err(|e| e.to_string())?;
    if obs.monitor {
        noc.enable_monitor(MonitorConfig {
            liveness_bound: cfg.liveness_bound,
            max_violations: 64,
        });
    }
    if obs.telemetry {
        noc.enable_telemetry(TelemetryConfig {
            flight_recorder_depth: cfg.flight_recorder_depth,
            ..TelemetryConfig::default()
        });
    }
    if obs.attribution {
        noc.enable_attribution();
    }
    if obs.profile {
        noc.enable_profiling();
    }
    let inj_cfg = InjectorConfig::new(cfg.injection_rate, Pattern::Uniform);
    let inj = Injector::new(spec, inj_cfg, seed ^ 0x5EED).map_err(|e| e.to_string())?;
    Ok((noc, inj))
}

/// Runs grid point 0 (fault-free; its run seed is the master seed) with
/// the given observers, optionally branched off a warm checkpoint.
pub fn replica(
    tracer: &mut Tracer,
    group: u64,
    cfg: &CampaignConfig,
    obs: Observers,
    warm: Option<&WarmStart>,
) -> Result<Replica, String> {
    let spec = campaign_spec();
    let t0 = Instant::now();
    let (mut noc, mut inj) = tracer.span("core.Noc::with_faults", group, |_| {
        assemble_point(&spec, cfg, cfg.seed, obs)
    })?;
    let assembly_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(warm) = warm {
        tracer.span("core.Noc::restore", group, |_| {
            restore(&mut noc, &mut inj, warm)
        })?;
    }
    let t0 = Instant::now();
    tracer.span("traffic.Injector::step", group, |_| {
        for cycle in 0..cfg.cycles {
            inj.step(&mut noc);
            if cycle % 512 == 511 {
                inj.drain_responses(&mut noc);
            }
        }
    });
    tracer.span("core.Noc::run_until_idle", group, |_| {
        noc.run_until_idle(cfg.drain_cycles)
    });
    inj.drain_responses(&mut noc);
    noc.finish_monitor();
    let wall_s = t0.elapsed().as_secs_f64();
    let shares = noc.kernel_profile().map(|p| {
        let total = p.total_nanos().max(1) as f64;
        KernelPhase::ALL.map(|phase| p.nanos(phase) as f64 / total)
    });
    let health = noc.kernel_health();
    Ok(Replica {
        wall_s,
        assembly_ms,
        stats: noc.stats(),
        event_steps: health.event_steps(),
        fallback_steps: health.fallback_steps(),
        shares,
    })
}

/// Loads a warm checkpoint into a freshly assembled point, as a
/// warm-started grid point does.
pub fn restore(noc: &mut Noc, inj: &mut Injector, warm: &WarmStart) -> Result<(), String> {
    noc.restore(warm.noc_bytes()).map_err(|e| e.to_string())?;
    let mut r = SnapshotReader::open(warm.injector_bytes()).map_err(|e| e.to_string())?;
    inj.load_state(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())
}

/// Times set-ups: build the campaign spec and config, assemble one fully
/// instrumented point.
fn time_setups(seed: u64, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUPS_PER_CAMPAIGN {
        let t0 = Instant::now();
        let spec = campaign_spec();
        let cfg = config(seed);
        std::hint::black_box(assemble_point(&spec, &cfg, seed, FULL)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Per-layer probes of one grid point, shared by both campaign workloads:
/// the observer A/B (full set against the set without one observer,
/// interleaved), the kernel dispatch mix and phase profile, and serial
/// `run_grid_point` timings with `assemble_report`.
pub fn point_probes(
    out: &mut Outcome,
    cfg: &CampaignConfig,
    warm: Option<&WarmStart>,
) -> Result<(), String> {
    let faults = FaultKind::ALL;
    let spec = campaign_spec();
    let group = out.tracer.group();

    // The replica must be the point the campaign runs.
    let reference = out.tracer.span("traffic.run_grid_point", group, |_| {
        run_grid_point(&spec, &faults, cfg, 0, warm)
    });
    let reference = reference.map_err(|e| e.to_string())?;
    let full = replica(&mut out.tracer, group, cfg, FULL, warm)?;
    let s = &reference.summary;
    let mut problems = Vec::new();
    if (
        full.stats.cycles,
        full.stats.packets_delivered,
        full.stats.retransmissions,
    ) != (s.cycles, s.packets_delivered, s.retransmissions)
    {
        problems.push(format!(
            "replica of grid point 0 ran {} cycles / {} delivered, the campaign {} / {}",
            full.stats.cycles, full.stats.packets_delivered, s.cycles, s.packets_delivered
        ));
    }
    out.tally.record("grid point 0 replica", &problems);

    let variants = [
        FULL,
        Observers {
            monitor: false,
            ..FULL
        },
        Observers {
            telemetry: false,
            ..FULL
        },
        Observers {
            attribution: false,
            ..FULL
        },
    ];
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut assembly = Vec::new();
    let mut ns_per_cycle = Vec::new();
    let mut ns_per_flit = Vec::new();
    for round in 0..AB_ROUNDS {
        for k in 0..variants.len() {
            // Rotate the order so no variant always runs first.
            let v = (k + round) % variants.len();
            let r = replica(&mut out.tracer, group, cfg, variants[v], warm)?;
            if v == 0 {
                assembly.push(r.assembly_ms);
                ns_per_cycle.push(r.wall_s * 1e9 / r.stats.cycles.max(1) as f64);
                ns_per_flit.push(r.wall_s * 1e9 / r.stats.flits_routed.max(1) as f64);
            }
            walls[v].push(r.wall_s);
        }
    }
    let full_wall = median(&walls[0]);
    out.set("core.monitor_overhead", full_wall / median(&walls[1]));
    out.set("sim.telemetry_overhead", full_wall / median(&walls[2]));
    out.set("sim.attribution_overhead", full_wall / median(&walls[3]));
    out.set("core.assembly_ms", median(&assembly));
    out.set("core.ns_per_cycle", median(&ns_per_cycle));
    out.set("core.ns_per_flit", median(&ns_per_flit));
    let steps = (full.event_steps + full.fallback_steps).max(1) as f64;
    out.set("core.event_step_share", full.event_steps as f64 / steps);

    let profiled = replica(
        &mut out.tracer,
        group,
        cfg,
        Observers {
            profile: true,
            ..FULL
        },
        warm,
    )?;
    out.set_profile_shares(&profiled.shares.expect("profiling was armed"));

    let grid = grid_size(&faults, cfg);
    let mut point_ms = Vec::new();
    let mut assemble_ms = Vec::new();
    let mut reference_bytes: Option<String> = None;
    for _ in 0..POINT_PASSES {
        let group = out.tracer.group();
        let mut points: Vec<CompletedPoint> = Vec::with_capacity(grid as usize);
        for index in 0..grid {
            let t0 = Instant::now();
            let point = out.tracer.span("traffic.run_grid_point", group, |_| {
                run_grid_point(&spec, &faults, cfg, index, warm)
            });
            point_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            points.push(point.map_err(|e| e.to_string())?);
        }
        let t0 = Instant::now();
        let bytes = out.tracer.span("traffic.assemble_report", group, |_| {
            assemble_report(&spec, &faults, cfg, points).to_json()
        });
        assemble_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut problems = Vec::new();
        match &reference_bytes {
            None => reference_bytes = Some(bytes),
            Some(r) if *r != bytes => {
                problems.push("serial report bytes differ between passes".to_string())
            }
            Some(_) => {}
        }
        out.tally.record("serial grid pass", &problems);
    }
    out.set("traffic.point_ms.p50", median(&point_ms));
    out.set("traffic.point_ms.p90", percentile(&point_ms, 0.9));
    out.set("traffic.point_ms.count", point_ms.len() as f64);
    out.set("traffic.assemble_report_ms", median(&assemble_ms));
    Ok(())
}

/// One timed campaign through `run_campaign_streaming`.
struct Run {
    bytes: String,
    pass: bool,
    timing: Timing,
}

/// What a timed campaign measured; the report itself is checked and
/// dropped, so the loop's memory does not grow with its length.
struct Timing {
    window: Window,
    /// Wall seconds from start to the first streamed point.
    first_point_s: f64,
    sim_cycles: u64,
    busy_fraction: f64,
    imbalance: f64,
}

fn timed_campaign(
    ctx: &Ctx,
    tracer: &mut Tracer,
    cfg: &CampaignConfig,
    workers: usize,
) -> Result<Run, String> {
    let spec = campaign_spec();
    let faults = FaultKind::ALL;
    let group = tracer.group();
    let t0 = Instant::now();
    let mut first: Option<f64> = None;
    let (result, window) = ctx.window(|| {
        tracer.span("traffic.run_campaign_streaming", group, |tracer| {
            let ran = run_campaign_streaming(&spec, &faults, cfg, None, workers, &mut |_| {
                first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            });
            ran.map(|(report, pool)| {
                let bytes = tracer.span("sim.CampaignReport::to_json", group, |_| report.to_json());
                (report, pool, bytes)
            })
        })
    });
    let (report, pool, bytes) = result.map_err(|e| e.to_string())?;
    let sim_cycles =
        report.baseline.cycles + report.runs.iter().map(|r| r.summary.cycles).sum::<u64>();
    Ok(Run {
        bytes,
        pass: report.pass,
        timing: Timing {
            window,
            first_point_s: first.unwrap_or(window.wall_s),
            sim_cycles,
            busy_fraction: pool.busy_fraction(),
            imbalance: pool.imbalance(),
        },
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    let cfg = config(ctx.seed);
    let grid = grid_size(&FaultKind::ALL, &cfg) as f64;

    // Untimed single-worker reference every timed campaign must match.
    let untimed = Ctx { pad: 0.0, ..*ctx };
    let reference = timed_campaign(&untimed, &mut Tracer::new(false), &cfg, 1)?;
    let problems = if reference.pass {
        Vec::new()
    } else {
        vec!["single-worker reference campaign does not pass".to_string()]
    };
    tally.record("single-worker reference campaign", &problems);

    let check = |run: &Run| {
        let mut problems = Vec::new();
        if !run.pass {
            problems.push("campaign report has pass == false".to_string());
        }
        if run.bytes != reference.bytes {
            problems.push("report bytes differ from the single-worker reference".to_string());
        }
        problems
    };
    // Warm-up campaign: checked, not timed.
    let warmup = timed_campaign(ctx, &mut tracer, &cfg, WORKERS)?;
    tally.record("warm-up campaign", &check(&warmup));

    let mut runs = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut scales = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < ctx.budget || runs.is_empty() {
        time_setups(ctx.seed, &mut setups)?;
        let traced = i.is_multiple_of(2);
        tracer.set_recording(traced);
        let run = timed_campaign(ctx, &mut tracer, &cfg, WORKERS)?;
        tally.record("campaign", &check(&run));
        scales.push(run.timing.window.scale);
        if ctx.trace && !traced {
            untraced_walls.push(run.timing.window.wall_s);
        } else {
            runs.push(run.timing);
        }
        i += 1;
    }
    tracer.set_recording(true);

    let walls: Vec<f64> = runs.iter().map(|r| r.window.wall_s).collect();
    let scale = crate::host::run_scale(&scales);
    let mut out = Outcome::new(tally, tracer);
    if !ctx.trace {
        out.set("setup_s", median(&setups) * scale);
        out.set(
            "sim_cycles_per_s",
            median(
                &runs
                    .iter()
                    .map(|r| r.sim_cycles as f64 / r.window.wall_s)
                    .collect::<Vec<_>>(),
            ) / scale,
        );
        out.set(
            "points_per_s",
            median(&walls.iter().map(|w| grid / w).collect::<Vec<_>>()) / scale,
        );
        out.set(
            "first_point_s",
            median(&runs.iter().map(|r| r.first_point_s).collect::<Vec<_>>()) * scale,
        );
        // No service in this workload's path.
        out.set("service_overhead", 1.0);
        return Ok(out);
    }

    out.set(
        "sim.pool.busy_fraction",
        median(&runs.iter().map(|r| r.busy_fraction).collect::<Vec<_>>()),
    );
    out.set(
        "sim.pool.imbalance",
        median(&runs.iter().map(|r| r.imbalance).collect::<Vec<_>>()),
    );
    out.set(
        "bench.trace_overhead",
        median(&walls) / median(&untraced_walls) - 1.0,
    );
    out.set("bench.host_scale", scale);
    point_probes(&mut out, &cfg, None)?;
    Ok(out)
}
