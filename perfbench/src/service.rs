//! `service_warm`: the campaign grid through the `xpipesd` service.
//!
//! The `campaign_cold` grid with `warm_start` on, submitted to an
//! in-process `Server` on `127.0.0.1:0` served by two `run_worker` threads
//! and driven by one operator connection (`client::submit`, `watch`,
//! `fetch_report`). Each service campaign is paired with a one-shot
//! `run_campaign_streaming` of the same spec at the same worker count, in
//! alternating order. This is the only workload that runs submit-path
//! warm-up, journaling and the framed transport: small control frames for
//! every message plus one warm-checkpoint blob frame per assignment.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use xpipes_service::{client, proto, worker, CampaignSpec, Server, ServerConfig};
use xpipes_sim::{FaultKind, Json};
use xpipes_traffic::faultcampaign::{
    campaign_spec, run_campaign_streaming, warm_checkpoint, CampaignConfig, WarmStart,
};

use crate::campaign::{assemble_point, point_probes, FULL, WORKERS};
use crate::report::{Outcome, Tally};
use crate::stats::{median, median_ratio};
use crate::trace::Tracer;
use crate::{Ctx, Window};

/// Fault-free warm-up cycles checkpointed and shipped with every
/// assignment.
const WARM_START: u64 = 2_000;

/// Timed repetitions of the snapshot and warm-checkpoint probes.
const PROBE_REPS: usize = 10;

/// A running in-process service: the server and its worker threads.
struct Service {
    server: Server,
    addr: String,
    workers: Vec<JoinHandle<Result<(), String>>>,
}

impl Service {
    /// Starts the server and its workers and waits until both workers are
    /// registered.
    fn start(state_dir: &Path) -> Result<Service, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        let server = Server::start(listener, ServerConfig::new(state_dir))
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = server.addr().to_string();
        let workers = (0..WORKERS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || worker::run_worker(&addr))
            })
            .collect();
        let service = Service {
            server,
            addr,
            workers,
        };
        let status = proto::msg("status").build();
        loop {
            let reply = client::request(&service.addr, &status)?;
            if reply.get("workers").and_then(Json::as_u64) == Some(WORKERS as u64) {
                return Ok(service);
            }
            if service.workers.iter().any(JoinHandle::is_finished) {
                service.stop()?;
                return Err("a worker exited before registering".into());
            }
            std::thread::yield_now();
        }
    }

    /// Shuts the server down and joins every worker.
    fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        for w in self.workers {
            w.join()
                .map_err(|_| "worker thread panicked".to_string())??;
        }
        Ok(())
    }
}

/// One paired iteration: the service campaign and the one-shot run.
struct Pair {
    service: ServiceLeg,
    oneshot_wall: f64,
}

/// The service leg of a pair: the merged report and its timings.
struct ServiceLeg {
    bytes: Vec<u8>,
    pass: bool,
    window: Window,
    /// Wall seconds from submit to the first progress line.
    first_point_s: f64,
    submit_ms: f64,
    fetch_ms: f64,
}

/// Submits one campaign and waits for its report bytes.
fn service_campaign(
    ctx: &Ctx,
    tracer: &mut Tracer,
    addr: &str,
    spec_json: &Json,
) -> Result<ServiceLeg, String> {
    let group = tracer.group();
    let t0 = Instant::now();
    let mut first: Option<f64> = None;
    let mut submit_ms = 0.0;
    let mut fetch_ms = 0.0;
    let (result, window) = ctx.window(|| -> Result<(Vec<u8>, bool), String> {
        tracer.span("bench.service_campaign", group, |tracer| {
            let s0 = Instant::now();
            let reply = tracer.span("service.client::submit", group, |_| {
                client::submit(addr, spec_json)
            })?;
            submit_ms = s0.elapsed().as_secs_f64() * 1e3;
            let id = reply
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("submit reply carries no id")?;
            let done = tracer.span("service.client::watch", group, |_| {
                client::watch(addr, id, &mut |_| {
                    first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                })
            })?;
            if done.get("state").and_then(Json::as_str) != Some("done") {
                return Err(format!("campaign ended as {}", done.render_compact()));
            }
            let f0 = Instant::now();
            let fetched = tracer.span("service.client::fetch_report", group, |_| {
                client::fetch_report(addr, id)
            });
            fetch_ms = f0.elapsed().as_secs_f64() * 1e3;
            let (pass, bytes) = fetched?;
            Ok((bytes, pass))
        })
    });
    let (bytes, pass) = result?;
    Ok(ServiceLeg {
        bytes,
        pass,
        window,
        first_point_s: first.unwrap_or(window.wall_s),
        submit_ms,
        fetch_ms,
    })
}

/// The one-shot equivalent: warm up, run the streaming campaign, render.
fn oneshot_campaign(
    ctx: &Ctx,
    tracer: &mut Tracer,
    cfg: &CampaignConfig,
    pool: &mut Vec<(f64, f64)>,
    point_bytes: &mut u64,
) -> Result<(Vec<u8>, bool, Window, u64), String> {
    let spec = campaign_spec();
    let faults = FaultKind::ALL;
    let group = tracer.group();
    let mut shipped = 0u64;
    let (result, wall) = ctx.window(|| {
        tracer.span("bench.oneshot_campaign", group, |tracer| {
            let warm = tracer.span("traffic.warm_checkpoint", group, |_| {
                warm_checkpoint(&spec, cfg, WARM_START)
            })?;
            tracer.span("traffic.run_campaign_streaming", group, |_| {
                run_campaign_streaming(&spec, &faults, cfg, Some(&warm), WORKERS, &mut |p| {
                    if ctx.trace {
                        shipped += p.to_bytes().len() as u64;
                    }
                })
            })
        })
    });
    let (report, stats) = result.map_err(|e| e.to_string())?;
    pool.push((stats.busy_fraction(), stats.imbalance()));
    *point_bytes = shipped;
    let sim_cycles =
        report.baseline.cycles + report.runs.iter().map(|r| r.summary.cycles).sum::<u64>();
    Ok((report.to_json().into_bytes(), report.pass, wall, sim_cycles))
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Snapshot probes on the warm network: `Noc::checkpoint` (encode), and
/// `WarmStart::from_bytes` + `Noc::restore` into a fresh point (decode).
fn snapshot_probes(out: &mut Outcome, cfg: &CampaignConfig) -> Result<(), String> {
    let spec = campaign_spec();
    let group = out.tracer.group();
    let (mut noc, mut inj) = assemble_point(&spec, cfg, cfg.seed, FULL)?;
    for cycle in 0..WARM_START {
        inj.step(&mut noc);
        if cycle % 512 == 511 {
            inj.drain_responses(&mut noc);
        }
    }
    let warm = warm_checkpoint(&spec, cfg, WARM_START).map_err(|e| e.to_string())?;
    let blob = warm.to_bytes();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut warm_ms = Vec::new();
    let mut problems = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let bytes = out
            .tracer
            .span("core.Noc::checkpoint", group, |_| noc.checkpoint());
        encode.push(t0.elapsed().as_secs_f64() * 1e3);
        if bytes != warm.noc_bytes() {
            problems.push("checkpoint of the warm replica differs from warm_checkpoint".into());
        }

        let (mut fresh, mut fresh_inj) = assemble_point(&spec, cfg, cfg.seed, FULL)?;
        let t0 = Instant::now();
        out.tracer.span("core.Noc::restore", group, |_| {
            let decoded = WarmStart::from_bytes(&blob).map_err(|e| e.to_string())?;
            crate::campaign::restore(&mut fresh, &mut fresh_inj, &decoded)
        })?;
        decode.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let again = out.tracer.span("traffic.warm_checkpoint", group, |_| {
            warm_checkpoint(&spec, cfg, WARM_START)
        });
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if again.map_err(|e| e.to_string())? != warm {
            problems.push("warm_checkpoint is not deterministic".into());
        }
    }
    out.tally.record("snapshot probes", &problems);
    out.set("sim.snapshot.encode_ms", median(&encode));
    out.set("sim.snapshot.decode_ms", median(&decode));
    out.set("sim.snapshot.warm_bytes", blob.len() as f64);
    out.set("traffic.warm_checkpoint_ms", median(&warm_ms));
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let state_dir =
        PathBuf::from(".bench_out").join(format!("service-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let result = run_in(ctx, &state_dir);
    let _ = std::fs::remove_dir_all(&state_dir);
    result
}

fn run_in(ctx: &Ctx, state_dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(ctx.trace);
    let spec_json = Json::object()
        .field("name", Json::str("perfbench"))
        .field("faults", Json::str("all"))
        .field("cycles", Json::UInt(crate::campaign::CYCLES))
        .field("seed", Json::UInt(ctx.seed))
        .field("warm_start", Json::UInt(WARM_START))
        .build();
    let spec = CampaignSpec::from_json(&spec_json)?;
    let cfg = spec.config();
    let grid = spec.grid() as f64;

    let t0 = Instant::now();
    let service = Service::start(state_dir)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];

    let mut pool = Vec::new();
    let mut point_bytes = 0u64;
    let mut journal_bytes = 0u64;
    let mut sim_cycles = 0u64;
    let mut reference: Option<Vec<u8>> = None;
    let mut pairs = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut scales = Vec::new();
    // Iteration 0 is the warm-up pair: checked, not timed. The budget
    // starts after it.
    let mut start: Option<Instant> = None;
    let mut i = 0u64;
    let outcome = loop {
        if start.is_some_and(|s| s.elapsed() >= ctx.budget) && !pairs.is_empty() {
            break Ok(());
        }
        // One more set-up per pair, so `setup_s` samples the same host
        // conditions as the timed campaigns.
        let t0 = Instant::now();
        let extra = Service::start(state_dir);
        setups.push(t0.elapsed().as_secs_f64());
        if let Err(e) = extra.and_then(Service::stop) {
            break Err(e);
        }
        let traced = i.is_multiple_of(2);
        tracer.set_recording(traced);
        // The order alternates every other pair, so it is independent of
        // which pairs are traced.
        let service_first = (i / 2).is_multiple_of(2);
        let mut svc = None;
        let mut one = None;
        for leg in 0..2 {
            if (leg == 0) == service_first {
                svc = Some(service_campaign(
                    ctx,
                    &mut tracer,
                    &service.addr,
                    &spec_json,
                ));
            } else {
                one = Some(oneshot_campaign(
                    ctx,
                    &mut tracer,
                    &cfg,
                    &mut pool,
                    &mut point_bytes,
                ));
            }
        }
        let (mut svc, one) = match (svc.expect("ran"), one.expect("ran")) {
            (Ok(s), Ok(o)) => (s, o),
            (Err(e), _) | (_, Err(e)) => break Err(e),
        };
        journal_bytes = dir_bytes(state_dir);
        // Drop the journal so the next identical submit recomputes
        // instead of resuming from it.
        if let Err(e) = std::fs::remove_dir_all(state_dir) {
            break Err(format!("cannot clear {}: {e}", state_dir.display()));
        }
        // Reports are compared and dropped, so memory does not grow with
        // the run's length.
        let bytes = std::mem::take(&mut svc.bytes);
        let pass = svc.pass;
        let (oneshot_bytes, oneshot_pass, oneshot, cycles) = one;
        let oneshot_wall = oneshot.wall_s;
        sim_cycles = cycles;
        let mut problems = Vec::new();
        if !pass || !oneshot_pass {
            problems.push(format!(
                "report pass flags: service {pass}, one-shot {oneshot_pass}"
            ));
        }
        if bytes != oneshot_bytes {
            problems.push("service report differs from the one-shot report".into());
        }
        match &reference {
            None => reference = Some(bytes),
            Some(r) if *r != bytes => {
                problems.push("service report differs from the first iteration's".into())
            }
            Some(_) => {}
        }
        tally.record("service campaign", &problems);
        scales.extend([svc.window.scale, oneshot.scale]);
        if start.is_none() {
            start = Some(Instant::now());
        } else {
            if ctx.trace && !traced {
                untraced_walls.push(svc.window.wall_s);
            } else {
                pairs.push(Pair {
                    service: svc,
                    oneshot_wall,
                });
            }
        }
        i += 1;
    };
    service.stop()?;
    outcome?;
    tracer.set_recording(true);

    let service_walls: Vec<f64> = pairs.iter().map(|p| p.service.window.wall_s).collect();
    let oneshot_walls: Vec<f64> = pairs.iter().map(|p| p.oneshot_wall).collect();
    let scale = crate::host::run_scale(&scales);
    let mut out = Outcome::new(tally, tracer);
    if !ctx.trace {
        let sim_cycles = sim_cycles as f64;
        // A whole service campaign mostly waits on the transport, and its
        // wall time does not follow the host's speed, so it is not
        // rescaled. Its first point is mostly the warm-up checkpoint and
        // one grid point of computing, which do.
        out.set("setup_s", median(&setups));
        out.set(
            "sim_cycles_per_s",
            median(
                &service_walls
                    .iter()
                    .map(|w| sim_cycles / w)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "points_per_s",
            median(&service_walls.iter().map(|w| grid / w).collect::<Vec<_>>()),
        );
        out.set(
            "first_point_s",
            median(
                &pairs
                    .iter()
                    .map(|p| p.service.first_point_s)
                    .collect::<Vec<_>>(),
            ) * scale,
        );
        out.set(
            "service_overhead",
            // The one-shot leg computes and follows the host's speed; the
            // service leg does not. Against the one-shot wall rescaled to
            // the nominal host, the ratio stays put when the host speeds up.
            median_ratio(&service_walls, &oneshot_walls) / scale,
        );
        return Ok(out);
    }

    out.set(
        "service.submit_ms",
        median(
            &pairs
                .iter()
                .map(|p| p.service.submit_ms)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "service.report_fetch_ms",
        median(&pairs.iter().map(|p| p.service.fetch_ms).collect::<Vec<_>>()),
    );
    out.set(
        "service.overhead_per_point_ms",
        median(
            &pairs
                .iter()
                .map(|p| (p.service.window.wall_s - p.oneshot_wall) * 1e3 / grid)
                .collect::<Vec<_>>(),
        ),
    );
    // Per assignment the server ships the spec's wire form and the warm
    // blob; the worker returns one `CompletedPoint` container.
    let spec_wire = spec.to_json().render_compact().len() as f64;
    let warm_blob = warm_checkpoint(&campaign_spec(), &cfg, WARM_START)
        .map_err(|e| e.to_string())?
        .to_bytes()
        .len() as f64;
    out.set(
        "service.bytes_per_point",
        spec_wire + warm_blob + point_bytes as f64 / grid,
    );
    out.set("service.journal_bytes", journal_bytes as f64);
    out.set(
        "sim.pool.busy_fraction",
        median(&pool.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    out.set(
        "sim.pool.imbalance",
        median(&pool.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    out.set(
        "bench.trace_overhead",
        median(&service_walls) / median(&untraced_walls) - 1.0,
    );
    out.set("bench.host_scale", scale);
    snapshot_probes(&mut out, &cfg)?;
    let warm = warm_checkpoint(&campaign_spec(), &cfg, WARM_START).map_err(|e| e.to_string())?;
    point_probes(&mut out, &cfg, Some(&warm))?;
    Ok(out)
}
