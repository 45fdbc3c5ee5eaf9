//! Kernel-health observer contract tests.
//!
//! `KernelHealth` counts how the engine ran every step (event kernel vs
//! the full-scan reference oracle), how often time jumped and how many
//! cycles that skipped. The counters are pure functions of the seeded
//! simulation: this suite pins that they are deterministic across runs,
//! that production stepping never leaves the event kernel under any
//! observer set or fault plan, that the two kernels agree on step
//! totals, and that the fault-campaign progress journal built on top of
//! them is byte-identical across `--jobs` worker counts.

use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_ocp::Request;
use xpipes_sim::{FaultKind, FaultPlan, KernelHealth, SimRng};
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiId;
use xpipes_traffic::faultcampaign::{
    campaign_spec, progress_line, run_campaign_parallel, run_campaign_streaming, CampaignConfig,
};

/// Minimal deterministic open-loop driver (kernel-agnostic: stepping is
/// the caller's job).
struct Driver {
    rng: SimRng,
    initiators: Vec<NiId>,
    windows: Vec<(u64, u64)>,
}

impl Driver {
    fn new(spec: &NocSpec, seed: u64) -> Self {
        let initiators = spec
            .topology
            .nis_of_kind(xpipes_topology::NiKind::Initiator)
            .map(|a| a.ni)
            .collect();
        let windows = spec
            .topology
            .nis_of_kind(xpipes_topology::NiKind::Target)
            .map(|a| {
                let r = spec.range_of(a.ni).expect("target mapped");
                (r.base, r.size)
            })
            .collect();
        Driver {
            rng: SimRng::seed(seed),
            initiators,
            windows,
        }
    }

    fn inject(&mut self, noc: &mut Noc) {
        for idx in 0..self.initiators.len() {
            if !self.rng.chance(0.08) {
                continue;
            }
            let (base, size) = self.windows[self.rng.below(self.windows.len())];
            let addr = base + (self.rng.next_u64() % (size / 8).max(1)) * 8;
            if let Ok(req) = Request::read(addr, 4) {
                let _ = noc.submit(self.initiators[idx], req);
            }
        }
    }

    fn drain(&self, noc: &mut Noc) {
        for &ni in &self.initiators {
            while let Ok(Some(_)) = noc.take_response(ni) {}
        }
    }
}

/// Attaches observers to a freshly assembled network.
type Arm = fn(&mut Noc);

/// Arms VCD tracing plus the protocol monitor.
fn arm_heavy(noc: &mut Noc) {
    noc.enable_trace();
    noc.enable_monitor(MonitorConfig {
        liveness_bound: 100_000,
        max_violations: 64,
    });
}

/// Arms the fault-campaign observer set: monitor, telemetry with flight
/// recorder, attribution.
fn arm_campaign(noc: &mut Noc) {
    noc.enable_monitor(MonitorConfig::default());
    noc.enable_telemetry(TelemetryConfig::full());
    noc.enable_attribution();
}

/// Drives one seeded run with the given stepper and returns its health.
fn run_health(heavy: bool, step: fn(&mut Noc)) -> KernelHealth {
    let arm: Arm = if heavy { arm_heavy } else { |_| {} };
    run_armed(&FaultPlan::none(), arm, step)
}

/// Drives one seeded run under `plan` with the observers `arm` attaches.
fn run_armed(plan: &FaultPlan, arm: Arm, step: fn(&mut Noc)) -> KernelHealth {
    let spec = campaign_spec();
    let mut noc = Noc::with_faults(&spec, 23, plan).expect("assembles");
    arm(&mut noc);
    let mut driver = Driver::new(&spec, 23 ^ 0x5EED);
    for _ in 0..500 {
        driver.inject(&mut noc);
        step(&mut noc);
    }
    for _ in 0..2000 {
        if noc.is_idle() {
            break;
        }
        step(&mut noc);
    }
    driver.drain(&mut noc);
    noc.finish_monitor();
    noc.kernel_health().clone()
}

/// The counters are a pure function of the seeded run: two identical
/// runs produce identical `KernelHealth` (full structural equality,
/// samples included).
#[test]
fn health_counters_are_deterministic() {
    assert_eq!(run_health(false, Noc::step), run_health(false, Noc::step));
    assert_eq!(run_health(true, Noc::step), run_health(true, Noc::step));
}

/// Event vs reference kernel on the same seeded run: both take the same
/// number of steps, but the dispatch mix is opposite — production
/// stepping is all event kernel, a harness driving the oracle is all
/// reference steps (what `fallback_steps` counts).
#[test]
fn kernels_agree_on_step_totals_with_opposite_dispatch_mix() {
    let event = run_health(false, Noc::step);
    let reference = run_health(false, Noc::step_reference);
    assert_eq!(event.steps(), reference.steps(), "step totals diverged");
    assert_eq!(event.fallback_steps(), 0);
    assert!(event.event_steps() > 0);
    assert_eq!(reference.event_steps(), 0);
    assert_eq!(reference.fallback_steps(), reference.steps());
}

/// One kernel runs every configuration: under every observer set
/// (trace, monitor, the campaign set, all of them) and every fault plan
/// (stall faults included), production stepping never takes a
/// reference-oracle step.
#[test]
fn every_observer_set_and_stall_plan_stays_on_the_event_kernel() {
    let observer_sets: [(&str, Arm); 5] = [
        ("none", |_| {}),
        ("trace", Noc::enable_trace),
        ("trace+monitor", arm_heavy),
        ("campaign", arm_campaign),
        ("all", |noc| {
            arm_campaign(noc);
            noc.enable_trace();
        }),
    ];
    let plans = [
        FaultPlan::none(),
        FaultKind::OutputStall.plan(0.05),
        FaultPlan {
            flit_corruption_rate: 0.02,
            ack_loss_rate: 0.01,
            stall_rate: 0.01,
            stall_len: FaultPlan::DEFAULT_STALL_LEN,
            ..FaultPlan::none()
        },
    ];
    for (name, arm) in observer_sets {
        for plan in &plans {
            let health = run_armed(plan, arm, Noc::step);
            assert_eq!(health.fallback_steps(), 0, "{name} under {plan:?}");
            assert!(health.event_steps() > 0, "{name} under {plan:?}");
            let text = health.render();
            assert!(text.contains(" 0 fallback [0.0%]"), "{text}");
        }
    }
}

/// The per-grid-point campaign progress journal is built from
/// deterministic fields only, so the stream is byte-identical across
/// worker counts — and the streamed report matches the one-shot runner.
#[test]
fn campaign_progress_journal_is_byte_identical_across_jobs() {
    let spec = campaign_spec();
    let faults = [FaultKind::ALL[0], FaultKind::ALL[1]];
    let mut cfg = CampaignConfig::new(7, 2000);
    cfg.error_rates = vec![0.02];
    cfg.flight_recorder_depth = 0;
    let journal = |workers: usize| {
        let mut lines = String::new();
        let (report, pool) =
            run_campaign_streaming(&spec, &faults, &cfg, None, workers, &mut |point| {
                lines.push_str(&progress_line(&faults, &cfg, point).render_compact());
                lines.push('\n');
            })
            .expect("campaign runs");
        assert_eq!(pool.items, 3, "pool stats cover every grid point");
        (lines, report.to_json())
    };
    let (serial_lines, serial_report) = journal(1);
    let (parallel_lines, parallel_report) = journal(3);
    assert_eq!(serial_lines, parallel_lines, "journal depends on --jobs");
    assert_eq!(serial_report, parallel_report);
    assert_eq!(serial_lines.lines().count(), 3, "baseline + 2 fault points");
    assert!(serial_lines.contains("\"fault\":\"baseline\""));
    // The streamed runner is a pure observer over the one-shot runner.
    let oneshot = run_campaign_parallel(&spec, &faults, &cfg, 2)
        .expect("campaign runs")
        .to_json();
    assert_eq!(serial_report, oneshot);
}
