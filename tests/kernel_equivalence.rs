//! Differential equivalence suite: event-wheel kernel vs reference kernel.
//!
//! `Noc::step` runs an event-driven kernel that only visits channels,
//! switches and NIs with scheduled work — under every observer set and
//! fault plan — and `Noc::run` jumps time across provably idle gaps. This suite pins the contract that
//! makes the optimisation safe: over a seeded matrix of mesh sizes,
//! injection rates, fault plans and observer configurations, a network
//! driven exclusively by the full-scan reference kernel
//! (`Noc::step_reference`, exposed by the `reference-kernel` feature)
//! finishes in **byte-identical architectural state** to one driven by
//! the production kernel.
//!
//! "Byte-identical" is enforced through the checkpoint container, which
//! serialises every latch, queue, memory, statistic and RNG stream
//! position — so RNG-draw parity and delivered-packet parity are
//! subsumed by one comparison — plus the explicit work fingerprint,
//! the VCD waveform hash when tracing is on, and every observer report
//! (rendered monitor violations, flight-recorder dump, telemetry and
//! attribution) when those observers are on.

use xpipes::flow_control::FlowSabotage;
use xpipes::monitor::MonitorConfig;
use xpipes::noc::{Noc, TelemetryConfig};
use xpipes_ocp::Request;
use xpipes_sim::{FaultPlan, SimRng};
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiId;
use xpipes_traffic::faultcampaign::campaign_spec;

/// FNV-1a 64-bit, for VCD hashing.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const INJECT_CYCLES: u64 = 900;
const DRAIN_CYCLES: u64 = 2000;
/// Cycles run past the drain by the points that keep going while idle.
const IDLE_TAIL_CYCLES: u64 = 1500;

/// A 2x2 mesh with one initiator and two targets: the smallest network
/// with a routing decision in it.
fn demo_2x2() -> NocSpec {
    let mut b = mesh(2, 2).expect("builds");
    b.attach_initiator("cpu", (0, 0)).expect("attaches");
    let m0 = b.attach_target("m0", (1, 0)).expect("attaches");
    let m1 = b.attach_target("m1", (1, 1)).expect("attaches");
    let mut spec = NocSpec::new("kdiff-2x2", b.into_topology());
    spec.map_address(m0, 0x0000, 0x1_0000).expect("maps");
    spec.map_address(m1, 0x1_0000, 0x1_0000).expect("maps");
    spec
}

/// An 8x8 mesh with four central initiators and four spread targets,
/// placed so every route fits the 7-hop source-route field (manhattan
/// distance at most 6 plus the ejection hop).
fn spread_8x8() -> NocSpec {
    let mut b = mesh(8, 8).expect("builds");
    for (i, at) in [(3, 3), (4, 3), (3, 4), (4, 4)].into_iter().enumerate() {
        b.attach_initiator(format!("cpu{i}"), at).expect("attaches");
    }
    let mut spec_targets = Vec::new();
    for (i, at) in [(1, 1), (6, 1), (1, 6), (6, 6)].into_iter().enumerate() {
        spec_targets.push(b.attach_target(format!("m{i}"), at).expect("attaches"));
    }
    let mut spec = NocSpec::new("kdiff-8x8", b.into_topology());
    for (i, t) in spec_targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("maps");
    }
    spec
}

/// The observer configurations in the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observers {
    /// Bare network.
    None,
    /// Telemetry + attribution + flight recorder.
    Light,
    /// VCD tracing + protocol monitor.
    Heavy,
    /// The fault-campaign observer set: protocol monitor, telemetry with
    /// flight recorder, and attribution, but no trace.
    Campaign,
}

/// Deterministic open-loop driver, independent of the production
/// `Injector` (whose `step` hardwires the production kernel). Each cycle
/// every initiator starts a transaction with probability `rate`;
/// interrupts are raised on a fixed cadence to exercise the target-side
/// wake wheel.
struct Driver {
    rng: SimRng,
    initiators: Vec<NiId>,
    targets: Vec<NiId>,
    windows: Vec<(u64, u64)>,
    rate: f64,
}

impl Driver {
    fn new(spec: &NocSpec, rate: f64, seed: u64) -> Self {
        let topo = &spec.topology;
        let initiators: Vec<NiId> = topo
            .nis_of_kind(xpipes_topology::NiKind::Initiator)
            .map(|a| a.ni)
            .collect();
        let targets: Vec<NiId> = topo
            .nis_of_kind(xpipes_topology::NiKind::Target)
            .map(|a| a.ni)
            .collect();
        let windows = targets
            .iter()
            .map(|t| {
                let r = spec.range_of(*t).expect("target mapped");
                (r.base, r.size)
            })
            .collect();
        Driver {
            rng: SimRng::seed(seed),
            initiators,
            targets,
            windows,
            rate,
        }
    }

    /// One cycle of offered load (submissions only — stepping is the
    /// harness's job, so either kernel can advance the clock).
    fn inject(&mut self, noc: &mut Noc, cycle: u64) {
        for idx in 0..self.initiators.len() {
            if !self.rng.chance(self.rate) {
                continue;
            }
            let dst = self.rng.below(self.windows.len());
            let (base, size) = self.windows[dst];
            let addr = base + (self.rng.next_u64() % (size / 8).max(1)) * 8;
            let req = if self.rng.chance(0.5) {
                Request::read(addr, 4)
            } else {
                Request::write(addr, (0..4u64).collect())
            };
            if let Ok(r) = req {
                let _ = noc.submit(self.initiators[idx], r);
            }
        }
        // A steady trickle of interrupts keeps the target wake wheel and
        // the reverse NI→switch channels honest.
        if cycle % 97 == 13 {
            let t = self.targets[(cycle / 97) as usize % self.targets.len()];
            let i = self.initiators[(cycle / 97) as usize % self.initiators.len()];
            let _ = noc.raise_interrupt(t, i);
        }
    }

    /// Drains response and interrupt queues identically on both sides.
    fn drain(&self, noc: &mut Noc) -> u64 {
        let mut drained = 0;
        for &ni in &self.initiators {
            while let Ok(Some(_)) = noc.take_response(ni) {
                drained += 1;
            }
            while let Ok(true) = noc.take_interrupt(ni) {
                drained += 1;
            }
        }
        drained
    }
}

/// Everything compared between the two kernels.
#[derive(Debug, PartialEq)]
struct Artifacts {
    cycles: u64,
    packets_delivered: u64,
    flits_routed: u64,
    retransmissions: u64,
    responses_drained: u64,
    /// The checkpoint container: every latch, queue, memory, statistic
    /// and RNG position in one byte string.
    checkpoint_fnv64: u64,
    vcd_fnv64: Option<u64>,
    /// Rendered monitor violations, in detection order.
    violations: Vec<String>,
    /// Rendered flight-recorder ring (frozen at the first violation).
    flight_dump: Vec<String>,
    telemetry_summary: Option<String>,
    attribution_json: Option<String>,
}

/// Set-up hook applied to a freshly assembled network: observers,
/// sabotage.
type Setup<'a> = &'a dyn Fn(&mut Noc);

/// Arms the campaign observer set with the given liveness bound.
fn arm_campaign(noc: &mut Noc, liveness_bound: u64) {
    noc.enable_monitor(MonitorConfig {
        liveness_bound,
        max_violations: 64,
    });
    noc.enable_telemetry(TelemetryConfig {
        flight_recorder_depth: 256,
        ..TelemetryConfig::default()
    });
    noc.enable_attribution();
}

fn arm(noc: &mut Noc, obs: Observers) {
    match obs {
        Observers::None => {}
        Observers::Light => {
            noc.enable_telemetry(TelemetryConfig::full());
            noc.enable_attribution();
        }
        Observers::Heavy => {
            noc.enable_trace();
            noc.enable_monitor(MonitorConfig {
                liveness_bound: 100_000,
                max_violations: 64,
            });
        }
        Observers::Campaign => arm_campaign(noc, 2500),
    }
}

fn build(spec: &NocSpec, plan: &FaultPlan, obs: Observers, seed: u64) -> Noc {
    let mut noc = Noc::with_faults(spec, seed, plan).expect("assembles");
    arm(&mut noc, obs);
    noc
}

/// Runs one matrix point to completion with the given stepper and
/// collects the comparison artifacts.
fn drive(
    spec: &NocSpec,
    rate: f64,
    plan: &FaultPlan,
    obs: Observers,
    seed: u64,
    step: fn(&mut Noc),
) -> Artifacts {
    drive_armed(spec, rate, plan, seed, &|noc| arm(noc, obs), step, None)
}

/// [`drive`] with an arbitrary set-up hook (observers, sabotage) applied
/// to the freshly assembled network and, optionally, a runner that
/// keeps the clock going for [`IDLE_TAIL_CYCLES`] after the drain.
fn drive_armed(
    spec: &NocSpec,
    rate: f64,
    plan: &FaultPlan,
    seed: u64,
    setup: Setup<'_>,
    step: fn(&mut Noc),
    idle_tail: Option<fn(&mut Noc, u64)>,
) -> Artifacts {
    let mut noc = Noc::with_faults(spec, seed, plan).expect("assembles");
    setup(&mut noc);
    let mut driver = Driver::new(spec, rate, seed ^ 0x5EED);
    let mut drained = 0;
    for cycle in 0..INJECT_CYCLES {
        driver.inject(&mut noc, cycle);
        step(&mut noc);
        if cycle % 256 == 255 {
            drained += driver.drain(&mut noc);
        }
    }
    for _ in 0..DRAIN_CYCLES {
        if noc.is_idle() {
            break;
        }
        step(&mut noc);
    }
    if let Some(run) = idle_tail {
        run(&mut noc, IDLE_TAIL_CYCLES);
    }
    drained += driver.drain(&mut noc);
    noc.finish_monitor();
    noc.flush_telemetry();
    let stats = noc.stats();
    Artifacts {
        cycles: stats.cycles,
        packets_delivered: stats.packets_delivered,
        flits_routed: stats.flits_routed,
        retransmissions: stats.retransmissions,
        responses_drained: drained,
        checkpoint_fnv64: fnv64(&noc.checkpoint()),
        vcd_fnv64: noc.vcd().map(|v| fnv64(v.as_bytes())),
        violations: noc
            .monitor_violations()
            .iter()
            .map(ToString::to_string)
            .collect(),
        flight_dump: noc.flight_dump_rendered(),
        telemetry_summary: noc
            .telemetry_registry()
            .map(|_| format!("{:?}", noc.telemetry_summary())),
        attribution_json: noc.attribution_report().map(|r| r.render()),
    }
}

/// One matrix point: reference kernel vs production kernel.
fn assert_equivalent(spec: &NocSpec, rate: f64, plan: &FaultPlan, obs: Observers, seed: u64) {
    let reference = drive(spec, rate, plan, obs, seed, Noc::step_reference);
    let event = drive(spec, rate, plan, obs, seed, Noc::step);
    assert_eq!(
        reference, event,
        "kernels diverged: {} rate {rate} obs {obs:?} plan {plan:?}",
        spec.name
    );
}

fn matrix_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "lossy",
            FaultPlan {
                flit_corruption_rate: 0.02,
                ack_loss_rate: 0.01,
                ..FaultPlan::none()
            },
        ),
        (
            "stall",
            FaultPlan {
                stall_rate: 0.002,
                stall_len: FaultPlan::DEFAULT_STALL_LEN,
                ..FaultPlan::none()
            },
        ),
    ]
}

/// The full seeded matrix: three meshes, two injection rates, three
/// fault plans, four observer configurations.
#[test]
fn event_kernel_matches_reference_kernel_across_the_matrix() {
    let specs = [demo_2x2(), campaign_spec(), spread_8x8()];
    let mut points = 0;
    for (si, spec) in specs.iter().enumerate() {
        for (ri, &rate) in [0.02, 0.10].iter().enumerate() {
            for (pi, (_, plan)) in matrix_plans().iter().enumerate() {
                for (oi, &obs) in [
                    Observers::None,
                    Observers::Light,
                    Observers::Heavy,
                    Observers::Campaign,
                ]
                .iter()
                .enumerate()
                {
                    let seed = 0x9E37
                        ^ ((si as u64) << 24 | (ri as u64) << 16 | (pi as u64) << 8 | oi as u64);
                    assert_equivalent(spec, rate, plan, obs, seed);
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 72);
}

/// Where the monitor trips, its findings themselves — the rendered
/// violation lists and the frozen flight-recorder dumps, not just their
/// count — match the reference kernel: a stall plan against a liveness
/// bound shorter than one stall, and every sender sabotaged under
/// forward corruption. Each point keeps running after the network
/// drains — stepped by the reference, time-jumped by `Noc::run` — so
/// liveness bounds expiring on idle channels with lost flits are
/// compared too.
#[test]
fn tripped_monitor_reports_match_reference_kernel() {
    let spec = campaign_spec();
    let stall = FaultPlan {
        stall_rate: 0.01,
        stall_len: FaultPlan::DEFAULT_STALL_LEN,
        ..FaultPlan::none()
    };
    let corrupt = FaultPlan {
        flit_corruption_rate: 0.2,
        ..FaultPlan::none()
    };
    let tight: Setup<'_> = &|noc| arm_campaign(noc, 4);
    let sabotaged = |mode| {
        move |noc: &mut Noc| {
            arm_campaign(noc, 64);
            noc.sabotage_all_senders(mode);
        }
    };
    let skip = sabotaged(FlowSabotage::SkipRetransmission);
    let reuse = sabotaged(FlowSabotage::ReuseSequence);
    let drop = sabotaged(FlowSabotage::DropOnNack);
    // Each point names an invariant its rendered violations must hit.
    let points: [(&str, &FaultPlan, Setup<'_>, &str); 4] = [
        (
            "tight liveness under stalls",
            &stall,
            tight,
            "] liveness on",
        ),
        ("skip retransmission", &corrupt, &skip, "] conservation on"),
        ("reuse sequence", &corrupt, &reuse, "] seq-aliasing on"),
        ("drop on nack", &corrupt, &drop, "] liveness on"),
    ];
    let step_reference_for: fn(&mut Noc, u64) = |noc, cycles| {
        for _ in 0..cycles {
            noc.step_reference();
        }
    };
    for (name, plan, setup, kind) in points {
        let reference = drive_armed(
            &spec,
            0.05,
            plan,
            7,
            setup,
            Noc::step_reference,
            Some(step_reference_for),
        );
        let event = drive_armed(&spec, 0.05, plan, 7, setup, Noc::step, Some(Noc::run));
        assert!(
            reference.violations.iter().any(|v| v.contains(kind)),
            "{name}: no{kind}: {:?}",
            reference.violations
        );
        assert!(!reference.flight_dump.is_empty(), "{name}: no flight dump");
        assert_eq!(reference, event, "kernels diverged: {name}");
    }
}

/// The matrix does real work: the no-fault high-rate point delivers
/// packets on every mesh (a silent all-idle matrix would vacuously
/// pass).
#[test]
fn matrix_points_deliver_real_work() {
    for spec in [demo_2x2(), campaign_spec(), spread_8x8()] {
        let a = drive(
            &spec,
            0.10,
            &FaultPlan::none(),
            Observers::None,
            1,
            Noc::step,
        );
        assert!(
            a.packets_delivered > 0,
            "{} delivered no packets",
            spec.name
        );
        assert!(a.responses_drained > 0, "{} drained nothing", spec.name);
    }
}

/// Time jumping is observationally transparent: `run`, which skips
/// provably idle gaps via the event wheel, finishes in the same state as
/// single-stepping the same span — including across a drained-idle
/// stretch with a scheduled interrupt at the far end.
#[test]
fn time_jumping_matches_single_stepping() {
    let spec = campaign_spec();
    let finish = |jump: bool| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::None, 99);
        let mut driver = Driver::new(&spec, 0.05, 99 ^ 0x5EED);
        for cycle in 0..600 {
            driver.inject(&mut noc, cycle);
            noc.step();
        }
        // Quiet stretch, then one late interrupt: a jumping run leaps to
        // the wheel's next event, a stepping run walks there.
        if jump {
            noc.run(3000);
        } else {
            for _ in 0..3000 {
                noc.step();
            }
        }
        let t = Driver::new(&spec, 0.0, 0).targets[0];
        let i = Driver::new(&spec, 0.0, 0).initiators[0];
        noc.raise_interrupt(t, i).expect("raises");
        if jump {
            noc.run(200);
        } else {
            for _ in 0..200 {
                noc.step();
            }
        }
        driver.drain(&mut noc);
        (noc.now(), fnv64(&noc.checkpoint()))
    };
    assert_eq!(finish(true), finish(false));
}

/// Jump-aware telemetry: armed telemetry no longer forces cycle-by-cycle
/// stepping. A telemetry-armed `run` still time-jumps across provably
/// idle gaps, synthesizing the epoch samples the stepped run would have
/// taken — and every telemetry artifact (registry, timeline, summary)
/// plus the checkpoint renders byte-identically to single-stepping.
#[test]
fn telemetry_armed_jumps_match_stepped_sampling() {
    let spec = campaign_spec();
    let finish = |jump: bool| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::None, 7);
        noc.enable_telemetry(TelemetryConfig::full());
        let mut driver = Driver::new(&spec, 0.05, 7 ^ 0x5EED);
        for cycle in 0..600 {
            driver.inject(&mut noc, cycle);
            noc.step();
        }
        // Quiet stretch with a late interrupt, exactly the shape that
        // used to pin telemetry runs to one step per cycle.
        if jump {
            noc.run(3000);
        } else {
            for _ in 0..3000 {
                noc.step();
            }
        }
        let t = Driver::new(&spec, 0.0, 0).targets[0];
        let i = Driver::new(&spec, 0.0, 0).initiators[0];
        noc.raise_interrupt(t, i).expect("raises");
        if jump {
            noc.run(200);
        } else {
            for _ in 0..200 {
                noc.step();
            }
        }
        driver.drain(&mut noc);
        noc.flush_telemetry();
        let artifacts = (
            noc.now(),
            fnv64(&noc.checkpoint()),
            noc.telemetry_registry().map(|r| r.to_json().render()),
            noc.timeline_json(),
            format!("{:?}", noc.telemetry_summary()),
        );
        (artifacts, noc.kernel_health().clone())
    };
    let (jumped, jumped_health) = finish(true);
    let (stepped, stepped_health) = finish(false);
    assert_eq!(jumped, stepped, "jumped telemetry diverged from stepped");
    // The jumped run really jumped (and stayed on the event kernel),
    // synthesizing samples the stepped run took one cycle at a time.
    assert!(jumped_health.time_jumps() > 0, "telemetry blocked the jump");
    assert!(jumped_health.cycles_skipped() > 0);
    assert!(jumped_health.synthetic_samples() > 0);
    assert_eq!(jumped_health.fallback_steps(), 0);
    assert_eq!(stepped_health.time_jumps(), 0);
    assert!(jumped_health.steps() < stepped_health.steps());
}

/// `run_until_idle` with time jumps agrees with a manual is-idle loop.
#[test]
fn run_until_idle_matches_manual_drain() {
    let spec = spread_8x8();
    let drain = |auto: bool| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::None, 17);
        let mut driver = Driver::new(&spec, 0.10, 17 ^ 0x5EED);
        for cycle in 0..400 {
            driver.inject(&mut noc, cycle);
            noc.step();
        }
        if auto {
            assert!(noc.run_until_idle(20_000), "must drain");
        } else {
            let mut left = 20_000u64;
            while !noc.is_idle() && left > 0 {
                noc.step();
                left -= 1;
            }
            assert!(noc.is_idle(), "must drain");
        }
        driver.drain(&mut noc);
        (noc.now(), fnv64(&noc.checkpoint()))
    };
    assert_eq!(drain(true), drain(false));
}

/// The monitor's watch list blocks time jumps: a read whose only flit a
/// sabotaged sender drops empties the schedule with that flit
/// undelivered — an unmonitored run jumps from there — so a monitored
/// `Noc::run` must step to where the liveness bound expires instead of
/// jumping over it.
#[test]
fn monitor_watch_list_blocks_time_jumps() {
    let spec = campaign_spec();
    let plan = FaultPlan {
        flit_corruption_rate: 0.1,
        ..FaultPlan::none()
    };
    let finish = |monitored: bool, jump: bool| {
        let mut noc = Noc::with_faults(&spec, 4, &plan).expect("assembles");
        if monitored {
            arm_campaign(&mut noc, 200);
        }
        noc.sabotage_all_senders(FlowSabotage::DropOnNack);
        let cpu = Driver::new(&spec, 0.0, 0).initiators[0];
        let req = Request::read(0x40, 1).expect("valid read");
        noc.submit(cpu, req).expect("submits");
        if jump {
            noc.run(1500);
        } else {
            for _ in 0..1500 {
                noc.step_reference();
            }
        }
        let violations: Vec<String> = noc
            .monitor_violations()
            .iter()
            .map(ToString::to_string)
            .collect();
        let jumps = noc.kernel_health().time_jumps();
        ((noc.now(), fnv64(&noc.checkpoint()), violations), jumps)
    };
    assert!(
        finish(false, true).1 > 0,
        "the unmonitored run never jumped"
    );
    let (stepped, _) = finish(true, false);
    assert!(
        stepped.2.iter().any(|v| v.contains("] liveness on")),
        "no liveness violation: {:?}",
        stepped.2
    );
    assert_eq!(finish(true, true).0, stepped);
}

/// Restoring a checkpoint without a trace section into a traced network
/// that has already recorded leaves the writer's last values from before
/// the restore; the next step must record every channel, as the
/// reference does, so the waveform matches.
#[test]
fn restore_into_a_recording_trace_matches_reference() {
    let spec = campaign_spec();
    let mut source = build(&spec, &FaultPlan::none(), Observers::None, 5);
    let mut driver = Driver::new(&spec, 0.1, 5 ^ 0x5EED);
    for cycle in 0..300 {
        driver.inject(&mut source, cycle);
        source.step();
    }
    let plain = source.checkpoint();
    let finish = |step: fn(&mut Noc)| {
        let mut noc = build(&spec, &FaultPlan::none(), Observers::None, 5);
        noc.enable_trace();
        let mut driver = Driver::new(&spec, 0.1, 9);
        for cycle in 0..200 {
            driver.inject(&mut noc, cycle);
            step(&mut noc);
        }
        noc.restore(&plain).expect("restores");
        for _ in 0..200 {
            step(&mut noc);
        }
        fnv64(noc.vcd().expect("traced").as_bytes())
    };
    assert_eq!(finish(Noc::step), finish(Noc::step_reference));
}
