//! Metric tables, the pass/fail tally, and the result line.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("points_per_s", "points/s"),
    ("first_point_s", "s"),
    ("service_overhead", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("pass_share", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.event_step_share", "ratio"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_flit", "ns"),
    ("core.assembly_ms", "ms"),
    ("core.monitor_overhead", "ratio"),
    ("sim.telemetry_overhead", "ratio"),
    ("sim.attribution_overhead", "ratio"),
    ("sim.profile.scheduling_share", "ratio"),
    ("sim.profile.channel_pass_share", "ratio"),
    ("sim.profile.switch_pass_share", "ratio"),
    ("sim.profile.wheel_service_share", "ratio"),
    ("sim.profile.observer_hooks_share", "ratio"),
    ("sim.snapshot.encode_ms", "ms"),
    ("sim.snapshot.decode_ms", "ms"),
    ("sim.snapshot.warm_bytes", "bytes"),
    ("sim.pool.busy_fraction", "ratio"),
    ("sim.pool.imbalance", "ratio"),
    ("traffic.point_ms.p50", "ms"),
    ("traffic.point_ms.p90", "ms"),
    ("traffic.point_ms.count", "count"),
    ("traffic.warm_checkpoint_ms", "ms"),
    ("traffic.assemble_report_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.report_fetch_ms", "ms"),
    ("service.overhead_per_point_ms", "ms"),
    ("service.bytes_per_point", "bytes"),
    ("service.journal_bytes", "bytes"),
    ("bench.trace_overhead", "ratio"),
    ("bench.host_scale", "ratio"),
];

/// Counts checked operations; an operation with any failed check counts
/// once in `failed`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `problems` lists its failed checks.
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: FAIL {what}: {p}");
            }
        }
    }
}

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn new(tally: Tally, tracer: Tracer) -> Self {
        Outcome {
            tally,
            metrics: BTreeMap::new(),
            tracer,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records the five kernel-phase shares, in `KernelPhase::ALL` order.
    pub fn set_profile_shares(&mut self, shares: &[f64; 5]) {
        const NAMES: [&str; 5] = [
            "sim.profile.scheduling_share",
            "sim.profile.channel_pass_share",
            "sim.profile.switch_pass_share",
            "sim.profile.wheel_service_share",
            "sim.profile.observer_hooks_share",
        ];
        for (name, share) in NAMES.into_iter().zip(shares) {
            self.set(name, *share);
        }
    }

    /// The final stdout line: the traced run reports every per-layer metric
    /// (0 for a layer the workload does not run), the untraced run every
    /// end-to-end metric.
    pub fn result_line(&self) -> String {
        let mut metrics = Vec::new();
        if self.tracer.enabled() {
            for (name, unit) in PER_LAYER {
                metrics.push((name, self.metrics.get(name).copied().unwrap_or(0.0), unit));
            }
        } else {
            let mut values = self.metrics.clone();
            values.insert("peak_rss_mib", peak_rss_mib());
            let pass = self.tally.attempted - self.tally.failed;
            values.insert(
                "pass_share",
                pass as f64 / self.tally.attempted.max(1) as f64,
            );
            for (name, unit) in END_TO_END {
                let value = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                metrics.push((name, value, unit));
            }
        }
        let body: Vec<String> = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        )
    }

    /// Writes the traced run's spans under `.bench_out/` in the working
    /// directory.
    pub fn write_spans(&self, workload: &str, seed: u64) -> Result<(), String> {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.ndjson"));
        self.tracer
            .write(&path, &self.metrics)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        Ok(())
    }
}

/// Peak resident memory of this process (`VmHWM`, Linux), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
