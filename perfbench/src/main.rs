//! End-to-end and per-layer benchmark of the xpipes Lite simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fabric_4x4|campaign_cold|service_warm> --seed <n> \
//!     --seconds <s> --trace <0|1> [--pad-workload <name>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that times calls into each crate from this package and
//! reports the per-layer metrics. Either way the last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Every output the
//! workload produces is checked, and each failed check counts in `failed`.
//!
//! `--pad-workload <name>` is the sensitivity self-check: it busy-waits inside
//! the timing wrapper of the named workload so its timed windows read 20%
//! longer. It never changes what the program computes.
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod campaign;
mod fabric;
mod host;
mod report;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// Every workload, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["fabric_4x4", "campaign_cold", "service_warm"];

/// Share by which `--pad-workload` lengthens each timed window.
const PAD_SHARE: f64 = 0.2;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pad_workload: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pad_workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed takes an unsigned integer, got {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds takes a number, got {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--pad-workload" => pad_workload = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    for name in std::iter::once(&workload).chain(pad_workload.as_ref()) {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload {name}; expected one of {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        pad_workload,
    })
}

#[derive(Clone, Copy)]
/// What every workload runner gets: its derived seed, the measuring budget,
/// and the timing wrapper.
pub struct Ctx {
    /// Workload seed, derived from `--seed` and the workload name.
    pub seed: u64,
    /// How long the measured loop runs.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Extra share busy-waited at the end of every timed window.
    pad: f64,
}

impl Ctx {
    /// Runs `f` as one timed window (padded when the sensitivity self-check
    /// targets this workload), then measures the host's speed.
    pub fn window<R>(&self, f: impl FnOnce() -> R) -> (R, Window) {
        let start = Instant::now();
        let out = f();
        if self.pad > 0.0 {
            let until = start.elapsed().mul_f64(1.0 + self.pad);
            while start.elapsed() < until {
                std::hint::spin_loop();
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        (
            out,
            Window {
                wall_s,
                scale: host::scale(),
            },
        )
    }
}

/// A timed window's wall time and a sample of the host-speed scale taken
/// right after it. A run rescales its end-to-end times by the median
/// sample (see [`host`]).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub scale: f64,
}

/// SplitMix64 finalizer: spreads `--seed` and a workload tag into one
/// well-mixed 64-bit workload seed.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut z = tag
        .bytes()
        .fold(seed ^ 0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: derive_seed(args.seed, &args.workload),
        budget: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        pad: if args.pad_workload.as_deref() == Some(args.workload.as_str()) {
            PAD_SHARE
        } else {
            0.0
        },
    };
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "fabric_4x4" => fabric::run(&ctx),
        "campaign_cold" => campaign::run(&ctx),
        "service_warm" => service::run(&ctx),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    match result {
        Ok(outcome) => {
            if args.trace {
                if let Err(e) = outcome.write_spans(&args.workload, args.seed) {
                    eprintln!("perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
