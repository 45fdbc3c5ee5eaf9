//! The worker side of the campaign service: pull a grid point, compute
//! it, ship the result back as an `XPSN` container.
//!
//! Workers are stateless between points — everything a point needs
//! travels with the assignment (the canonical spec wire form plus, for
//! warm-started campaigns, the shared `XPSN` warm checkpoint blob).
//! That is what makes reassignment after a kill trivial: any worker can
//! recompute any point and produce byte-identical results.
//!
//! The distribution boundary is defensive: a truncated or bit-flipped
//! warm checkpoint, an out-of-range point index, or a malformed spec is
//! rejected with a one-line reason (never a panic), and the server
//! reschedules the point elsewhere.

use std::net::TcpStream;

use xpipes_sim::Json;
use xpipes_traffic::faultcampaign::{campaign_spec, run_grid_point, CompletedPoint, WarmStart};

use crate::proto::{self, ProtoError};
use crate::spec::CampaignSpec;

/// One unit of distributed work, as decoded off the wire.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Server-side campaign id (echoed back with the result).
    pub campaign: u64,
    /// Grid point index to compute.
    pub point: u64,
    /// The campaign this point belongs to.
    pub spec: CampaignSpec,
    /// Warm checkpoint container for warm-started campaigns.
    pub warm: Option<Vec<u8>>,
}

/// Computes one assignment. This is the exact function a killed
/// worker's replacement re-executes — a pure function of the
/// assignment, so reassignment cannot perturb the merged report.
///
/// # Errors
///
/// One line describing why the assignment is unusable: a damaged warm
/// checkpoint (integrity hash, truncation, trailing bytes — all caught
/// by the `XPSN` reader), an out-of-range point, or a failed run.
pub fn execute(assignment: &Assignment) -> Result<CompletedPoint, String> {
    let cfg = assignment.spec.config();
    let grid = assignment.spec.grid();
    if assignment.point >= grid {
        return Err(format!(
            "grid point {} out of range ({grid} points)",
            assignment.point
        ));
    }
    let warm = match &assignment.warm {
        None => None,
        Some(bytes) => Some(
            WarmStart::from_bytes(bytes).map_err(|e| format!("damaged warm checkpoint: {e}"))?,
        ),
    };
    run_grid_point(
        &campaign_spec(),
        &assignment.spec.faults,
        &cfg,
        assignment.point,
        warm.as_ref(),
    )
    .map_err(|e| format!("grid point {} failed: {e}", assignment.point))
}

/// Decodes a `work` message (and its optional warm blob) into an
/// [`Assignment`].
///
/// # Errors
///
/// A one-line message for malformed work messages or a broken stream.
pub fn decode_work(msg: &Json, stream: &mut TcpStream) -> Result<Assignment, String> {
    let campaign = msg
        .get("campaign")
        .and_then(Json::as_u64)
        .ok_or("work message carries no campaign id")?;
    let point = msg
        .get("point")
        .and_then(Json::as_u64)
        .ok_or("work message carries no point index")?;
    let spec = CampaignSpec::from_json(msg.get("spec").ok_or("work message carries no spec")?)?;
    let warm = if matches!(msg.get("warm"), Some(Json::Bool(true))) {
        Some(proto::read_blob(stream).map_err(|e| e.to_string())?)
    } else {
        None
    };
    Ok(Assignment {
        campaign,
        point,
        spec,
        warm,
    })
}

/// Runs the worker loop against a server: register, then poll/compute/
/// report until the server says shutdown or the connection closes.
///
/// # Errors
///
/// One line for connection or protocol failures; a server-initiated
/// shutdown or clean close is `Ok`.
pub fn run_worker(addr: &str) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // Request/reply traffic of small frames: never wait on Nagle.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot configure connection to {addr}: {e}"))?;
    proto::write_json(&mut stream, &proto::msg("worker").build()).map_err(|e| e.to_string())?;
    let hello = proto::read_json(&mut stream).map_err(|e| e.to_string())?;
    if proto::msg_type(&hello) != "ok" {
        return Err(format!(
            "server refused registration: {}",
            hello.render_compact()
        ));
    }
    loop {
        proto::write_json(&mut stream, &proto::msg("poll").build()).map_err(|e| e.to_string())?;
        let msg = match proto::read_json(&mut stream) {
            Ok(msg) => msg,
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        };
        match proto::msg_type(&msg) {
            "shutdown" => return Ok(()),
            "work" => {
                let (campaign, point) = (
                    msg.get("campaign").and_then(Json::as_u64).unwrap_or(0),
                    msg.get("point").and_then(Json::as_u64).unwrap_or(0),
                );
                let outcome = decode_work(&msg, &mut stream).and_then(|a| execute(&a));
                match outcome {
                    Ok(done) => {
                        let reply = proto::msg("result")
                            .field("campaign", Json::UInt(campaign))
                            .field("point", Json::UInt(point))
                            .build();
                        proto::write_json(&mut stream, &reply).map_err(|e| e.to_string())?;
                        proto::write_blob(&mut stream, &done.to_bytes())
                            .map_err(|e| e.to_string())?;
                    }
                    Err(reason) => {
                        eprintln!("worker: rejecting point {point}: {reason}");
                        let reply = proto::msg("reject")
                            .field("campaign", Json::UInt(campaign))
                            .field("point", Json::UInt(point))
                            .field("reason", Json::str(reason))
                            .build();
                        proto::write_json(&mut stream, &reply).map_err(|e| e.to_string())?;
                    }
                }
            }
            other => return Err(format!("unexpected message '{other}' while polling")),
        }
    }
}
