//! TCP plumbing for relays: acknowledged downstream frame ingest and a
//! line-oriented query protocol, both over [`flowdist::framing`]'s
//! length-prefixed framing.
//!
//! ## Query protocol
//!
//! One request frame = one UTF-8 `flowquery` text query (`hhh 0.01 by
//! packets`, `pop src=… sites=1,2`, …). One response frame = a status
//! byte (`0` ok, `1` error) followed by UTF-8 text: on success a
//! `route: …` header line naming the tier that answered (and any
//! uncovered sites), then the rendered table; on error, the message.
//! The connection serves queries until the client closes it.

use crate::plan::{QueryRouter, Route};
use crate::relay::{FrameOutcome, Relay};
use crate::RelayError;
use flowdist::control::{is_control, ControlFrame, FEATURE_ACKS};
use flowdist::framing::{write_frame, FramedConn};
use flowdist::{DistError, Wake};
use flowquery::ast::Query;
use flowtree_core::Metric;
use std::net::TcpStream;
use std::sync::Mutex;

fn io_err(e: std::io::Error) -> RelayError {
    RelayError::Dist(DistError::Io(e))
}

/// Serves one downstream connection with the acknowledged-ingest
/// protocol ([`flowdist::control`]): summary frames are classified by
/// [`Relay::ingest_classified`] and answered per frame — an ack for
/// applied or replayed content, a rebase-request for a delta whose
/// base this relay no longer holds. Every in-tree shipper opens with a
/// hello; control replies are only emitted after it, so a sender that
/// never says hello sees no unexpected frame on what it believes is a
/// one-way stream. Locks the relay per frame, never per connection.
///
/// Returns `(applied, rejected)`: a malformed or violating frame is
/// counted and skipped, not fatal — one bad downstream cannot take the
/// relay down. Replayed frames count as applied (the peer converged,
/// nothing was lost).
pub fn serve_acked_ingest(
    stream: &mut TcpStream,
    relay: &Mutex<Relay>,
) -> Result<(usize, usize), RelayError> {
    serve_acked_ingest_timed(stream, relay, None, None)
}

/// [`serve_acked_ingest`] with an optional tree-update latency
/// histogram: each summary frame's lock-classify-apply is timed (the
/// merge of one downstream frame into the windowed trees — the relay's
/// hot path). Control frames are not timed. `applied`, when given, is
/// rung after every frame that applied (the export scheduler sleeps on
/// it).
pub fn serve_acked_ingest_timed(
    stream: &mut TcpStream,
    relay: &Mutex<Relay>,
    update_hist: Option<&flowmetrics::Histogram>,
    applied: Option<&Wake>,
) -> Result<(usize, usize), RelayError> {
    let (mut applied_frames, mut rejected) = (0usize, 0usize);
    let mut acks_negotiated = false;
    let owned = stream.try_clone().map_err(io_err)?;
    flowdist::framing::serve_framed(owned, |frame| {
        if is_control(&frame) {
            return match ControlFrame::decode(&frame) {
                Ok(ControlFrame::Hello { features }) => {
                    acks_negotiated = features & FEATURE_ACKS != 0;
                    Some(
                        ControlFrame::Hello {
                            features: FEATURE_ACKS,
                        }
                        .encode(),
                    )
                }
                // Acks and rebase-requests flow upstream→downstream;
                // a downstream sending them (or garbage control) is
                // counted and ignored, never fatal.
                Ok(_) | Err(_) => {
                    rejected += 1;
                    None
                }
            };
        }
        let sw = update_hist.map(|_| flowmetrics::Stopwatch::start());
        let outcome = relay.lock().expect("relay lock").ingest_classified(&frame);
        if let (Some(sw), Some(h)) = (sw, update_hist) {
            sw.observe(h);
        }
        if let (FrameOutcome::Applied(_), Some(wake)) = (outcome, applied) {
            wake.notify();
        }
        match outcome {
            FrameOutcome::Applied(pos) | FrameOutcome::Replayed(pos) => {
                applied_frames += 1;
                acks_negotiated.then(|| ControlFrame::Ack(pos).encode())
            }
            FrameOutcome::NeedsRebase(pos) => {
                rejected += 1;
                acks_negotiated.then(|| ControlFrame::RebaseRequest(pos).encode())
            }
            FrameOutcome::Rejected => {
                rejected += 1;
                None
            }
        }
    })
    .map_err(io_err)?;
    Ok((applied_frames, rejected))
}

/// Ships summaries upstream as length-prefixed frames.
pub fn ship_summaries(
    stream: &mut TcpStream,
    summaries: &[flowdist::Summary],
) -> Result<(), RelayError> {
    for s in summaries {
        write_frame(&mut *stream, &s.encode()).map_err(io_err)?;
    }
    Ok(())
}

/// One request frame → one response frame (status byte + text; module
/// docs, "Query protocol"). A daemon serves a connection with
/// [`flowdist::framing::serve_framed`] and takes its relay lock around
/// each call, never for a connection's lifetime (an idle client must
/// not stall ingest or the export scheduler).
pub fn answer_query(router: &QueryRouter<'_>, frame: &[u8]) -> Vec<u8> {
    let fail = |msg: String| {
        let mut out = vec![1u8];
        out.extend_from_slice(msg.as_bytes());
        out
    };
    let Ok(text) = std::str::from_utf8(frame) else {
        return fail("query is not utf-8".into());
    };
    // Relative ranges (`last=1h`) anchor to the newest representable
    // instant: a relay has no wall clock of its own in tests.
    let query = match flowquery::parse(text, u64::MAX - 1) {
        Ok(q) => q,
        Err(e) => return fail(e.to_string()),
    };
    let routed = router.run(&query);
    let mut body = format!("route: {}\n", describe_route(router, &routed.route));
    if !routed.missing.is_empty() {
        body.push_str(&format!("missing: {:?}\n", routed.missing));
    }
    for gap in &routed.missing_windows {
        body.push_str(&format!(
            "missing in window {}ms: {:?}\n",
            gap.window_start_ms, gap.missing
        ));
    }
    body.push_str(&routed.output.render(query_metric(&query)));
    let mut out = vec![0u8];
    out.extend_from_slice(body.as_bytes());
    out
}

/// Sends one text query over an established connection and returns the
/// decoded response: `Ok(body)` on status 0, `Err(message)` on status 1.
pub fn query_remote(
    stream: &mut TcpStream,
    text: &str,
) -> Result<Result<String, String>, RelayError> {
    let mut conn = FramedConn::new(stream.try_clone().map_err(io_err)?).map_err(io_err)?;
    conn.send(text.as_bytes()).map_err(io_err)?;
    let frame = conn
        .recv()
        .map_err(io_err)?
        .ok_or(RelayError::Dist(DistError::BadFrame("connection closed")))?;
    if frame.is_empty() {
        return Err(RelayError::Dist(DistError::BadFrame("empty response")));
    }
    let body = String::from_utf8_lossy(&frame[1..]).into_owned();
    Ok(match frame[0] {
        0 => Ok(body),
        _ => Err(body),
    })
}

fn describe_route(router: &QueryRouter<'_>, route: &Route) -> String {
    let name = |i: &usize| router.relay_name(*i).to_string();
    match route {
        Route::Relay {
            relay,
            via_aggregates,
        } => format!(
            "{}[{}]",
            name(relay),
            if *via_aggregates {
                "aggregated"
            } else {
                "per-site"
            }
        ),
        Route::FanOut { relays } => format!(
            "fan-out({})",
            relays.iter().map(name).collect::<Vec<_>>().join(",")
        ),
        Route::BySite { relays } => format!(
            "bysite({})",
            relays.iter().map(name).collect::<Vec<_>>().join(",")
        ),
    }
}

/// The metric a query ranks by (packets when it does not say).
fn query_metric(q: &Query) -> Metric {
    match q {
        Query::TopK { metric, .. } | Query::Hhh { metric, .. } => *metric,
        _ => Metric::Packets,
    }
}
