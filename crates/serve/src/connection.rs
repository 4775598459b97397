//! The JSONL line protocol: one request per line in, one event per line
//! out. Transports: stdin/stdout and TCP.
//!
//! # Protocol
//!
//! Requests (client → server), one JSON object per line:
//!
//! ```text
//! {"op":"place","id":1,"circuit":"smoke","model":"moreau","max_iters":200,
//!  "levels":1,"budget_ms":5000,"trace":false}
//! {"op":"cancel","id":1}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `model` takes every name `mep place --model` does
//! (`ModelKind::from_name`: `ours`/`moreau`/`me`, `wa`, `lse`,
//! `big`/`big_chks`/`chks`, `hpwl`, case-insensitive; absent = Moreau); an
//! unknown name fails the job with a typed `load` error.
//!
//! Responses (server → client) are [`Event`] frames; job events stream
//! asynchronously as workers progress, interleaved across jobs (every
//! frame carries its job `id`). Malformed frames get an `error` event and
//! the connection stays open — one bad client line must never take down
//! the stream, let alone the daemon.

use crate::events::{Event, EventSink, WriterSink};
use crate::job::{ChaosMode, CircuitSource, JobRequest};
use crate::parse::{parse_json, JsonValue};
use crate::server::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The optional field `name` of `frame`, as `read` sees it: `None` when
/// absent or `null`, `Err("\"<name>\" must be <what>")` when `read` refuses
/// the value.
fn field<T>(
    frame: &JsonValue,
    name: &str,
    what: &str,
    read: impl FnOnce(&JsonValue) -> Option<T>,
) -> Result<Option<T>, String> {
    match frame.get(name) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("\"{name}\" must be {what}")),
    }
}

/// Decodes a `place` frame into a [`JobRequest`]. Every malformed field is
/// a typed `Err` naming the field.
pub fn decode_place(v: &JsonValue) -> Result<(u64, JobRequest), String> {
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("place needs a non-negative integer \"id\"")?;
    let circuit = CircuitSource::from_json(v.get("circuit").ok_or("place needs \"circuit\"")?)?;
    let count = "a non-negative integer";
    let model = field(v, "model", "a string", |m| m.as_str().map(str::to_string))?;
    let max_iters = field(v, "max_iters", count, JsonValue::as_u64)?.map(|n| n as usize);
    let levels = field(v, "levels", "an integer in 1..=8", |n| {
        n.as_u64().filter(|l| (1..=8).contains(l))
    })?;
    let budget = field(v, "budget_ms", count, JsonValue::as_u64)?.map(Duration::from_millis);
    let trace = field(v, "trace", "a boolean", JsonValue::as_bool)?;
    let fault_injection = field(v, "fault_injection", "[after, count]", |f| {
        match f.as_arr()? {
            [after, count] => after.as_u64().zip(count.as_u64()),
            _ => None,
        }
    })?;
    let chaos = field(
        v,
        "chaos",
        "\"panic_before\" or {\"panic_mid\": N}",
        |c| match c.as_str() {
            Some("panic_before") => Some(ChaosMode::PanicBefore),
            _ => c.get("panic_mid")?.as_u64().map(ChaosMode::PanicMid),
        },
    )?;
    Ok((
        id,
        JobRequest {
            circuit,
            model,
            max_iters,
            levels: levels.map_or(1, |l| l as usize),
            budget,
            trace: trace.unwrap_or(false),
            fault_injection,
            chaos,
        },
    ))
}

/// Serves one connection: reads JSONL frames from `reader`, writes event
/// frames to `writer` (shared with the job sinks so responses and
/// streamed job events interleave safely). Returns when the client closes
/// the stream or sends `shutdown`; the return value says whether that
/// shutdown was requested (the transport loop uses it to stop accepting).
pub fn serve_connection(
    server: &Server,
    reader: impl BufRead,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
) -> bool {
    let sink: Arc<dyn EventSink> = Arc::new(WriterSink::new(Arc::clone(&writer)));
    for line in reader.lines() {
        let Ok(line) = line else {
            // transport error (client vanished mid-line): drop the
            // connection, jobs already submitted keep running
            return false;
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match parse_json(&line) {
            Ok(v) => v,
            Err(reason) => {
                sink.emit(&Event::ProtocolError { reason });
                continue;
            }
        };
        match frame.get("op").and_then(JsonValue::as_str) {
            Some("place") => match decode_place(&frame) {
                Ok((id, request)) => {
                    // accepted/rejected events are emitted by submit
                    let _ = server.submit(id, request, Arc::clone(&sink));
                }
                Err(reason) => sink.emit(&Event::ProtocolError { reason }),
            },
            Some("cancel") => match frame.get("id").and_then(JsonValue::as_u64) {
                Some(id) => {
                    let status = server.cancel(id);
                    sink.emit(&Event::CancelAck { id, status });
                }
                None => sink.emit(&Event::ProtocolError {
                    reason: "cancel needs a non-negative integer \"id\"".to_string(),
                }),
            },
            Some("metrics") => sink.emit(&Event::Metrics {
                report_json: server.metrics_json(),
            }),
            Some("shutdown") => {
                let drained = server.shutdown_and_drain();
                sink.emit(&Event::ShutdownComplete { drained });
                return true;
            }
            Some(other) => sink.emit(&Event::ProtocolError {
                reason: format!("unknown op {other:?}"),
            }),
            None => sink.emit(&Event::ProtocolError {
                reason: "frame needs a string \"op\"".to_string(),
            }),
        }
    }
    false
}

/// Runs the daemon over stdin/stdout until EOF or a `shutdown` frame.
/// Returns the number of jobs drained if shutdown was explicit.
pub fn serve_stdio(server: &Server) {
    let stdin = std::io::stdin();
    let writer: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let requested_shutdown = serve_connection(server, stdin.lock(), Arc::clone(&writer));
    if !requested_shutdown {
        // EOF without an explicit shutdown frame: drain quietly so every
        // accepted job still reaches its terminal event
        let drained = server.shutdown_and_drain();
        let sink = WriterSink::new(writer);
        sink.emit(&Event::ShutdownComplete { drained });
    }
}

/// Runs the daemon on a TCP listener, one thread per connection, until a
/// client sends `shutdown`. The accept blocks; the connection that ran the
/// drain wakes it with one connect to the listener's own address (the
/// loopback of the same family when bound to an unspecified one). Then the
/// read half of every open connection is shut, so an idle client cannot
/// hold the daemon after `shutdown_complete`; each connection thread ends
/// at that end of input. Connections that closed on their own are reaped
/// at each accept.
/// Returns an error string if the listener cannot be set up.
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let mut wake = listener
        .local_addr()
        .map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("mep serve: listening on {wake}");
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let stop = Arc::new(OnceLock::new());
    // each open connection: its thread, and a handle to shut its reads
    let mut open: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if stop.get().is_some() {
            break;
        }
        open.retain(|(thread, _)| !thread.is_finished());
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        // every event is a small write: Nagle would hold each one back
        // until the client's delayed ACK of the one before
        let _ = stream.set_nodelay(true);
        let (Ok(reader), Ok(control)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mep-serve-conn".to_string())
            .spawn(move || {
                let writer: Arc<Mutex<Box<dyn Write + Send>>> =
                    Arc::new(Mutex::new(Box::new(stream)));
                if serve_connection(&server, BufReader::new(reader), writer) {
                    let _ = stop.set(());
                    if let Err(e) = TcpStream::connect(wake) {
                        eprintln!("mep serve: waking the listener at {wake}: {e}");
                    }
                }
            });
        if let Ok(thread) = handle {
            open.push((thread, control));
        }
    }
    // the drain has run: every job is terminal and its events written
    for (_, control) in &open {
        let _ = control.shutdown(Shutdown::Read);
    }
    for (thread, _) in open {
        let _ = thread.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CollectSink;
    use crate::server::ServerConfig;
    use std::io::Cursor;

    fn collect_lines(bytes: &[u8]) -> Vec<JsonValue> {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect()
    }

    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_session(input: &str) -> Vec<JsonValue> {
        let server = Server::start(ServerConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        });
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer: Arc<Mutex<Box<dyn Write + Send>>> =
            Arc::new(Mutex::new(Box::new(SharedBuf(Arc::clone(&buf)))));
        serve_connection(&server, Cursor::new(input.to_string()), writer);
        server.shutdown_and_drain();
        let bytes = buf.lock().unwrap().clone();
        collect_lines(&bytes)
    }

    #[test]
    fn place_metrics_shutdown_session_is_valid_jsonl() {
        let lines = run_session(concat!(
            "{\"op\":\"place\",\"id\":1,\"circuit\":\"smoke\",\"max_iters\":40}\n",
            "not json at all\n",
            "{\"op\":\"nope\"}\n",
            "{\"op\":\"metrics\"}\n",
            "{\"op\":\"shutdown\"}\n",
        ));
        // every line parses (collect_lines already asserted that); check
        // the shapes we rely on
        let kinds: Vec<_> = lines
            .iter()
            .map(|l| {
                l.get("event")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(kinds.contains(&"accepted".to_string()), "{kinds:?}");
        assert_eq!(
            kinds.iter().filter(|k| *k == "error").count(),
            2,
            "malformed + unknown op: {kinds:?}"
        );
        assert!(kinds.contains(&"metrics".to_string()));
        assert_eq!(kinds.last().map(String::as_str), Some("shutdown_complete"));
        assert!(
            kinds.contains(&"done".to_string()),
            "job must complete during the drain: {kinds:?}"
        );
    }

    #[test]
    fn decode_place_rejects_bad_fields() {
        let id = "place needs a non-negative integer \"id\"";
        let levels = "\"levels\" must be an integer in 1..=8";
        let count = "\"max_iters\" must be a non-negative integer";
        let fault = "\"fault_injection\" must be [after, count]";
        let chaos = "\"chaos\" must be \"panic_before\" or {\"panic_mid\": N}";
        for (bad, reason) in [
            (r#"{"op":"place","circuit":"smoke"}"#, id),
            (r#"{"op":"place","id":-1,"circuit":"smoke"}"#, id),
            (r#"{"op":"place","id":1}"#, "place needs \"circuit\""),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","levels":0}"#,
                levels,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","levels":99}"#,
                levels,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","fault_injection":[1]}"#,
                fault,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","fault_injection":7}"#,
                fault,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","chaos":"explode"}"#,
                chaos,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","chaos":{"panic":3}}"#,
                chaos,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","max_iters":"lots"}"#,
                count,
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","model":7}"#,
                "\"model\" must be a string",
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","budget_ms":"soon"}"#,
                "\"budget_ms\" must be a non-negative integer",
            ),
            (
                r#"{"op":"place","id":1,"circuit":"smoke","trace":1}"#,
                "\"trace\" must be a boolean",
            ),
        ] {
            let v = parse_json(bad).unwrap();
            assert_eq!(
                decode_place(&v).map(|_| ()),
                Err(reason.to_string()),
                "{bad}"
            );
        }
        let v = parse_json(
            r#"{"op":"place","id":3,"circuit":{"scaled":[200,9]},"model":"wa","levels":2,
                "budget_ms":1500,"trace":true,"fault_injection":[5,2],"chaos":{"panic_mid":3}}"#,
        )
        .unwrap();
        let (id, req) = decode_place(&v).unwrap();
        assert_eq!(id, 3);
        assert_eq!(req.levels, 2);
        assert_eq!(req.budget, Some(Duration::from_millis(1500)));
        assert_eq!(req.fault_injection, Some((5, 2)));
        assert_eq!(req.chaos, Some(ChaosMode::PanicMid(3)));
        // `null` is the field's default, as absence is
        let v = parse_json(
            r#"{"op":"place","id":4,"circuit":"smoke","model":null,"max_iters":null,
                "levels":null,"budget_ms":null,"trace":null,"fault_injection":null,
                "chaos":null}"#,
        )
        .unwrap();
        let (_, req) = decode_place(&v).unwrap();
        assert_eq!(
            (req.model, req.max_iters, req.levels, req.budget, req.trace),
            (None, None, 1, None, false)
        );
        assert_eq!((req.fault_injection, req.chaos), (None, None));
    }

    #[test]
    fn cancel_and_duplicate_id_round_trip() {
        let lines = run_session(concat!(
            "{\"op\":\"place\",\"id\":1,\"circuit\":\"smoke\",\"max_iters\":40}\n",
            "{\"op\":\"place\",\"id\":1,\"circuit\":\"smoke\"}\n",
            "{\"op\":\"cancel\",\"id\":1}\n",
            "{\"op\":\"cancel\",\"id\":42}\n",
        ));
        let rejected = lines.iter().any(|l| {
            l.get("event").and_then(JsonValue::as_str) == Some("rejected")
                && l.get("reason").and_then(JsonValue::as_str) == Some("duplicate job id")
        });
        assert!(rejected, "{lines:?}");
        let unknown_ack = lines.iter().any(|l| {
            l.get("event").and_then(JsonValue::as_str) == Some("cancel_ack")
                && l.get("id").and_then(JsonValue::as_u64) == Some(42)
                && l.get("status").and_then(JsonValue::as_str) == Some("unknown-id")
        });
        assert!(unknown_ack, "{lines:?}");
    }

    #[test]
    fn sink_keeps_collecting_after_connection_closes() {
        // a job submitted over a connection that closes immediately must
        // still run to a terminal state (WriterSink swallows the dead pipe)
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        });
        let sink = Arc::new(CollectSink::new());
        let (id, req) = decode_place(
            &parse_json(r#"{"op":"place","id":9,"circuit":"smoke","max_iters":30}"#).unwrap(),
        )
        .unwrap();
        server.submit(id, req, sink.clone()).unwrap();
        assert!(server.wait_job(9));
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, Event::Done { id: 9, .. })));
        server.shutdown_and_drain();
    }
}
