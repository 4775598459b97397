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
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Decodes a `place` frame into a [`JobRequest`]. Every malformed field is
/// a typed `Err` naming the field.
pub fn decode_place(v: &JsonValue) -> Result<(u64, JobRequest), String> {
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("place needs a non-negative integer \"id\"")?;
    let circuit = CircuitSource::from_json(v.get("circuit").ok_or("place needs \"circuit\"")?)?;
    let model = match v.get("model") {
        None | Some(JsonValue::Null) => None,
        Some(m) => Some(m.as_str().ok_or("\"model\" must be a string")?.to_string()),
    };
    let max_iters = match v.get("max_iters") {
        None | Some(JsonValue::Null) => None,
        Some(n) => Some(
            n.as_u64()
                .ok_or("\"max_iters\" must be a non-negative integer")? as usize,
        ),
    };
    let levels = match v.get("levels") {
        None | Some(JsonValue::Null) => 1,
        Some(n) => n
            .as_u64()
            .filter(|&l| (1..=8).contains(&l))
            .ok_or("\"levels\" must be an integer in 1..=8")? as usize,
    };
    let budget = match v.get("budget_ms") {
        None | Some(JsonValue::Null) => None,
        Some(n) => Some(Duration::from_millis(
            n.as_u64()
                .ok_or("\"budget_ms\" must be a non-negative integer")?,
        )),
    };
    let trace = match v.get("trace") {
        None | Some(JsonValue::Null) => false,
        Some(b) => b.as_bool().ok_or("\"trace\" must be a boolean")?,
    };
    let fault_injection = match v.get("fault_injection") {
        None | Some(JsonValue::Null) => None,
        Some(JsonValue::Arr(items)) => match items.as_slice() {
            [a, c] => match (a.as_u64(), c.as_u64()) {
                (Some(after), Some(count)) => Some((after, count)),
                _ => return Err("\"fault_injection\" must be [after, count]".to_string()),
            },
            _ => return Err("\"fault_injection\" must be [after, count]".to_string()),
        },
        Some(_) => return Err("\"fault_injection\" must be [after, count]".to_string()),
    };
    let chaos = match v.get("chaos") {
        None | Some(JsonValue::Null) => None,
        Some(c) => match c.as_str() {
            Some("panic_before") => Some(ChaosMode::PanicBefore),
            Some(_) | None => match c.get("panic_mid").and_then(JsonValue::as_u64) {
                Some(n) => Some(ChaosMode::PanicMid(n)),
                None => {
                    return Err(
                        "\"chaos\" must be \"panic_before\" or {\"panic_mid\": N}".to_string()
                    )
                }
            },
        },
    };
    Ok((
        id,
        JobRequest {
            circuit,
            model,
            max_iters,
            levels,
            budget,
            trace,
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
/// client sends `shutdown`. Returns an error string if the listener
/// cannot be set up.
pub fn serve_tcp(server: Arc<Server>, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    eprintln!("mep serve: listening on {local}");
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let reader = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let handle = std::thread::Builder::new()
                    .name("mep-serve-conn".to_string())
                    .spawn(move || {
                        let writer: Arc<Mutex<Box<dyn Write + Send>>> =
                            Arc::new(Mutex::new(Box::new(stream)));
                        if serve_connection(&server, BufReader::new(reader), writer) {
                            stop.store(true, Ordering::Release);
                        }
                    });
                if let Ok(h) = handle {
                    handles.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    for h in handles {
        let _ = h.join();
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
        for bad in [
            r#"{"op":"place","circuit":"smoke"}"#,
            r#"{"op":"place","id":-1,"circuit":"smoke"}"#,
            r#"{"op":"place","id":1}"#,
            r#"{"op":"place","id":1,"circuit":"smoke","levels":0}"#,
            r#"{"op":"place","id":1,"circuit":"smoke","levels":99}"#,
            r#"{"op":"place","id":1,"circuit":"smoke","fault_injection":[1]}"#,
            r#"{"op":"place","id":1,"circuit":"smoke","chaos":"explode"}"#,
            r#"{"op":"place","id":1,"circuit":"smoke","max_iters":"lots"}"#,
        ] {
            let v = parse_json(bad).unwrap();
            assert!(decode_place(&v).is_err(), "{bad} must be rejected");
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
