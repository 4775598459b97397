//! Integration tests driving the `mep` binary end to end: exit status
//! discipline (nonzero + one-line stderr reason on failure) and the
//! telemetry surface (`--trace-out`, `--metrics`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn mep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mep"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mep_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A syntactically valid Bookshelf benchmark whose cells are all fixed —
/// the pipeline must reject it with a typed error, not a panic.
fn write_degenerate_circuit(dir: &Path) -> PathBuf {
    let aux = dir.join("dead.aux");
    std::fs::write(
        &aux,
        "RowBasedPlacement : dead.nodes dead.nets dead.pl dead.scl\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("dead.nodes"),
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 2\n  a 1 1 terminal\n  b 1 1 terminal\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("dead.nets"),
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n  a I : 0 0\n  b I : 0 0\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("dead.pl"),
        "UCLA pl 1.0\na 0 0 : N /FIXED\nb 3 0 : N /FIXED\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("dead.scl"),
        "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 1\n \
         Sitewidth : 1 Sitespacing : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n",
    )
    .unwrap();
    aux
}

#[test]
fn degenerate_input_exits_nonzero_with_reason_on_stderr() {
    let dir = temp_dir("degenerate");
    let aux = write_degenerate_circuit(&dir);
    let out = mep()
        .args(["place", aux.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "all-fixed input must fail, stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let reason: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(
        reason.len(),
        1,
        "exactly one one-line reason on stderr, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_circuit_exits_nonzero() {
    let out = mep()
        .args(["place", "no_such_benchmark"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn bench_list_names_every_builtin() {
    let out = mep().arg("bench-list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in [
        "smoke",
        "smoke_regions",
        "smoke_clustered",
        "newblue6",
        "peko_600",
    ] {
        assert!(listed.contains(&name), "{name} missing:\n{stdout}");
    }
    let builtins = moreau_placer::netlist::synth::builtins();
    assert_eq!(
        listed.len(),
        builtins.len(),
        "one row per builtin:\n{stdout}"
    );
}

#[test]
fn gen_writes_a_builtin_that_read_aux_loads() {
    use moreau_placer::netlist::{bookshelf, synth};
    let dir = temp_dir("gen");
    let out = mep()
        .args(["gen", "smoke", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = bookshelf::read_aux(dir.join("smoke.aux"), 1.0).expect("written circuit loads");
    let want = synth::generate(&synth::smoke_spec()).design.netlist;
    let got = &read.design.netlist;
    assert_eq!(
        (
            got.num_movable(),
            got.num_fixed(),
            got.num_nets(),
            got.num_pins()
        ),
        (
            want.num_movable(),
            want.num_fixed(),
            want.num_nets(),
            want.num_pins()
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparseable_bookshelf_exits_nonzero_with_line_context() {
    let dir = temp_dir("corrupt");
    let aux = write_degenerate_circuit(&dir);
    // corrupt the .nets file mid-net
    std::fs::write(
        dir.join("dead.nets"),
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n  a I : 0 0\n",
    )
    .unwrap();
    let out = mep()
        .args(["place", aux.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_and_metrics_on_a_synthetic_circuit() {
    let dir = temp_dir("trace");
    let trace = dir.join("run.jsonl");
    let out = mep()
        .args([
            "place",
            "smoke",
            "--iters",
            "300",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smoke run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // one JSONL record per global iteration, carrying the schema fields
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let iters: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("iters "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("stdout reports iteration count");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), iters, "one record per iteration");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"iter\":{i},")),
            "line {i}: {line}"
        );
        for field in [
            "\"objective\":",
            "\"hpwl\":",
            "\"overflow\":",
            "\"lambda\":",
            "\"smoothing\":",
            "\"step\":",
            "\"grad_norm\":",
            "\"guard\":",
            "\"elapsed_secs\":",
        ] {
            assert!(line.contains(field), "line {i} missing {field}: {line}");
        }
    }

    // --metrics prints the end-of-run report with stage timings
    for name in [
        "flow.model",
        "gp.hpwl",
        "gp.rt_seconds",
        "engine.wl_grad.count",
        "lg.displacement_rows",
        "dp.swaps.accepted",
        "flow.termination",
    ] {
        assert!(
            stdout.contains(name),
            "missing metric `{name}` in:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multilevel_flag_reports_level_schedule_and_ml_metrics() {
    let dir = temp_dir("multilevel");
    let trace = dir.join("ml.jsonl");
    let out = mep()
        .args([
            "place",
            "smoke_clustered",
            "--levels",
            "2",
            "--iters",
            "250",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "multilevel run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // level schedule narrated on stderr, coarsest first
    assert!(
        stderr.contains("level 1:"),
        "missing coarse level:\n{stderr}"
    );
    assert!(
        stderr.contains("level 0:"),
        "missing finest level:\n{stderr}"
    );
    // ml.* metrics in the merged report
    for name in ["ml.levels", "ml.level1.hpwl", "ml.level0.hpwl"] {
        assert!(stdout.contains(name), "missing `{name}` in:\n{stdout}");
    }
    // the trace carries records from both levels with stage labels, and
    // the count printed is the file's
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let written = format!("wrote {} trace records", text.lines().count());
    assert!(stderr.contains(&written), "want `{written}` in:\n{stderr}");
    assert!(
        text.lines()
            .any(|l| l.contains("\"level\":1") && l.contains("\"stage\":\"coarse\"")),
        "no coarse-level records in trace"
    );
    assert!(
        text.lines()
            .any(|l| l.contains("\"level\":0") && l.contains("\"stage\":\"final\"")),
        "no finest-level records in trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eco_flag_freezes_cells_outside_the_window() {
    let dir = temp_dir("eco");
    // place once and write the result, then ECO-re-place a corner window
    let out_dir = dir.join("placed");
    let out = mep()
        .args([
            "place",
            "smoke_clustered",
            "--iters",
            "250",
            "--out",
            out_dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "seed placement failed");
    let aux = out_dir.join("smoke_clustered.aux");
    let before = std::fs::read_to_string(out_dir.join("smoke_clustered.pl")).unwrap();
    let eco = mep()
        .args([
            "place",
            aux.to_str().unwrap(),
            "--eco",
            "0,0,30,30",
            "--iters",
            "150",
            "--out",
            dir.join("eco_out").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&eco.stdout);
    let stderr = String::from_utf8_lossy(&eco.stderr);
    assert!(
        eco.status.success(),
        "ECO run failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("replaced") && stdout.contains("frozen"),
        "ECO summary missing:\n{stdout}"
    );
    let after = std::fs::read_to_string(dir.join("eco_out/smoke_clustered.pl")).unwrap();
    // textual .pl coordinates of cells outside the window must be identical
    let parse = |text: &str| -> Vec<(String, f64, f64)> {
        text.lines()
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                let name = it.next()?.to_string();
                let x: f64 = it.next()?.parse().ok()?;
                let y: f64 = it.next()?.parse().ok()?;
                Some((name, x, y))
            })
            .collect()
    };
    let (b, a) = (parse(&before), parse(&after));
    assert_eq!(b.len(), a.len());
    let mut frozen_identical = 0;
    for ((name_b, xb, yb), (name_a, xa, ya)) in b.iter().zip(&a) {
        assert_eq!(name_b, name_a);
        // outside a generous window bound ⇒ must be untouched
        if *xb > 35.0 || *yb > 35.0 {
            assert_eq!(xb.to_bits(), xa.to_bits(), "{name_b} moved in x");
            assert_eq!(yb.to_bits(), ya.to_bits(), "{name_b} moved in y");
            frozen_identical += 1;
        }
    }
    assert!(frozen_identical > 0, "window must leave some cells frozen");
    std::fs::remove_dir_all(&dir).ok();
}

/// The job events among a daemon's JSONL frames, decoded back into
/// `mep_serve::Event`s so that `job_grammar` can judge a transport's output
/// as it judges a `CollectSink`'s: `accepted`, `iter`, `done` and `failed`
/// frames become events of their `id`; connection replies (`metrics`,
/// `cancel_ack`, `error`, `shutdown_complete`) are no job's events and are
/// skipped. The grammar reads kinds and ids only, so payloads are left
/// empty.
fn job_events(frames: &[mep_serve::JsonValue]) -> Vec<mep_serve::Event> {
    use mep_serve::{Event, JobError, JobSummary, JsonValue};
    let mut events = Vec::new();
    for frame in frames {
        let id = || {
            let id = frame.get("id").and_then(JsonValue::as_u64);
            id.unwrap_or_else(|| panic!("job frame without an id: {frame:?}"))
        };
        events.push(match frame.get("event").and_then(JsonValue::as_str) {
            Some("accepted") => Event::Accepted {
                id: id(),
                queue_depth: 0,
            },
            Some("iter") => Event::Iter {
                id: id(),
                record_json: String::new(),
            },
            Some("done") => Event::Done {
                id: id(),
                summary: JobSummary {
                    termination: moreau_placer::placer::Termination::Converged,
                    hpwl: 0.0,
                    iterations: 0,
                    overflow: 0.0,
                    placement_hash: 0,
                    elapsed_ms: 0,
                },
            },
            Some("failed") => Event::Failed {
                id: id(),
                error: JobError::Placer {
                    detail: String::new(),
                },
            },
            _ => continue,
        });
    }
    events
}

#[test]
fn serve_stdio_smoke_streams_valid_jsonl_for_a_mixed_batch() {
    // 20 jobs — 16 clean, 2 with injected NaN faults, 2 that get
    // cancelled — plus hostile frames, a metrics probe, and a shutdown.
    // The daemon must exit cleanly with every stdout line valid JSONL and
    // every job typed-terminal.
    use mep_serve::{parse_json, JsonValue};
    use std::io::Write as _;

    let mut input = String::new();
    for id in 1..=20u64 {
        let extra = match id {
            5 | 15 => ",\"fault_injection\":[5,2]",
            _ => "",
        };
        input.push_str(&format!(
            "{{\"op\":\"place\",\"id\":{id},\"circuit\":\"smoke\",\"max_iters\":{}{extra}}}\n",
            20 + (id % 3) * 10,
        ));
    }
    // cancel two mid-batch jobs (they may be queued or already running)
    input.push_str("{\"op\":\"cancel\",\"id\":18}\n{\"op\":\"cancel\",\"id\":20}\n");
    // hostile frames must produce error events, not kill the stream
    input.push_str("this is not json\n{\"op\":\"wat\"}\n");
    input.push_str("{\"op\":\"metrics\"}\n{\"op\":\"shutdown\"}\n");

    let mut child = mep()
        .args(["serve", "--stdio", "--workers", "2", "--queue", "32"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("daemon exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "daemon must exit cleanly\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let frames: Vec<JsonValue> = stdout
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("invalid JSONL {l:?}: {e}")))
        .collect();
    let kind = |f: &JsonValue| {
        f.get("event")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let accepted = frames.iter().filter(|f| kind(f) == "accepted").count();
    assert_eq!(accepted, 20, "all 20 jobs admitted:\n{stdout}");
    // every job reaches exactly one terminal frame, and none failed —
    // faulted jobs recover via the guard, cancelled jobs land as partials
    for id in 1..=20u64 {
        let terminals = frames
            .iter()
            .filter(|f| {
                matches!(kind(f).as_str(), "done" | "failed")
                    && f.get("id").and_then(JsonValue::as_u64) == Some(id)
            })
            .count();
        assert_eq!(terminals, 1, "job {id} terminal frames:\n{stdout}");
    }
    assert!(
        !frames.iter().any(|f| kind(f) == "failed"),
        "no job in this batch may fail:\n{stdout}"
    );
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "error").count(),
        2,
        "two hostile frames, two error events:\n{stdout}"
    );
    assert_eq!(
        frames.iter().filter(|f| kind(f) == "cancel_ack").count(),
        2,
        "both cancels acknowledged:\n{stdout}"
    );
    assert!(frames.iter().any(|f| kind(f) == "metrics"));
    assert_eq!(
        kind(frames.last().expect("nonempty output")),
        "shutdown_complete",
        "shutdown must be the final frame:\n{stdout}"
    );
    let verdict = mep_serve::job_grammar(&job_events(&frames), true);
    assert!(verdict.is_ok(), "{verdict:?}:\n{stdout}");
}

/// One line-protocol connection to a `mep serve --tcp` daemon.
struct Client {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
    /// Every frame received so far.
    frames: Vec<mep_serve::JsonValue>,
}

impl Client {
    fn connect(port: u16) -> Self {
        let writer = std::net::TcpStream::connect(("127.0.0.1", port)).expect("daemon accepts");
        writer
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let reader = std::io::BufReader::new(writer.try_clone().unwrap());
        Self {
            reader,
            writer,
            frames: Vec::new(),
        }
    }

    fn send(&mut self, frame: &str) {
        use std::io::Write as _;
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .unwrap();
    }

    /// The next event frame and its `event` name.
    fn recv(&mut self) -> (mep_serve::JsonValue, String) {
        use std::io::BufRead as _;
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("an event line");
        let frame = mep_serve::parse_json(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        let event = frame.get("event").and_then(|e| e.as_str()).unwrap_or("?");
        let event = event.to_string();
        self.frames.push(frame.clone());
        (frame, event)
    }
}

/// Kills the daemon if the test fails before it exits.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_tcp_serves_each_connection_and_exits_on_shutdown() {
    use std::io::{BufRead as _, Write as _};
    use std::time::{Duration, Instant};
    let place = r#"{"op":"place","id":1,"circuit":"smoke","max_iters":30}"#;
    let hash = |frame: &mep_serve::JsonValue| {
        let hash = frame.get("placement_hash").and_then(|h| h.as_str());
        hash.expect("done carries placement_hash").to_string()
    };
    // the stdio transport's answer to the same request is the reference
    let mut stdio = mep()
        .args(["serve", "--stdio", "--workers", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    let mut stdin = stdio.stdin.take().expect("stdin piped");
    writeln!(stdin, "{place}\n{{\"op\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let out = stdio.wait_with_output().expect("daemon exits");
    let done = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| mep_serve::parse_json(l).unwrap())
        .find(|f| f.get("event").and_then(|e| e.as_str()) == Some("done"))
        .expect("stdio run completes the job");
    let reference = hash(&done);

    // an unspecified address takes the loopback wake path
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let mut daemon = Daemon(
            mep()
                .args(["serve", "--tcp", bind, "--workers", "2"])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("daemon starts"),
        );
        let mut line = String::new();
        std::io::BufReader::new(daemon.0.stderr.as_mut().expect("stderr piped"))
            .read_line(&mut line)
            .unwrap();
        let port: u16 = line
            .trim()
            .strip_prefix("mep serve: listening on ")
            .and_then(|addr| addr.rsplit(':').next())
            .and_then(|port| port.parse().ok())
            .unwrap_or_else(|| panic!("{bind}: no listening line: {line:?}"));

        let mut clients = [Client::connect(port), Client::connect(port)];
        for client in &mut clients {
            client.send(r#"{"op":"metrics"}"#);
            assert_eq!(client.recv().1, "metrics", "{bind}");
        }
        let [mut a, b] = clients;
        a.send(place);
        assert_eq!(a.recv().1, "accepted", "{bind}");
        let (done, event) = a.recv();
        assert_eq!(event, "done", "{bind}");
        assert_eq!(hash(&done), reference, "{bind}: same bits as stdio");
        let verdict = mep_serve::job_grammar(&job_events(&a.frames), true);
        assert!(verdict.is_ok(), "{bind}: {verdict:?}");
        drop((a, b));

        let mut c = Client::connect(port);
        c.send(r#"{"op":"shutdown"}"#);
        assert_eq!(c.recv().1, "shutdown_complete", "{bind}");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = daemon.0.try_wait().unwrap() {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "{bind}: no exit 10 s after shutdown"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(status.success(), "{bind}: {status}");
    }
}

#[test]
fn serve_tcp_drain_ends_idle_connections() {
    use std::io::BufRead as _;
    use std::time::{Duration, Instant};
    let mut daemon = Daemon(
        mep()
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "1"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("daemon starts"),
    );
    let mut line = String::new();
    std::io::BufReader::new(daemon.0.stderr.as_mut().expect("stderr piped"))
        .read_line(&mut line)
        .unwrap();
    let port: u16 = line
        .trim()
        .rsplit(':')
        .next()
        .and_then(|port| port.parse().ok())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"));

    // one client that connected, was served, and then only holds its socket
    let mut idle = Client::connect(port);
    idle.send(r#"{"op":"metrics"}"#);
    assert_eq!(idle.recv().1, "metrics");
    let mut c = Client::connect(port);
    c.send(r#"{"op":"shutdown"}"#);
    assert_eq!(c.recv().1, "shutdown_complete");
    let deadline = Instant::now() + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "an idle connection holds the daemon 1 s after shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "{status}");
    drop(idle);
}

#[test]
fn bad_eco_window_exits_nonzero() {
    // an inverted window; and a valid one next to a flow it would have
    // silently replaced (`--eco` used to win and exit 0)
    for args in [&["10,10,5,5"][..], &["0,0,30,30", "--levels", "2"]] {
        let out = mep()
            .args(["place", "smoke", "--eco"])
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

#[test]
fn unparseable_threads_and_density_exit_nonzero() {
    // like every other numeric flag: no silent fallback to the default;
    // and a removed flag is no flag at all, whatever its value
    let flags: [&[&str]; 4] = [
        &["--density", "abc"],
        &["--threads", "2"],
        &["--warm-start"],
        &["--quadratic-init"],
    ];
    for flag in flags {
        let out = mep()
            .args(["place", "smoke", "--iters", "1"])
            .args(flag)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{flag:?}"
        );
    }
}

#[test]
fn density_flag_sets_the_target_density_of_a_builtin() {
    // a built-in used to keep its spec's target density whatever the flag
    // said: the same GPWL and overflow with and without `--density 0.5`
    let report = |density: &[&str]| {
        let out = mep()
            .args(["place", "smoke", "--iters", "60"])
            .args(density)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{density:?}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let lines = stdout.lines();
        let gp: Vec<&str> = lines
            .filter(|l| l.starts_with("GPWL") || l.starts_with("iters"))
            .collect();
        assert_eq!(gp.len(), 2, "{stdout}");
        gp.join("\n")
    };
    let default = report(&[]);
    assert_ne!(report(&["--density", "0.5"]), default);
    // out of (0, 1], as for a Bookshelf design: an error, not a silent run
    let out = mep()
        .args(["place", "smoke", "--iters", "1", "--density", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: target density 3"));
}

#[test]
fn path_flag_missing_its_value_exits_with_usage() {
    // a trailing `--out` used to mean "no output requested": exit 0,
    // nothing written
    for flag in ["--out", "--lef", "--trace-out"] {
        let out = mep()
            .args(["place", "smoke", "--iters", "1", flag])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{flag}"
        );
    }
}

#[test]
fn mep_threads_env_is_not_read() {
    // no thread knob is left: a value that used to be warned about
    // changes nothing and is not mentioned
    let out = mep()
        .args(["place", "smoke", "--iters", "1"])
        .env("MEP_THREADS", "four")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr:\n{stderr}");
    assert!(!stderr.contains("warning"), "stderr:\n{stderr}");
    assert!(!stderr.contains("MEP_THREADS"), "stderr:\n{stderr}");
}

#[test]
fn stats_reads_a_def_design_against_its_lef() {
    let fixture = |name: &str| format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let (def, lef) = (fixture("sample.def"), fixture("sample.lef"));
    let out = mep()
        .args(["stats", &def, "--lef", &lef])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    for line in [
        "circuit     : ring",
        "rows        : 10",
        "movable     : 60",
        "fixed       : 2",
        "nets        : 61",
        "pins        : 122",
    ] {
        assert!(stdout.lines().any(|l| l == line), "{line}\n{stdout}");
    }
    // a DEF names macros only the LEF defines
    let out = mep().args(["stats", &def]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs --lef"));
}

#[test]
fn every_subcommand_exits_2_on_an_unknown_flag_or_stray_argument() {
    let dir = temp_dir("stray");
    let gen_dir = dir.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["stats", "smoke", "--bogus"],
        &["stats", "smoke", "--lef"],
        &["gen", "smoke", gen_dir, "extra"],
        &["bench-list", "--bogus"],
    ];
    for args in cases {
        let out = mep().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
