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
