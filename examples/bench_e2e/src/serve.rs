//! `serve_mix`: a closed loop of 2 client connections against a child
//! `mep serve` daemon (the shipped binary). Each client sends seeded
//! shuffles of a round of 6 short jobs and submits the next job only after
//! the previous `done`. Many cold jobs: circuit load, problem construction,
//! parse, queue and wire time are a visible share here and nowhere else.

use crate::flow::{replay_trajectory, splitmix, traced_stages};
use crate::metrics::{median, percentile, start_values, Outcome};
use crate::spans::Spans;
use crate::{env, Args};
use mep_serve::{parse_json, CircuitSource, JsonValue};
use moreau_placer::netlist::synth;
use moreau_placer::wirelength::engine::EvalEngine;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One round of the mix, before the per-round shuffle.
const ROUND: [&str; 6] = [
    "smoke",
    "peko_600",
    "ispd19_test2",
    "smoke",
    "peko_600",
    "peko_2400",
];
/// One closed-loop client per core of the 2-core box the bounds were set on.
const CLIENTS: usize = 2;
/// Daemon spawns whose median is `setup_s`.
const SETUP_REPS: usize = 9;

fn max_iters(args: &Args) -> u64 {
    if args.smoke {
        30
    } else {
        600
    }
}

/// A running `mep serve --tcp` child.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
    startup_ms: f64,
}

impl Daemon {
    fn spawn(mep: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let mut child = Command::new(mep)
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "2"])
            .args(["--engine-threads", "1", "--queue", "16"])
            .env_remove("MEP_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mep.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("mep serve: listening on ") {
                        break addr.to_string();
                    }
                    eprint!("[mep serve] {line}");
                }
            }
        };
        let startup_ms = t.elapsed().as_secs_f64() * 1e3;
        // keep draining so the daemon never blocks on a full pipe
        let drain = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("[mep serve] {line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(drain),
            startup_ms,
        })
    }

    /// Asks the daemon to drain and waits until the process has ended.
    fn shut_down(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| {
            c.send("{\"op\":\"shutdown\"}")?;
            c.recv_until(|e| event_is(e, "shutdown_complete"))
                .map(|_| ())
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if asked.is_err() || Instant::now() > deadline => {
                    let _ = self.child.kill();
                    break self.child.wait().map_err(|e| e.to_string())?;
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

/// An error path must not leave the child behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn event_is(e: &JsonValue, kind: &str) -> bool {
    e.get("event").and_then(JsonValue::as_str) == Some(kind)
}

/// One JSONL connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads events until `want` accepts one.
    fn recv_until(&mut self, want: impl Fn(&JsonValue) -> bool) -> Result<JsonValue, String> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {
                    let event = parse_json(line.trim()).map_err(|e| format!("bad event: {e}"))?;
                    if want(&event) {
                        return Ok(event);
                    }
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The daemon's registry, and how long the round trip took.
    fn metrics(&mut self) -> Result<(JsonValue, f64), String> {
        let t = Instant::now();
        self.send("{\"op\":\"metrics\"}")?;
        let event = self.recv_until(|e| event_is(e, "metrics"))?;
        Ok((event, t.elapsed().as_secs_f64() * 1e3))
    }
}

/// What the client saw of one job.
struct Job {
    circuit: &'static str,
    latency_ms: f64,
    /// The `done` event's own clock.
    elapsed_ms: f64,
    hpwl: f64,
    hash: String,
    /// Why the job counts as failed, if it does.
    failure: Option<String>,
}

fn place(client: &mut Client, id: u64, circuit: &'static str, iters: u64, trace: bool) -> Job {
    let t = Instant::now();
    let frame = format!(
        "{{\"op\":\"place\",\"id\":{id},\"circuit\":\"{circuit}\",\"max_iters\":{iters},\"trace\":{trace}}}"
    );
    let terminal = client.send(&frame).and_then(|()| {
        client.recv_until(|e| {
            e.get("id").and_then(JsonValue::as_u64) == Some(id)
                && ["done", "failed", "rejected"]
                    .iter()
                    .any(|k| event_is(e, k))
        })
    });
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut job = Job {
        circuit,
        latency_ms,
        elapsed_ms: 0.0,
        hpwl: f64::NAN,
        hash: String::new(),
        failure: None,
    };
    match terminal {
        Ok(e) if event_is(&e, "done") => {
            let num = |k: &str| e.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            job.elapsed_ms = num("elapsed_ms");
            job.hpwl = num("hpwl");
            job.hash = e
                .get("placement_hash")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            if num("violations") != 0.0 || !job.hpwl.is_finite() {
                job.failure = Some(format!(
                    "violations {} hpwl {}",
                    num("violations"),
                    job.hpwl
                ));
            }
        }
        Ok(e) => job.failure = Some(format!("{e:?}")),
        Err(e) => job.failure = Some(e),
    }
    job
}

/// One client's closed loop: shuffled rounds until `seconds` have passed
/// (at least `min_rounds`). Returns the jobs and the wall of each round.
#[allow(clippy::too_many_arguments)] // the loop's knobs; all set at the two call sites below
fn client_loop(
    addr: &str,
    index: usize,
    seed: u64,
    iters: u64,
    seconds: f64,
    min_rounds: usize,
    trace: bool,
    mut spans: Option<&mut Spans>,
) -> Result<(Vec<Job>, Vec<f64>), String> {
    let mut client = Client::connect(addr)?;
    let mut state = seed ^ ((index as u64 + 1) << 32) ^ u64::from(trace);
    let (mut jobs, mut rounds) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // as in `flow::window_has_room`: a run takes `seconds` on average
    while rounds.len() < min_rounds
        || start.elapsed().as_secs_f64() + 0.5 * median(&rounds) <= seconds
    {
        let mut order = ROUND;
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let run_id = index as u64;
        let round_span = spans.as_mut().map(|s| s.open("round", None, run_id));
        let t = Instant::now();
        for circuit in order {
            // ids are unique across connections and across traced/untraced loops
            let id = (u64::from(trace) * 10 + index as u64) * 1_000_000 + jobs.len() as u64;
            let span = spans
                .as_mut()
                .map(|s| s.open("serve.job", round_span, run_id));
            jobs.push(place(&mut client, id, circuit, iters, trace));
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.close(id);
            }
        }
        rounds.push(t.elapsed().as_secs_f64());
        if let (Some(s), Some(id)) = (spans.as_mut(), round_span) {
            s.close(id);
        }
    }
    Ok((jobs, rounds))
}

/// Both clients at once; `spans` collects theirs when tracing.
fn closed_loop(
    addr: &str,
    args: &Args,
    seconds: f64,
    min_rounds: usize,
    trace: bool,
    spans: Option<&mut Spans>,
    origin: Instant,
) -> Result<(Vec<Job>, Vec<f64>), String> {
    let iters = max_iters(args);
    let record = spans.is_some();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                scope.spawn(move || {
                    let mut own = record.then(|| Spans::new(origin));
                    client_loop(
                        addr,
                        index,
                        args.seed,
                        iters,
                        seconds,
                        min_rounds,
                        trace,
                        own.as_mut(),
                    )
                    .map(|r| (r, own))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let (mut jobs, mut rounds) = (Vec::new(), Vec::new());
    let mut spans = spans;
    for joined in results {
        let ((j, r), own) = joined.map_err(|_| "client thread panicked".to_string())??;
        jobs.extend(j);
        rounds.extend(r);
        if let (Some(all), Some(own)) = (spans.as_mut(), own) {
            all.merge(own);
        }
    }
    Ok((jobs, rounds))
}

/// Marks every job whose placement differs from the first result of the
/// same circuit, and returns that first HPWL per circuit.
fn check_hashes(jobs: &mut [Job]) -> BTreeMap<&'static str, f64> {
    let mut first: BTreeMap<&'static str, (String, f64)> = BTreeMap::new();
    for job in jobs.iter_mut().filter(|j| j.failure.is_none()) {
        let (hash, _) = first
            .entry(job.circuit)
            .or_insert_with(|| (job.hash.clone(), job.hpwl));
        if *hash != job.hash {
            job.failure = Some(format!("placement_hash {} != first {hash}", job.hash));
        }
    }
    first.into_iter().map(|(c, (_, hpwl))| (c, hpwl)).collect()
}

fn ms_of(jobs: &[Job], circuit: &str) -> Vec<f64> {
    jobs.iter()
        .filter(|j| j.circuit == circuit)
        .map(|j| j.latency_ms)
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mep = env::mep_binary()?;

    // set-up: spawn -> listening -> connects -> first metrics reply
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::shut_down(previous)?;
        }
        let t = Instant::now();
        let d = Daemon::spawn(&mep)?;
        let mut clients = (0..CLIENTS)
            .map(|_| Client::connect(&d.addr))
            .collect::<Result<Vec<_>, _>>()?;
        clients[0].metrics()?;
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let pid = Some(daemon.child.id());

    let origin = Instant::now();
    let mut spans = args.trace.then(|| Spans::new(origin));
    let window = args.untraced_seconds();
    let (cpu0, t0) = (env::cpu_s(pid)?, Instant::now());
    let measured = closed_loop(&daemon.addr, args, window, 2, false, spans.as_mut(), origin);
    let (cpu, wall) = (env::cpu_s(pid)? - cpu0, t0.elapsed().as_secs_f64());

    let mut values = start_values(args.trace);
    // operations beyond the jobs: the in-process cross-check
    let (mut checks, mut checks_failed) = (0u64, 0u64);
    let traced_rounds = if args.trace && measured.is_ok() {
        // the product's own tracing: jobs stream one `iter` frame per iteration
        Some(closed_loop(&daemon.addr, args, 0.0, 1, true, None, origin))
    } else {
        None
    };
    // the first reply on a fresh connection waits for the listener's accept
    // poll; the second is the operation alone
    let registry =
        Client::connect(&daemon.addr).and_then(|mut c| c.metrics().and_then(|_| c.metrics()));
    let peak_rss_mb = env::peak_rss_mb(pid);
    let startup_ms = daemon.startup_ms;
    Daemon::shut_down(daemon)?;
    let (mut jobs, rounds) = measured?;
    let first_hpwl = check_hashes(&mut jobs);
    for job in jobs.iter().filter(|j| j.failure.is_some()) {
        eprintln!(
            "job {} failed: {}",
            job.circuit,
            job.failure.as_deref().unwrap_or("")
        );
    }

    let latency: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    if args.trace {
        let spans = spans.as_mut().expect("tracing");
        let (registry, metrics_op_ms) = registry?;
        let (_, traced) = traced_rounds.expect("tracing")?;
        let overhead: Vec<f64> = jobs.iter().map(|j| j.latency_ms - j.elapsed_ms).collect();
        let elapsed: Vec<f64> = jobs.iter().map(|j| j.elapsed_ms).collect();
        let optimum = |name: &str| {
            synth::peko::peko_spec_by_name(name)
                .map(|s| synth::peko::generate_peko(&s).optimal_hpwl)
        };
        let subopt = |name: &str| match (first_hpwl.get(name), optimum(name)) {
            (Some(h), Some(o)) => h / o,
            _ => 0.0,
        };

        // what a job does before it places, timed from outside
        let loads: Vec<f64> = ROUND
            .iter()
            .map(|name| {
                let t = Instant::now();
                let loaded = CircuitSource::Builtin(name.to_string()).load();
                std::hint::black_box(&loaded);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let t = Instant::now();
        std::hint::black_box(synth::generate(
            &synth::spec_by_name("ispd19_test2").ok_or("ispd19_test2 left the catalogue")?,
        ));
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;

        // the largest job of the mix, in process and stage by stage
        let circuit = CircuitSource::Builtin("peko_2400".to_string())
            .load()
            .map_err(|e| e.detail())?;
        let root = spans.open("flow", None, CLIENTS as u64);
        let in_process = traced_stages(
            circuit,
            Arc::new(EvalEngine::new(1)),
            1,
            max_iters(args) as usize,
            spans,
            root,
            CLIENTS as u64,
            &mut values,
        )?;
        spans.close(root);
        checks += 1;
        if Some(in_process.dpwl.to_bits()) != first_hpwl.get("peko_2400").map(|h| h.to_bits()) {
            eprintln!(
                "in-process peko_2400 dpwl {} != the daemon's {:?}: not the same program",
                in_process.dpwl,
                first_hpwl.get("peko_2400")
            );
            checks_failed += 1;
        }
        let coverage = spans.coverage_pct(root);
        for (name, value) in [
            ("netlist.synth.generate_ms", generate_ms),
            ("serve.server.startup_ms", startup_ms),
            ("serve.server.elapsed_ms_p50", median(&elapsed)),
            ("serve.connection.latency_ms_p50", median(&latency)),
            (
                "serve.connection.latency_ms_p90",
                percentile(&latency, 90.0),
            ),
            ("serve.connection.overhead_ms_p50", median(&overhead)),
            (
                "serve.connection.overhead_ms_p90",
                percentile(&overhead, 90.0),
            ),
            (
                "serve.queue.rejected",
                registry
                    .get("report")
                    .and_then(|r| r.get("serve.jobs.rejected"))
                    .and_then(JsonValue::as_f64)
                    .ok_or("metrics reply without serve.jobs.rejected")?,
            ),
            ("serve.job.smoke_ms_p50", median(&ms_of(&jobs, "smoke"))),
            (
                "serve.job.peko_600_ms_p50",
                median(&ms_of(&jobs, "peko_600")),
            ),
            (
                "serve.job.ispd19_test2_ms_p50",
                median(&ms_of(&jobs, "ispd19_test2")),
            ),
            (
                "serve.job.peko_2400_ms_p50",
                median(&ms_of(&jobs, "peko_2400")),
            ),
            ("serve.job.peko_600_subopt_ratio", subopt("peko_600")),
            ("serve.job.peko_2400_subopt_ratio", subopt("peko_2400")),
            ("serve.job.load_ms_p50", median(&loads)),
            ("serve.server.metrics_op_ms", metrics_op_ms),
            // the daemon over the untraced rounds, not this process
            ("proc.cpu_s", cpu),
            ("proc.cpu_util", cpu / wall),
            (
                "trace.overhead_pct",
                100.0 * (median(&traced) / median(&rounds) - 1.0),
            ),
            ("trace.coverage_pct", coverage),
        ] {
            values.insert(name, value);
        }
        replay_trajectory(args, &in_process, 1, &mut values)?;
        spans.save(&args.workload)?;
    } else {
        values.insert("setup_s", median(&setups));
        values.insert("place_wall_s", median(&rounds));
        values.insert("dpwl", first_hpwl.values().sum());
        values.insert("peak_rss_mb", peak_rss_mb?);
    }
    Ok(Outcome {
        values,
        attempted: jobs.len() as u64 + checks,
        failed: jobs.iter().filter(|j| j.failure.is_some()).count() as u64 + checks_failed,
    })
}
