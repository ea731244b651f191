//! The processes a run measures, kept apart from the load generator so
//! the generator's pre-built bodies never count toward their memory or
//! CPU: a serving process (`dclab_serve::start`, the library behind
//! `dclab serve`) and a library worker that runs `engine::solve` back to
//! back. Both are this binary re-executed under a hidden subcommand.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dclab_core::pvec::PVec;
use dclab_engine::{solve, SolveRequest};
use dclab_graph::io as graph_io;

use crate::client;

/// Solve workers of the serving process.
const SERVE_WORKERS: usize = 2;

/// How long a child may take to come up or to drain on shutdown.
const CHILD_WAIT: Duration = Duration::from_secs(30);

/// A command that re-runs this binary, with the solver's thread override
/// removed so the child sizes its pools from the host.
fn self_command(sub: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(sub).env_remove("DCLAB_THREADS");
    Ok(cmd)
}

/// Stop a child that is still running and reap it.
fn reap(child: &mut Child) {
    if let Ok(None) = child.try_wait() {
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// Wait up to [`CHILD_WAIT`] for a child to exit; kill it past that.
fn wait_exit(child: &mut Child, what: &str) -> Result<(), String> {
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{what} exited with {status}")),
            Ok(None) if started.elapsed() < CHILD_WAIT => {
                std::thread::sleep(Duration::from_millis(2))
            }
            Ok(None) => {
                reap(child);
                return Err(format!("{what} did not exit within {CHILD_WAIT:?}"));
            }
            Err(e) => return Err(format!("waiting for {what}: {e}")),
        }
    }
}

/// CPU time and peak resident memory of a process.
#[derive(Clone, Copy, Debug)]
pub struct ProcSample {
    /// User + system CPU seconds over all threads.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MB.
    pub hwm_mb: f64,
}

/// Linux reports `utime`/`stime` in USER_HZ ticks, 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// Read `/proc/<pid>/stat` and `/proc/<pid>/status`.
pub fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    let (utime, stime) = tick(11)
        .zip(tick(12))
        .ok_or_else(|| format!("malformed /proc/{pid}/stat"))?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(ProcSample {
        cpu_s: (utime + stime) / TICKS_PER_S,
        hwm_mb: hwm_kb / 1024.0,
    })
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: the share of
/// time the hypervisor took away, recorded so a noisy run can be told
/// from a slow program.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A running serving process on an ephemeral local port.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Start a server with [`SERVE_WORKERS`] workers and wait until it
    /// answers `/healthz`.
    pub fn start(cache_mb: usize, store: Option<&Path>) -> Result<Server, String> {
        let mut cmd = self_command("serve-child")?;
        cmd.arg("--cache-mb").arg(cache_mb.to_string());
        if let Some(path) = store {
            cmd.arg("--store-path").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let mut line = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
        let addr = match read
            .ok()
            .and_then(|_| line.trim().parse::<SocketAddr>().ok())
        {
            Some(addr) => addr,
            None => {
                reap(&mut child);
                return Err(format!("server did not report its address (got {line:?})"));
            }
        };
        let server = Server { child, addr };
        let started = Instant::now();
        loop {
            match client::call(addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if started.elapsed() > CHILD_WAIT => {
                    return Err("server never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful shutdown through `POST /shutdown`, then reap.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client::call(self.addr, "POST", "/shutdown", b"");
        if let Err(e) = asked {
            reap(&mut self.child);
            return Err(format!("POST /shutdown failed: {e}"));
        }
        wait_exit(&mut self.child, "server")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        reap(&mut self.child);
    }
}

/// Body of the `serve-child` subcommand: serve until `POST /shutdown`.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let mut cfg = dclab_serve::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVE_WORKERS,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--cache-mb" => cfg.cache_mb = value.parse().map_err(|e| format!("{flag}: {e}"))?,
            "--store-path" => cfg.store_path = Some(value.clone()),
            _ => return Err(format!("unknown serve-child flag {flag}")),
        }
    }
    let handle = dclab_serve::start(cfg).map_err(|e| format!("starting the server: {e}"))?;
    println!("{}", handle.addr());
    io::stdout().flush().map_err(|e| e.to_string())?;
    handle.join();
    Ok(())
}

/// What the library worker reports back.
pub struct LibRun {
    /// Total parse time of each set-up repetition, in seconds.
    pub setup_times: Vec<f64>,
    /// Per op: solve + serialize time and the report JSON (or the error).
    pub ops: Vec<(Duration, Result<String, String>)>,
    /// CPU seconds over the ops and the peak RSS over the worker's life.
    pub cpu_s: f64,
    pub hwm_mb: f64,
}

/// Run `oracle-large` in a library worker: stream the instance texts to
/// it, let it parse each `parse_reps` times (set-up) and solve each once
/// in sequence.
pub fn run_lib_worker(texts: &[String], parse_reps: usize) -> Result<LibRun, String> {
    let mut child = self_command("lib-child")?
        .arg(parse_reps.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the library worker: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    let result = std::thread::scope(|s| {
        let feeder = s.spawn(move || -> io::Result<()> {
            writeln!(stdin, "{}", texts.len())?;
            for t in texts {
                writeln!(stdin, "{}", t.len())?;
                stdin.write_all(t.as_bytes())?;
            }
            stdin.flush()
        });
        let parsed = read_lib_output(BufReader::new(stdout));
        let fed = feeder.join().expect("feeder thread panicked");
        fed.map_err(|e| format!("feeding the library worker: {e}"))
            .and(parsed)
    });
    let exited = wait_exit(&mut child, "library worker");
    let run = result?;
    exited?;
    if run.ops.len() != texts.len() {
        return Err(format!(
            "library worker answered {} of {} ops",
            run.ops.len(),
            texts.len()
        ));
    }
    Ok(run)
}

fn read_lib_output(out: impl BufRead) -> Result<LibRun, String> {
    let mut run = LibRun {
        setup_times: Vec::new(),
        ops: Vec::new(),
        cpu_s: f64::NAN,
        hwm_mb: f64::NAN,
    };
    let num = |s: Option<&str>| -> Result<f64, String> {
        s.and_then(|v| v.parse().ok())
            .ok_or_else(|| "malformed library worker line".to_string())
    };
    for line in out.lines() {
        let line = line.map_err(|e| format!("reading the library worker: {e}"))?;
        let mut parts = line.splitn(3, ' ');
        match parts.next() {
            Some("setup") => {
                run.setup_times = line
                    .split(' ')
                    .skip(1)
                    .map(|t| num(Some(t)))
                    .collect::<Result<_, _>>()?
            }
            Some(kind @ ("op" | "err")) => {
                let ns = num(parts.next())?;
                let text = parts.next().unwrap_or("").to_string();
                let answer = if kind == "op" { Ok(text) } else { Err(text) };
                run.ops.push((Duration::from_nanos(ns as u64), answer));
            }
            Some("proc") => {
                run.cpu_s = num(parts.next())?;
                run.hwm_mb = num(parts.next())?;
            }
            _ => return Err(format!("unexpected library worker line {line:?}")),
        }
    }
    Ok(run)
}

/// Body of the `lib-child <parse reps>` subcommand. Input on stdin: a
/// count line, then per instance a byte-length line and the edge-list
/// text. Texts are parsed as they arrive and dropped, so only the parsed
/// corpus stays resident.
pub fn lib_child(args: &[String]) -> Result<(), String> {
    let reps: usize = args
        .first()
        .and_then(|a| a.parse().ok())
        .filter(|&r| r > 0)
        .ok_or("lib-child needs a positive repetition count")?;
    let mut input = BufReader::new(io::stdin().lock());
    fn read_len(input: &mut impl BufRead) -> Result<usize, String> {
        let mut line = String::new();
        input
            .read_line(&mut line)
            .map_err(|e| format!("reading input: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("bad length line {line:?}"))
    }
    let count = read_len(&mut input)?;
    let p = PVec::new(vec![2, 1]).expect("L(2,1) is a valid p-vector");
    let mut parse_s = vec![0.0f64; reps];
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_len(&mut input)?;
        let mut bytes = vec![0u8; len];
        input
            .read_exact(&mut bytes)
            .map_err(|e| format!("reading an instance: {e}"))?;
        let text = String::from_utf8(bytes).map_err(|_| "instance is not UTF-8".to_string())?;
        for (rep, total) in parse_s.iter_mut().enumerate() {
            let t0 = Instant::now();
            let g = graph_io::parse(&text, graph_io::Format::EdgeList)
                .map_err(|e| format!("parsing an instance: {e}"))?;
            *total += t0.elapsed().as_secs_f64();
            if rep + 1 == reps {
                requests.push(SolveRequest::new(g, p.clone()));
            }
        }
    }
    let mut out = io::BufWriter::new(io::stdout().lock());
    let write_err = |e: io::Error| format!("writing results: {e}");
    let times: Vec<String> = parse_s.iter().map(f64::to_string).collect();
    writeln!(out, "setup {}", times.join(" ")).map_err(write_err)?;
    let pid = std::process::id();
    let before = proc_sample(pid)?;
    for req in &requests {
        let t0 = Instant::now();
        let answer = solve(req).map(|r| r.to_json());
        let ns = t0.elapsed().as_nanos();
        match answer {
            Ok(json) => writeln!(out, "op {ns} {json}"),
            Err(e) => writeln!(out, "err {ns} {e}"),
        }
        .map_err(write_err)?;
    }
    let after = proc_sample(pid)?;
    writeln!(out, "proc {} {}", after.cpu_s - before.cpu_s, after.hwm_mb).map_err(write_err)?;
    out.flush().map_err(write_err)
}
