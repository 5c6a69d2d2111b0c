//! `serve-ideal`: the daemon in a child process, and a closed-loop load
//! generator in this one.

use crate::workloads::serve_manifest;
use qufi_obs::json::Value;
use qufi_serve::client::Client;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connect, read and write timeout of every client socket.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Pause between two `status` polls of one job. With the 60–100 µs
/// round trip and the sleep's overshoot, polls start under 1 ms apart, so
/// `done` is seen within about 1% of a 60–120 ms job; a shorter pause
/// would take more of the two cores the daemon's workers run on.
const POLL_PAUSE: Duration = Duration::from_micros(700);

/// A running daemon child.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    /// Its service directory.
    pub dir: PathBuf,
}

impl Daemon {
    /// Starts `qufi serve --workers 2` (through this executable's
    /// `daemon` role) in the fresh directory `dir`, and waits for the
    /// first successful `health` reply. Returns the daemon and the time
    /// from spawn to that reply.
    ///
    /// The daemon gets a port picked here, so the client can connect as
    /// soon as the port listens: its connection then waits in the backlog
    /// for the accept loop's first pass. Waiting for `serve.addr` instead
    /// would race the accept loop's 20 ms poll and make the start-up time
    /// read either ≈3 ms or ≈23 ms.
    pub fn start(dir: &Path) -> Result<(Daemon, Duration), String> {
        let _ = fs::remove_dir_all(dir);
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("picking a port: {e}"))?
            .to_string();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(exe)
            .args(["--role", "daemon", "--addr", &addr, "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr,
            dir: dir.to_path_buf(),
        };
        loop {
            let healthy = Client::connect(daemon.addr.as_str(), IO_TIMEOUT)
                .and_then(|mut c| c.health())
                .is_ok_and(|r| r.get("ok") == Some(&Value::Bool(true)));
            if healthy {
                return Ok((daemon, started.elapsed()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > IO_TIMEOUT {
                return Err("daemon did not answer health within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// The daemon's peak resident set size, in KiB.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        crate::util::vm_hwm_kib(Some(self.child.id()))
    }

    /// Drains the daemon and waits for it to exit 0. On failure the
    /// daemon is killed when it is dropped.
    pub fn stop(mut self) -> Result<(), String> {
        Client::connect(self.addr.as_str(), IO_TIMEOUT)
            .and_then(|mut c| c.shutdown(true))
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                _ => return Err("daemon did not drain within 60 s".into()),
            }
        }
    }
}

impl Drop for Daemon {
    /// Kills a daemon that is still running, so no error path leaves one
    /// behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One submission as the client saw it.
pub struct JobSample {
    /// Manifest submitted.
    pub manifest: String,
    /// Job id, when accepted.
    pub job: Option<String>,
    /// `None` when the job reached `done`; the failure otherwise.
    pub failure: Option<String>,
    /// The submit was refused as `overloaded`.
    pub shed: bool,
    /// Client-timed `submit` round trip.
    pub submit_rtt: Duration,
    /// Submit acknowledged → first `running` seen.
    pub queue_wait: Duration,
    /// First `running` seen → first `done` seen.
    pub run: Duration,
    /// `submit` sent → first `done` seen.
    pub latency: Duration,
    /// When `done` was first seen.
    pub done_at: Option<Instant>,
}

/// What the load left.
pub struct Load {
    /// Every submission, in client order.
    pub jobs: Vec<JobSample>,
    /// Client-timed `status` round trips.
    pub status_rtts: Vec<Duration>,
    /// When the clients started.
    pub started: Instant,
}

/// Jobs a run submits at least, so that ten or more latencies lie
/// beyond p90.
const MIN_JOBS: usize = 100;

/// Two closed-loop clients, each on its own connection: submit a fresh
/// campaign, poll `status` until it ends, repeat, until `seconds` have
/// passed and [`MIN_JOBS`] have been submitted; the jobs in flight then
/// run to their end.
pub fn closed_loop(addr: &str, seed: u64, seconds: f64) -> Result<Load, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let submitted = AtomicUsize::new(0);
    // Called once before each submission.
    let more = || {
        let before = submitted.fetch_add(1, Ordering::Relaxed);
        Instant::now() < deadline || before < MIN_JOBS
    };
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let more = &more;
                scope.spawn(move || client_loop(addr, seed, c, more))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut load = Load {
        jobs: Vec::new(),
        status_rtts: Vec::new(),
        started,
    };
    for result in per_client {
        let (jobs, rtts) = result.map_err(|e| format!("client: {e}"))?;
        load.jobs.extend(jobs);
        load.status_rtts.extend(rtts);
    }
    Ok(load)
}

type ClientResult = io::Result<(Vec<JobSample>, Vec<Duration>)>;

fn client_loop(addr: &str, seed: u64, client: u64, more: &dyn Fn() -> bool) -> ClientResult {
    let mut conn = Client::connect(addr, IO_TIMEOUT)?;
    let mut jobs = Vec::new();
    let mut rtts = Vec::new();
    let mut seq = 0;
    while more() {
        let manifest = serve_manifest(seed, client, seq);
        seq += 1;
        let sent = Instant::now();
        let reply = conn.submit(&manifest)?;
        let acked = Instant::now();
        let mut sample = JobSample {
            manifest,
            job: None,
            failure: None,
            shed: false,
            submit_rtt: acked - sent,
            queue_wait: Duration::ZERO,
            run: Duration::ZERO,
            latency: Duration::ZERO,
            done_at: None,
        };
        if reply.get("ok") != Some(&Value::Bool(true)) {
            let kind = reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str)
                .unwrap_or("unknown");
            sample.shed = kind == "overloaded";
            sample.failure = Some(format!("submit refused: {kind}"));
            jobs.push(sample);
            continue;
        }
        if reply.get("deduped") == Some(&Value::Bool(true)) {
            sample.failure = Some("submit deduplicated".into());
        }
        let job = reply
            .get("job")
            .and_then(Value::as_str)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "submit reply without job"))?
            .to_string();
        let mut running_at = None;
        loop {
            let asked = Instant::now();
            let status = conn.status(&job)?;
            let seen = Instant::now();
            rtts.push(seen - asked);
            match status.get("state").and_then(Value::as_str).unwrap_or("") {
                "queued" => {}
                "running" => {
                    running_at.get_or_insert(seen);
                }
                "done" => {
                    let running_at = running_at.unwrap_or(seen);
                    sample.queue_wait = running_at.saturating_duration_since(acked);
                    sample.run = seen - running_at;
                    sample.latency = seen - sent;
                    sample.done_at = Some(seen);
                    break;
                }
                other => {
                    sample.failure = Some(format!("job ended {other:?}: {status:?}"));
                    break;
                }
            }
            std::thread::sleep(POLL_PAUSE);
        }
        sample.job = Some(job);
        jobs.push(sample);
    }
    Ok((jobs, rtts))
}
