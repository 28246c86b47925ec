//! The system under test: its configuration, and control of the server process.
//!
//! The server is `perfbench-server`, a program built from `pi-server`'s public library
//! without the `faults` feature: what a user of the library builds.  Every workload that
//! serves over HTTP runs it as a separate process with the same options, and the traced
//! passes build the same pool in-process from [`pool_options`].

use crate::speed::ProcessClock;
use pi_core::{Interface, PiOptions};
use pi_graph::WindowStrategy;
use pi_server::{DurabilityOptions, PoolOptions};
use pi_ui::{interface_spec, EditorLayout};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Acceptor threads of the server under test.
pub const HTTP_THREADS: usize = 2;
/// Pool workers of the server under test.
pub const POOL_WORKERS: usize = 2;
/// Per-tenant ingest queue bound of `crash_restart`'s server, in statements, deep enough
/// for its closed-loop shipper to queue a tenant's whole write phase: at the default 256
/// the pool refuses batches (`429`) whenever mining falls behind the journal, and a
/// refused batch is a failed operation.  `serve_mixed` runs the default bound.
pub const DEEP_QUEUE: usize = 8192;

/// How often a launch timed for `setup_s` polls `/readyz`.
pub const READY_POLL: Duration = Duration::from_micros(500);

/// Mining options: the defaults (LCA pruning) with the given sliding window, and the
/// mining thread count pinned to one so `PI_THREADS` in the environment cannot change it.
pub fn session_options(window: usize) -> PiOptions {
    PiOptions {
        window: WindowStrategy::sliding(window),
        threads: 1,
        ..PiOptions::default()
    }
}

/// The pool of the server under test: default mining options (window 2), a journal in
/// `dir` with its production defaults (fsync before each ack, 8 MiB checkpoints),
/// [`POOL_WORKERS`] workers, and per-tenant queues of `queue_depth` statements (`None`:
/// the default bound).
pub fn pool_options(dir: &Path, queue_depth: Option<usize>) -> PoolOptions {
    let defaults = PoolOptions::default();
    PoolOptions {
        workers: POOL_WORKERS,
        queue_depth: queue_depth.unwrap_or(defaults.queue_depth),
        session: session_options(2),
        durability: Some(DurabilityOptions::new(dir)),
        ..defaults
    }
}

/// Renders an interface the way `GET /interfaces/{user}/{thread}` does: a two-column
/// layout compiled by `interface_spec` and serialised to JSON text.
pub fn render_spec(interface: &Interface) -> String {
    let layout = EditorLayout::new(interface, 2);
    interface_spec(interface, &layout, &pi_core::standard_frontends()).to_string()
}

/// A running server process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Held open so the server's stdin stays connected; it exits when this closes.
    _stdin: ChildStdin,
    /// The address it serves on.
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub launched: Instant,
}

/// The server executable, built beside this one.
pub fn server_exe() -> std::io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name("perfbench-server"))
}

impl ServerProc {
    /// Spawns the server over `dir`, with per-tenant queues of `queue_depth` statements
    /// (`None`: the default bound), and waits for it to report its address.
    pub fn launch(dir: &Path, queue_depth: Option<usize>) -> std::io::Result<ServerProc> {
        let launched = Instant::now();
        let mut command = Command::new(server_exe()?);
        command.arg(dir);
        if let Some(depth) = queue_depth {
            command.arg(depth.to_string());
        }
        let mut child = command
            .env_remove("PI_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line.trim().parse().map_err(|_| {
            let _ = child.kill();
            let _ = child.wait();
            std::io::Error::other(format!("server printed no address: {line:?}"))
        })?;
        Ok(ServerProc {
            child,
            _stdin: stdin,
            addr,
            launched,
        })
    }

    /// Polls `GET /readyz` every `poll` until it answers 200; returns the time since
    /// launch.
    pub fn wait_ready(&self, timeout: Duration, poll: Duration) -> std::io::Result<Duration> {
        loop {
            if let Ok((200, _, _)) =
                pi_server::client::http_request(self.addr, "GET", "/readyz", None)
            {
                return Ok(self.launched.elapsed());
            }
            if self.launched.elapsed() > timeout {
                return Err(std::io::Error::other("server not ready in time"));
            }
            std::thread::sleep(poll);
        }
    }

    /// The process's CPU clock: the CPU time all its threads have used since launch.
    pub fn clock(&self) -> std::io::Result<ProcessClock> {
        ProcessClock::of(self.child.id())
    }

    /// The process's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> std::io::Result<f64> {
        peak_rss_mib(self.child.id())
    }

    /// Kills the process with SIGKILL and waits for it to end.
    pub fn kill(mut self) -> std::io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}
