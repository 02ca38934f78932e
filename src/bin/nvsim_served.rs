//! `nvsim-served` — the simulation service as a real daemon.
//!
//! Serves the `nvsim-serve` wire protocol over TCP sockets or stdio,
//! with back-pressure, round-robin fairness across connections, and a
//! graceful SIGTERM/SIGINT drain that parks every session to a snapshot
//! blob before exiting 0.
//!
//! ```text
//! nvsim-served --listen 127.0.0.1:0 [--workers N] [--warm-capacity N]
//! nvsim-served --stdio  [--workers N]
//! nvsim-served client --connect HOST:PORT (--smoke | --script FILE)
//! ```
//!
//! With `--listen` the daemon prints `listening on ADDR` (port 0 binds
//! an ephemeral port — scripts parse the line), then serves until
//! SIGTERM. The `client` subcommand sends one complete script,
//! half-closes, and streams the response bytes to stdout — `--smoke`
//! sends the canonical smoke script the CI determinism job compares
//! across worker counts.

use nvsim::backends::build_server;
use nvsim::serve::{daemon, scripts, ServerConfig, TransportConfig};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The daemon's shutdown flag, shared with the signal handler. Signal
/// handlers get no closure context, so this one global is the bridge;
/// it is only ever stored from the handler and loaded from the loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
}

fn install_signal_handlers() {
    // SAFETY: `signal(2)` with an async-signal-safe handler (one atomic store).
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

struct Args {
    listen: Option<String>,
    stdio: bool,
    client: bool,
    emit_script: bool,
    connect: Option<String>,
    smoke: bool,
    script: Option<String>,
    workers: usize,
    warm_capacity: usize,
    max_conn_commands: usize,
    max_conn_response_bytes: usize,
    idle_poll_limit: u64,
    total_buffer_budget: usize,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let defaults = TransportConfig::default();
        let mut args = Args {
            listen: None,
            stdio: false,
            client: false,
            emit_script: false,
            connect: None,
            smoke: false,
            script: None,
            workers: 2,
            warm_capacity: ServerConfig::default().warm_capacity,
            max_conn_commands: defaults.max_conn_commands,
            max_conn_response_bytes: defaults.max_conn_response_bytes,
            idle_poll_limit: defaults.idle_poll_limit,
            total_buffer_budget: defaults.total_buffer_budget,
        };
        let mut it = std::env::args().skip(1);
        let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "client" => args.client = true,
                "script" => args.emit_script = true,
                "--listen" => args.listen = Some(value(&mut it, "--listen")?),
                "--stdio" => args.stdio = true,
                "--connect" => args.connect = Some(value(&mut it, "--connect")?),
                "--smoke" => args.smoke = true,
                "--script" => args.script = Some(value(&mut it, "--script")?),
                "--workers" => {
                    args.workers = value(&mut it, "--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?
                }
                "--warm-capacity" => {
                    args.warm_capacity = value(&mut it, "--warm-capacity")?
                        .parse()
                        .map_err(|e| format!("--warm-capacity: {e}"))?
                }
                "--max-conn-commands" => {
                    args.max_conn_commands = value(&mut it, "--max-conn-commands")?
                        .parse()
                        .map_err(|e| format!("--max-conn-commands: {e}"))?
                }
                "--max-conn-response-bytes" => {
                    args.max_conn_response_bytes = value(&mut it, "--max-conn-response-bytes")?
                        .parse()
                        .map_err(|e| format!("--max-conn-response-bytes: {e}"))?
                }
                "--idle-poll-limit" => {
                    args.idle_poll_limit = value(&mut it, "--idle-poll-limit")?
                        .parse()
                        .map_err(|e| format!("--idle-poll-limit: {e}"))?
                }
                "--total-buffer-budget" => {
                    args.total_buffer_budget = value(&mut it, "--total-buffer-budget")?
                        .parse()
                        .map_err(|e| format!("--total-buffer-budget: {e}"))?
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        Ok(args)
    }

    fn transport(&self) -> TransportConfig {
        TransportConfig {
            max_conn_commands: self.max_conn_commands,
            max_conn_response_bytes: self.max_conn_response_bytes,
            idle_poll_limit: self.idle_poll_limit,
            total_buffer_budget: self.total_buffer_budget,
            ..TransportConfig::default()
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers.max(1),
            warm_capacity: self.warm_capacity,
        }
    }
}

const USAGE: &str = "usage:
  nvsim-served --listen ADDR [--workers N] [--warm-capacity N]
               [--max-conn-commands N] [--max-conn-response-bytes N]
               [--idle-poll-limit N] [--total-buffer-budget N]
  nvsim-served --stdio [--workers N] [--warm-capacity N]
  nvsim-served client --connect HOST:PORT (--smoke | --script FILE)
  nvsim-served script --smoke     # emit the canonical smoke script";

fn run_client(args: &Args) -> io::Result<()> {
    let Some(addr) = &args.connect else {
        return Err(io::Error::other("client needs --connect HOST:PORT"));
    };
    let script = if args.smoke {
        scripts::smoke_script()
    } else if let Some(path) = &args.script {
        std::fs::read(path)?
    } else {
        return Err(io::Error::other("client needs --smoke or --script FILE"));
    };
    let reply = daemon::client_round_trip(addr.as_str(), &script)?;
    io::stdout().write_all(&reply)?;
    io::stdout().flush()
}

fn run_daemon(args: &Args) -> io::Result<()> {
    install_signal_handlers();
    // The daemon loop polls an Arc'd flag; mirror the static into it so
    // the loop stays free of process-global state.
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = build_server(args.server_config());

    if args.stdio {
        // Stdio reads block, so the drain happens on EOF rather than on
        // the signal flag — closing stdin is the stdio "SIGTERM".
        let report = daemon::serve_stream(
            io::stdin().lock(),
            io::stdout().lock(),
            server,
            args.transport(),
        )?;
        eprintln!(
            "nvsim-served: stdio stream done ({} cycles, {} sessions parked)",
            report.cycles, report.parked_sessions
        );
        return Ok(());
    }

    let addr = args.listen.as_deref().unwrap_or("127.0.0.1:0");
    let mirror = Arc::clone(&shutdown);
    std::thread::spawn(move || loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            mirror.store(true, Ordering::SeqCst);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    });
    let report = daemon::serve_addr(addr, server, args.transport(), shutdown, |bound| {
        // Scripts parse this exact line to find the ephemeral port.
        println!("listening on {bound}");
        let _ = io::stdout().flush();
    })?;
    eprintln!(
        "nvsim-served: drained ({} connections, {} cycles, {} loop passes, {} sessions parked)",
        report.connections, report.cycles, report.polls, report.parked_sessions
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.emit_script {
        // `script --smoke`: write the canonical smoke script so shell
        // pipelines can drive the stdio transport with the exact bytes
        // the socket smoke used.
        if !args.smoke {
            eprintln!("script needs --smoke");
            return ExitCode::FAILURE;
        }
        io::stdout()
            .write_all(&scripts::smoke_script())
            .and_then(|()| io::stdout().flush())
    } else if args.client {
        run_client(&args)
    } else if args.stdio || args.listen.is_some() {
        run_daemon(&args)
    } else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nvsim-served: {e}");
            ExitCode::FAILURE
        }
    }
}
