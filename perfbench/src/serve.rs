//! `serve_socket`: one client with two TCP connections into an
//! in-process `daemon::serve_listener` running two workers. Sessions
//! cycle through every `BackendKind`; each round is one batch round
//! trip: one `scripts::batch_for` batch per session, then every reply.

use crate::stats::{self, Digest, Outcome};
use nvsim::backends::build_server;
use nvsim::serve::protocol::{decode_responses, Command, FrameDecoder, Response};
use nvsim::serve::scripts::{batch_for, encode, open_cmd};
use nvsim::serve::{daemon, DaemonReport, ServerConfig, TransportConfig};
use nvsim::types::{BackendKind, Time};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Connections, and daemon workers.
const CONNS: usize = 2;
/// Sessions per connection; all connections together cover every
/// [`BackendKind`] once.
const SESSIONS_PER_CONN: u64 = (BackendKind::ALL.len() / CONNS) as u64;
/// Requests per batch.
const BATCH: u64 = 32;
/// Rounds (batch round trips) the digest and the accuracy cover.
const CHECK_ROUNDS: u64 = 64;
/// Highest percentile reported as the round tail. A round trip is about
/// two 1 ms idle sleeps of the daemon's poll loop. Above p75 are the
/// trips a shared host delayed, whose share rose from 1 % to 15 % for
/// tens of seconds at a time on a two-vCPU VM: p90 moved by up to 40 %
/// between quarters of one run, p75 by under 5 % (see README.md).
const TAIL_MAX_PCT: f64 = 75.0;
/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// about 1.4 ms, one 1 ms idle sleep of the daemon's poll loop among it;
/// a few in a hundred take several times that, when the shared host
/// delays a thread's wake-up.
const SETUP_REPS: usize = 100;

/// The sessions of connection `c`: ids `base + k`, so session `base + k`
/// runs `BackendKind::ALL[k]` (`open_cmd` assigns kinds by id).
fn sids(base: u64, c: usize) -> impl Iterator<Item = u64> {
    let first = base + c as u64 * SESSIONS_PER_CONN;
    first..first + SESSIONS_PER_CONN
}

/// What the client sends in exchange `k` of a run that made `trips`
/// batch round trips: the opens, one batch per session per trip (every
/// session gets the same batch), then the closes.
fn exchange_cmd(seed: u64, trips: u64, k: u64, sid: u64) -> Command {
    if k == 0 {
        open_cmd(sid)
    } else if k <= trips {
        Command::Batch {
            sid,
            reqs: batch_for(seed, k - 1, BATCH),
        }
    } else {
        Command::Close { sid }
    }
}

/// Host time spent encoding commands and decoding responses, as
/// `(count, ns)`, in traced rounds.
#[derive(Debug, Default)]
struct Codec {
    encode: (u64, f64),
    decode: (u64, f64),
}

/// One client connection and the digest of each reply it received.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// FNV-1a of the reply bytes of each exchange, in order.
    replies: Vec<u64>,
}

impl Conn {
    /// Sends `cmds` as one script; with `encode_ns`, times each
    /// command's encoding.
    fn send(&mut self, cmds: &[Command], encode_ns: Option<&mut (u64, f64)>) -> io::Result<()> {
        let mut script = Vec::new();
        match encode_ns {
            None => cmds.iter().for_each(|c| c.encode_frame(&mut script)),
            Some(acc) => {
                for c in cmds {
                    let t0 = Instant::now();
                    c.encode_frame(&mut script);
                    acc.1 += t0.elapsed().as_nanos() as f64;
                    acc.0 += 1;
                }
            }
        }
        self.stream.write_all(&script)
    }

    /// Blocks until `want` response frames arrived; with `decode_ns`,
    /// decodes and times each one.
    fn recv(&mut self, want: usize, mut decode_ns: Option<&mut (u64, f64)>) -> io::Result<()> {
        let mut got = 0;
        let mut digest = Digest::default();
        let mut buf = [0u8; 16 * 1024];
        while got < want {
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            digest.bytes(&buf[..n]);
            self.decoder.push(&buf[..n]);
            while let Some((base, payload)) = self.decoder.next_frame().map_err(io::Error::other)? {
                if let Some(acc) = decode_ns.as_deref_mut() {
                    let t0 = Instant::now();
                    let r = Response::decode(base, &payload).map_err(io::Error::other)?;
                    acc.1 += t0.elapsed().as_nanos() as f64;
                    acc.0 += 1;
                    std::hint::black_box(r);
                }
                got += 1;
            }
        }
        self.replies.push(digest.value());
        Ok(())
    }
}

/// A running daemon with its client connections and open sessions.
pub struct Served {
    seed: u64,
    base: u64,
    conns: Vec<Conn>,
    /// Batch round trips (rounds) made so far.
    trips: u64,
    shutdown: Arc<AtomicBool>,
    daemon: Option<JoinHandle<io::Result<DaemonReport>>>,
}

impl Served {
    /// Binds a loopback port, connects, sends every session's open,
    /// then starts the daemon and waits for the replies. The daemon
    /// starts last so that its first poll finds the connections and the
    /// opens: started first, it idled one 1 ms poll sleep or not,
    /// depending on whether its first poll or the client's bytes came
    /// first, in a mix that shifted from run to run.
    pub fn start(seed: u64) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = daemon::shutdown_flag();
        let mut s = Served {
            seed,
            base: seed.wrapping_mul(BackendKind::ALL.len() as u64),
            conns: Vec::new(),
            trips: 0,
            shutdown: Arc::clone(&shutdown),
            daemon: None,
        };
        for _ in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            s.conns.push(Conn {
                stream,
                decoder: FrameDecoder::new(),
                replies: Vec::new(),
            });
        }
        s.send(0, None)?;
        let server = build_server(ServerConfig::with_workers(CONNS));
        s.daemon = Some(std::thread::spawn(move || {
            daemon::serve_listener(listener, server, TransportConfig::default(), shutdown)
        }));
        s.recv(None)?;
        Ok(s)
    }

    /// Sends exchange `k` on every connection.
    fn send(&mut self, k: u64, mut codec: Option<&mut Codec>) -> io::Result<()> {
        let (seed, trips) = (self.seed, self.trips);
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let cmds: Vec<Command> = sids(self.base, c)
                .map(|sid| exchange_cmd(seed, trips, k, sid))
                .collect();
            conn.send(&cmds, codec.as_deref_mut().map(|t| &mut t.encode))?;
        }
        Ok(())
    }

    /// Waits for every reply to the last exchange sent.
    fn recv(&mut self, mut codec: Option<&mut Codec>) -> io::Result<()> {
        for conn in &mut self.conns {
            let want = SESSIONS_PER_CONN as usize;
            conn.recv(want, codec.as_deref_mut().map(|t| &mut t.decode))?;
        }
        Ok(())
    }

    /// Sends exchange `k` on every connection, then waits for every
    /// reply.
    fn exchange(&mut self, k: u64, mut codec: Option<&mut Codec>) -> io::Result<()> {
        self.send(k, codec.as_deref_mut())?;
        self.recv(codec)
    }

    /// One round: one batch round trip.
    fn round(&mut self, codec: Option<&mut Codec>) -> io::Result<()> {
        self.trips += 1;
        self.exchange(self.trips, codec)
    }

    /// Closes every session, shuts the daemon down, and waits for it.
    fn stop(&mut self) -> io::Result<DaemonReport> {
        self.exchange(self.trips + 1, None)?;
        for conn in &self.conns {
            conn.stream.shutdown(Shutdown::Both)?;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.daemon
            .take()
            .expect("stop runs once")
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // A set-up discarded before its rounds, or an error mid-run:
        // still stop the daemon thread and wait for it.
        if let Some(h) = self.daemon.take() {
            for conn in &self.conns {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
    }
}

/// What replaying a connection's exchanges in process found.
#[derive(Default)]
struct Oracle {
    /// Exchanges whose reply differs from the in-process server's bytes.
    mismatches: u64,
    /// `Response::Error` frames.
    errors: u64,
    /// Host µs of `Server::run_script` for each round.
    round_us: Vec<f64>,
    /// Largest completion per session over the check rounds.
    check_busy: Vec<(u64, Time)>,
}

/// Replays connection `c`'s exchanges through a fresh in-process server,
/// one `Server::run_script` per exchange, and compares its bytes with
/// the replies the daemon sent.
fn oracle(s: &Served, c: usize) -> io::Result<Oracle> {
    let mut server = build_server(ServerConfig::with_workers(CONNS));
    let mut out = Oracle::default();
    for (k, &got) in s.conns[c].replies.iter().enumerate() {
        let k = k as u64;
        let cmds: Vec<Command> = sids(s.base, c)
            .map(|sid| exchange_cmd(s.seed, s.trips, k, sid))
            .collect();
        let script = encode(&cmds);
        let t0 = Instant::now();
        let want = server.run_script(&script).map_err(io::Error::other)?;
        if (1..=s.trips).contains(&k) {
            out.round_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let mut d = Digest::default();
        d.bytes(&want);
        if d.value() != got {
            out.mismatches += 1;
        }
        for r in decode_responses(&want).map_err(io::Error::other)? {
            match r {
                Response::Error { .. } => out.errors += 1,
                Response::BatchDone {
                    sid, completions, ..
                } if k <= CHECK_ROUNDS => {
                    let last = completions.iter().max().copied().unwrap_or(Time::ZERO);
                    match out.check_busy.iter_mut().find(|(s, _)| *s == sid) {
                        Some(e) => e.1 = e.1.max(last),
                        None => out.check_busy.push((sid, last)),
                    }
                }
                _ => {}
            }
        }
    }
    Ok(out)
}

/// What checking a finished run against the in-process oracle found.
struct Checked {
    /// Digest of the reply bytes of the opens and the check rounds.
    digest: u64,
    /// In-process host µs of each round, both connections together.
    inproc_us: Vec<f64>,
    /// VANS accuracy against the reference machine over the check
    /// rounds.
    accuracy: f64,
}

/// Compares every reply of a stopped run with the in-process oracle,
/// counting mismatches and error responses as failures in `out`.
fn check(s: &Served, out: &mut Outcome) -> io::Result<Checked> {
    let mut digest = Digest::default();
    let mut inproc_us = vec![0.0; s.trips as usize];
    let mut busy = Vec::new();
    for c in 0..CONNS {
        let o = oracle(s, c)?;
        if o.mismatches > 0 {
            out.fail(format!(
                "{} replies differ from the in-process oracle",
                o.mismatches
            ));
        }
        if o.errors > 0 {
            out.fail(format!("{} error responses", o.errors));
        }
        for (acc, us) in inproc_us.iter_mut().zip(&o.round_us) {
            *acc += us;
        }
        for &r in s.conns[c].replies.iter().take(1 + CHECK_ROUNDS as usize) {
            digest.u64(r);
        }
        busy.extend(o.check_busy);
    }

    // VANS against the reference machine on the same batches.
    let busy_ns = |k: BackendKind| {
        let sid = s.base
            + BackendKind::ALL
                .iter()
                .position(|&x| x == k)
                .expect("listed") as u64;
        busy.iter()
            .find(|b| b.0 == sid)
            .map_or(0.0, |b| b.1.as_ns_f64())
    };
    let (vans, reference) = (
        busy_ns(BackendKind::Vans),
        busy_ns(BackendKind::OptaneReference),
    );
    Ok(Checked {
        digest: digest.value(),
        inproc_us,
        accuracy: 100.0 * (1.0 - (vans - reference).abs() / reference),
    })
}

/// Starts a daemon, runs only the check rounds, untraced, and returns
/// their digest, with the failures of the oracle check.
pub fn check_only(seed: u64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut s = Served::start(seed)?;
    for _ in 0..CHECK_ROUNDS {
        s.round(None)?;
    }
    s.stop()?;
    out.attempted = s.trips * BackendKind::ALL.len() as u64 * BATCH;
    out.digest = check(&s, &mut out)?.digest;
    Ok(out)
}

/// Runs `serve_socket`: set-ups, then `seconds` of rounds.
pub fn run(seed: u64, seconds: f64, trace: bool) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut served = None;
    for _ in 0..reps {
        drop(served.take());
        let t0 = Instant::now();
        served = Some(Served::start(seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut s = served.expect("at least one set-up");
    let mut codec = Codec::default();
    let mut failure = None;
    let rounds = stats::timed_loop(
        seconds,
        CHECK_ROUNDS,
        trace,
        |_, tr| {
            if failure.is_none() {
                failure = s.round(tr.then_some(&mut codec)).err();
            }
        },
        |_| {},
    );
    if let Some(e) = failure {
        return Err(e);
    }
    let report = s.stop()?;
    out.attempted = s.trips * BackendKind::ALL.len() as u64 * BATCH;
    let checked = check(&s, &mut out)?;
    out.digest = checked.digest;

    let (plain, traced) = stats::split(&rounds);
    if trace {
        let inproc_p50 = checked
            .inproc_us
            .iter()
            .copied()
            .collect::<stats::Rounds>()
            .p50_us();
        out.metric("nvsim-serve.inproc_round_us", inproc_p50, "us");
        out.metric(
            "nvsim-serve.transport_tax_us",
            plain.p50_us() - inproc_p50,
            "us",
        );
        let per = |(n, ns): (u64, f64)| ns / n.max(1) as f64;
        out.metric("nvsim-serve.encode_ns_per_cmd", per(codec.encode), "ns");
        out.metric("nvsim-serve.decode_ns_per_rsp", per(codec.decode), "ns");
        out.metric(
            "nvsim-serve.cycles_per_round",
            report.cycles as f64 / rounds.len() as f64,
            "count",
        );
        out.trace_overhead(&plain, &traced);
    } else {
        let per_round = (BackendKind::ALL.len() as u64 * BATCH) as f64;
        let per_s = per_round / (plain.p50_us() / 1e6);
        out.metric("setup_s", stats::median(&setups), "s");
        out.metric("requests_per_s", per_s, "1/s");
        out.metric("sim_instructions_per_s", per_s, "1/s");
        out.round_metrics(&plain, TAIL_MAX_PCT);
        out.metric("peak_rss_mib", stats::peak_rss_mib(), "MiB");
        out.metric("accuracy_pct", checked.accuracy, "%");
    }
    Ok(out)
}
