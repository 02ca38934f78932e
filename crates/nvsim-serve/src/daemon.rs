//! The daemon event loops: real sockets and stdio around the
//! [`TransportMux`].
//!
//! Two drivers share the transport layer:
//!
//! * [`serve_listener`] — the socket daemon. A non-blocking
//!   `TcpListener` event loop owns every connection and, when a pass
//!   makes no progress, blocks in one `poll(2)` readiness wait on the
//!   listener, the sockets and a wake fd the execution thread writes
//!   after each cycle. The [`Server`] lives on that dedicated execution
//!   thread fed over channels, so frame decode of one connection
//!   overlaps command execution of another (one [`FlushCycle`] in
//!   flight at a time —
//!   the pipelining never reorders anything, because the mux assembles
//!   cycles deterministically and responses are demultiplexed by
//!   command assignment, not completion time).
//! * [`serve_stream`] — the stdio/pipe path: one blocking connection
//!   stepped synchronously through a [`TransportEngine`].
//!
//! Graceful drain: when the shutdown flag flips (the binary's SIGTERM
//! handler sets it), the listener stops accepting and reading, every
//! queued command finishes, owed response bytes are flushed best-effort,
//! open sessions are released, warm sessions are parked to snapshot
//! blobs, and the loop returns a [`DaemonReport`] — the binary then
//! exits 0.
//!
//! This module is Driver-class code: it does real I/O, spawns the
//! execution thread, and waits on readiness with a wall-clock timeout.
//! Everything byte-relevant stays inside the deterministic
//! [`transport`](crate::transport) and [`server`](crate::server)
//! layers.

use crate::server::Server;
use crate::transport::{
    CompletedCycle, ConnId, FlushCycle, TransportConfig, TransportEngine, TransportMux,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Socket read size per syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Longest readiness wait, in milliseconds (taken only when a pass made
/// no progress). It bounds how long the poll clock (`mux.tick()`) and
/// the shutdown flag can go unobserved while every socket is quiet.
const WAIT_QUANTUM_MS: c_int = 1;

/// Passes without progress the drain phase spends flushing owed bytes
/// to slow readers before force-closing them.
const DRAIN_PASSES: usize = 2_000;

/// Poll passes a faulted connection stays half-closed (write side shut,
/// read side drained and discarded) after its owed bytes are flushed,
/// before the socket is dropped. Closing immediately would reset the
/// connection while the client is still mid-send — on Linux, unread
/// bytes in the receive buffer turn the close into an RST, which can
/// discard the final response bytes still in the client's receive path.
const LINGER_PASSES: usize = 200;

/// What a daemon loop did before returning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonReport {
    /// Connections accepted over the loop's lifetime.
    pub connections: u64,
    /// Flush cycles executed.
    pub cycles: u64,
    /// Sessions parked as snapshot blobs by the graceful drain.
    pub parked_sessions: usize,
    /// Event-loop passes of the socket daemon, the drain phase's flush
    /// passes included (0 for [`serve_stream`]). A quiet daemon makes
    /// about one pass per wait quantum; far more means it spins.
    pub polls: u64,
}

/// `poll(2)` event bits (Linux `<poll.h>`).
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

extern "C" {
    /// `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// The descriptors one readiness wait watches, rebuilt each pass.
#[derive(Default)]
struct WaitSet(Vec<PollFd>);

impl WaitSet {
    /// Watches `fd` for `events`. With no interest the entry gets
    /// `fd = -1`, which `poll` skips: it would otherwise still report
    /// `POLLHUP`/`POLLERR` for the socket, and a half-closed peer of a
    /// back-pressured connection would end every wait at once.
    fn watch(&mut self, fd: &impl AsRawFd, events: c_short) {
        let fd = if events == 0 { -1 } else { fd.as_raw_fd() };
        self.0.push(PollFd {
            fd,
            events,
            revents: 0,
        });
    }

    /// Blocks until a watched descriptor is ready or `timeout_ms`
    /// passes, then empties the set. A signal ending the wait early
    /// (`EINTR`) counts as a timeout.
    fn wait(&mut self, timeout_ms: c_int) -> io::Result<()> {
        let (fds, nfds) = (self.0.as_mut_ptr(), self.0.len() as c_ulong);
        // SAFETY: `fds` points at `nfds` initialized `repr(C)` pollfds, borrowed mutably for the call.
        let ready = unsafe { poll(fds, nfds, timeout_ms) };
        self.0.clear();
        if ready < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// The execution side of the pipeline: a thread that owns the server,
/// executes cycles sent to it, and parks every session when the channel
/// closes. After each completed cycle it writes one byte to the wake
/// socket, which ends the event loop's readiness wait.
struct ExecThread {
    cycle_tx: mpsc::Sender<FlushCycle>,
    done_rx: mpsc::Receiver<CompletedCycle>,
    wake_rx: UnixStream,
    handle: thread::JoinHandle<usize>,
}

fn spawn_exec(mut server: Server) -> io::Result<ExecThread> {
    let (cycle_tx, cycle_rx) = mpsc::channel::<FlushCycle>();
    let (done_tx, done_rx) = mpsc::channel::<CompletedCycle>();
    let (mut wake_tx, wake_rx) = UnixStream::pair()?;
    // Neither end ever blocks: a full wake buffer is already readable.
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let handle = thread::spawn(move || {
        while let Ok(cycle) = cycle_rx.recv() {
            let done = cycle.execute(&mut server);
            if done_tx.send(done).is_err() {
                break;
            }
            let _ = wake_tx.write(&[1]);
        }
        server.park_all()
    });
    Ok(ExecThread {
        cycle_tx,
        done_rx,
        wake_rx,
        handle,
    })
}

/// Reads and discards everything readable on a non-blocking socket.
/// Returns `false` once the peer has closed or the socket has failed.
fn discard_input(stream: &mut impl Read, buf: &mut [u8]) -> bool {
    loop {
        match stream.read(buf) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Writes as much pending output as the socket will take right now.
/// Returns whether any bytes moved; `Err` means the connection is dead.
fn pump_output(mux: &mut TransportMux, id: ConnId, stream: &mut TcpStream) -> io::Result<bool> {
    let mut moved = false;
    loop {
        let out = mux.output(id);
        if out.is_empty() {
            return Ok(moved);
        }
        match stream.write(out) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                mux.consume_output(id, n);
                moved = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(moved),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Runs the socket daemon until `shutdown` flips true, then drains
/// gracefully (see module docs). The listener is put into non-blocking
/// mode; connections are served round-robin with back-pressure and
/// fairness from the [`TransportMux`]. A pass that makes no progress
/// waits for readiness: the listener, each socket the mux wants read
/// (read interest) or owes bytes (write interest), each lingering
/// socket, and the execution thread's wake fd — for at most one wait
/// quantum, so the poll clock keeps ticking.
///
/// # Errors
///
/// Only loop-fatal I/O errors (the listener breaking, the execution
/// thread dying, its wake socket pair failing to open, a readiness wait
/// failing); per-connection errors tear down that connection only.
pub fn serve_listener(
    listener: TcpListener,
    server: Server,
    cfg: TransportConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<DaemonReport> {
    listener.set_nonblocking(true)?;
    let mut exec = spawn_exec(server)?;
    let mut mux = TransportMux::new(cfg);
    let mut socks: BTreeMap<ConnId, TcpStream> = BTreeMap::new();
    let mut report = DaemonReport::default();
    let mut cycle_in_flight = false;
    let mut buf = vec![0u8; READ_CHUNK];
    let mut draining = false;
    let mut lingering: Vec<(TcpStream, usize)> = Vec::new();
    let mut waits = WaitSet::default();

    loop {
        report.polls += 1;
        let mut progress = false;
        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
        }

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(true)?;
                        let _ = stream.set_nodelay(true);
                        let id = mux.accept();
                        socks.insert(id, stream);
                        report.connections += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }

        let mut dead: Vec<ConnId> = Vec::new();
        if !draining {
            for (&id, stream) in &mut socks {
                while mux.wants_read(id) {
                    match stream.read(&mut buf) {
                        Ok(0) => {
                            // Clean EOF (or mid-frame truncation — the mux
                            // poisons the connection for us either way).
                            let _ = mux.end_of_stream(id);
                            progress = true;
                            break;
                        }
                        Ok(n) => {
                            // A stream error is sticky in the mux; owed
                            // responses still drain before close.
                            let _ = mux.ingest(id, &buf[..n]);
                            progress = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
            }
        }

        if cycle_in_flight {
            // Empty the wake fd before looking for the result, so a
            // wake-up for a cycle finishing after this check survives.
            discard_input(&mut exec.wake_rx, &mut buf);
            match exec.done_rx.try_recv() {
                Ok(done) => {
                    mux.absorb(done);
                    cycle_in_flight = false;
                    report.cycles += 1;
                    progress = true;
                }
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    return Err(io::Error::other("execution thread died"));
                }
            }
        }
        if !cycle_in_flight {
            if let Some(cycle) = mux.begin_cycle() {
                if exec.cycle_tx.send(cycle).is_err() {
                    return Err(io::Error::other("execution thread died"));
                }
                cycle_in_flight = true;
                progress = true;
            }
        }

        for (&id, stream) in &mut socks {
            if dead.contains(&id) {
                continue;
            }
            match pump_output(&mut mux, id, stream) {
                Ok(moved) => progress |= moved,
                Err(_) => dead.push(id),
            }
        }

        let mut done_faulted: Vec<ConnId> = Vec::new();
        for (&id, stream) in &socks {
            if !dead.contains(&id) && mux.conn_done(id) {
                if mux.fault(id).is_some() {
                    // We stopped reading at the fault, so the client may
                    // still be mid-send. Half-close and linger instead of
                    // closing outright (see LINGER_PASSES).
                    done_faulted.push(id);
                } else {
                    let _ = stream.shutdown(Shutdown::Both);
                    dead.push(id);
                }
            }
        }
        for id in done_faulted {
            if let Some(stream) = socks.remove(&id) {
                let _ = stream.shutdown(Shutdown::Write);
                lingering.push((stream, LINGER_PASSES));
            }
            mux.disconnect(id);
            progress = true;
        }
        for id in dead.drain(..) {
            socks.remove(&id);
            mux.disconnect(id);
            progress = true;
        }

        // Drain and discard bytes from lingering half-closed sockets;
        // drop each once the client closes its side, errors, or the
        // pass budget runs out. Discarded bytes are not progress.
        lingering.retain_mut(|(stream, passes)| {
            if !discard_input(stream, &mut buf) {
                return false;
            }
            *passes -= 1;
            *passes > 0
        });

        if draining && socks.is_empty() && !cycle_in_flight && !mux.has_work() {
            break;
        }
        if draining && !socks.is_empty() && !cycle_in_flight && !mux.has_work() {
            // Queued work is done; give slow readers a bounded number of
            // passes to take their owed bytes, then force-close.
            let mut passes = 0;
            while passes < DRAIN_PASSES && !socks.is_empty() {
                report.polls += 1;
                let mut moved = false;
                let mut gone: Vec<ConnId> = Vec::new();
                for (&id, stream) in &mut socks {
                    match pump_output(&mut mux, id, stream) {
                        Ok(m) => {
                            moved |= m;
                            if mux.output(id).is_empty() {
                                let _ = stream.shutdown(Shutdown::Both);
                                gone.push(id);
                            }
                        }
                        Err(_) => gone.push(id),
                    }
                }
                for id in gone {
                    socks.remove(&id);
                    mux.disconnect(id);
                }
                if !moved {
                    // Every socket left still owes bytes.
                    for stream in socks.values() {
                        waits.watch(stream, POLLOUT);
                    }
                    waits.wait(WAIT_QUANTUM_MS)?;
                    passes += 1;
                }
            }
            for (id, stream) in std::mem::take(&mut socks) {
                let _ = stream.shutdown(Shutdown::Both);
                mux.disconnect(id);
            }
            continue; // run the cleanup cycles the disconnects queued
        }

        // The poll clock must advance every pass: gating the tick on an
        // idle pass would let any busy connection — including a
        // slow-trickle attacker itself — keep the clock frozen and the
        // IdlePartialFrame defense inert. Only the wait is gated.
        mux.tick();
        if !progress {
            if !draining {
                waits.watch(&listener, POLLIN);
            }
            // Only an in-flight cycle can be waited for: a wake-up byte
            // left over from a cycle already absorbed would otherwise end
            // every wait until the next cycle starts.
            if cycle_in_flight {
                waits.watch(&exec.wake_rx, POLLIN);
            }
            for (&id, stream) in &socks {
                let read = if !draining && mux.wants_read(id) {
                    POLLIN
                } else {
                    0
                };
                let write = if mux.output(id).is_empty() {
                    0
                } else {
                    POLLOUT
                };
                waits.watch(stream, read | write);
            }
            for (stream, _) in &lingering {
                waits.watch(stream, POLLIN);
            }
            waits.wait(WAIT_QUANTUM_MS)?;
        }
    }

    drop(exec.cycle_tx);
    report.parked_sessions = exec
        .handle
        .join()
        .map_err(|_| io::Error::other("execution thread panicked"))?;
    Ok(report)
}

/// Binds `addr` and runs [`serve_listener`], first reporting the bound
/// address through `on_bound` (the binary prints it so scripts can use
/// port 0 and parse the real port).
///
/// # Errors
///
/// Bind failures and loop-fatal I/O errors.
pub fn serve_addr(
    addr: impl ToSocketAddrs,
    server: Server,
    cfg: TransportConfig,
    shutdown: Arc<AtomicBool>,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> io::Result<DaemonReport> {
    let listener = TcpListener::bind(addr)?;
    on_bound(listener.local_addr()?);
    serve_listener(listener, server, cfg, shutdown)
}

/// Serves exactly one blocking byte stream (the `--stdio` transport and
/// the pipe-pair bench path): reads until EOF or a stream fault,
/// executing and writing responses incrementally.
///
/// # Errors
///
/// Real I/O errors on `reader`/`writer`. Stream faults (malformed
/// frames, truncation) are not I/O errors: owed responses are written,
/// then the function returns normally — the typed fault is in the
/// report's semantics, matching what a socket client observes (its
/// connection just closes).
pub fn serve_stream(
    mut reader: impl Read,
    mut writer: impl Write,
    server: Server,
    cfg: TransportConfig,
) -> io::Result<DaemonReport> {
    let mut engine = TransportEngine::new(server, cfg);
    let id = engine.mux().accept();
    let mut report = DaemonReport {
        connections: 1,
        ..DaemonReport::default()
    };
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        let n = match reader.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            let _ = engine.mux().end_of_stream(id);
            break;
        }
        if engine.mux().ingest(id, &buf[..n]).is_err() {
            break;
        }
        while engine.step() {
            report.cycles += 1;
        }
        let out = engine.mux().take_output(id);
        if !out.is_empty() {
            writer.write_all(&out)?;
            writer.flush()?;
        }
    }
    // Drain what is owed (pre-poison commands included), then park.
    while engine.step() {
        report.cycles += 1;
    }
    let out = engine.mux().take_output(id);
    if !out.is_empty() {
        writer.write_all(&out)?;
        writer.flush()?;
    }
    engine.mux().disconnect(id);
    while engine.step() {
        report.cycles += 1;
    }
    report.parked_sessions = engine.park_all();
    Ok(report)
}

/// Client helper: sends a complete script to a daemon and returns the
/// full response byte stream (writes, half-closes, reads to EOF).
///
/// # Errors
///
/// Connection or socket I/O failures.
pub fn client_round_trip(addr: impl ToSocketAddrs, script: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(script)?;
    stream.shutdown(Shutdown::Write)?;
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(out)
}

/// A shutdown flag wired for signal handlers: the daemon polls it, the
/// binary's SIGTERM/SIGINT handler stores `true`.
pub fn shutdown_flag() -> Arc<AtomicBool> {
    Arc::new(AtomicBool::new(false))
}
