//! `redis_sampled`: `nvsim_workloads::Redis` on `nvsim-cpu`'s
//! Cascade-Lake-like core over one VANS DIMM, sampled like figs 12a and
//! 13. Each window is a functional-warming fast-forward, then snapshots
//! of system, core and workload, then a detailed window.

use crate::layers::{self, LayerCounters, ServedSplit, SharedBreakdown};
use crate::stats::{self, Digest, HostProbe, Outcome, Round};
use nvsim::cpu::{Core, CoreConfig, RunReport};
use nvsim::optane_model::{OptaneReference, ReferenceBackend};
use nvsim::types::snapshot::{restore_blob, save_blob, SnapshotError};
use nvsim::types::{
    Addr, BackendCounters, BackendError, CrashImage, FaultPlan, LatencyBreakdown, MemoryBackend,
    NullSink, ReqId, RequestDesc, SessionOptions, Time,
};
use nvsim::vans::{MemorySystem, VansConfig};
use nvsim::workloads::{Redis, Workload};
use std::time::Instant;

/// Instructions per round.
const ROUND_INSTR: u64 = 10_000;
/// Fast-forward rounds per window.
const FF_ROUNDS: u64 = 40;
/// Detailed rounds per window that absorb timing state the warm path
/// does not carry; their reports are hashed but not measured.
const WARMUP_ROUNDS: u64 = 2;
/// Measured detailed rounds per window.
const DETAIL_ROUNDS: u64 = 5;
/// Rounds per window: odd, so that traced and untraced rounds (which
/// alternate) fall on every kind of round over successive windows.
const WINDOW_ROUNDS: u64 = FF_ROUNDS + WARMUP_ROUNDS + DETAIL_ROUNDS;
/// Windows the digest and the accuracy cover.
const CHECK_WINDOWS: u64 = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Highest percentile reported as the round tail: the slow rounds are
/// the snapshot and detailed rounds of every window, so the tail is the
/// workload's own and p99 repeats.
const TAIL_MAX_PCT: f64 = 99.0;
/// Instructions fast-forwarded at set-up, so timed windows start from a
/// warmed hash table.
const SETUP_WARM: u64 = 4_000_000;
/// Pages of traced detailed requests replayed through the standalone
/// layers in a traced run.
const REPLAY_PAGES: usize = 1 << 17;

/// VANS behind a probe that counts the calls the core makes into it,
/// times them while `timing` is set, and checks that no request
/// completes before it was issued.
struct Probe {
    inner: MemorySystem,
    timing: bool,
    /// Calls of `warm_access` and of `submit`.
    warms: u64,
    submits: u64,
    /// `(calls, host ns)` of `warm_access` while timing.
    warm: (u64, f64),
    /// `(calls, host ns)` of `submit` while timing.
    submit: (u64, f64),
    /// The same `submit` time, split by the layer that served each one.
    served: ServedSplit,
    /// Pages of the first [`REPLAY_PAGES`] requests submitted while
    /// timing.
    pages: Vec<u64>,
    /// Host ns of the counter reads around each timed `submit`: part of
    /// the backend call as the core sees it, but not of `submit`.
    split_ns: f64,
    /// Issue times of requests whose completion was not taken yet.
    in_flight: Vec<(ReqId, Time)>,
    /// Completions earlier than their issue.
    early: u64,
}

impl Probe {
    /// Host ns spent below the core while timing.
    fn host_ns(&self) -> f64 {
        self.warm.1 + self.submit.1 + self.split_ns
    }
}

impl MemoryBackend for Probe {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let issued = self.inner.now();
        self.submits += 1;
        let id = if self.timing {
            if self.pages.len() < REPLAY_PAGES {
                self.pages.push(desc.addr.raw() / layers::PAGE);
            }
            let t0 = Instant::now();
            let (id, ns) = self
                .served
                .time(&mut self.inner, desc.op, |m| m.submit(desc));
            self.submit.0 += 1;
            self.submit.1 += ns;
            self.split_ns += t0.elapsed().as_nanos() as f64 - ns;
            id
        } else {
            self.inner.submit(desc)
        };
        self.in_flight.push((id, issued));
        id
    }
    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        let done = self.inner.try_take_completion(id)?;
        if let Some(i) = self.in_flight.iter().position(|&(r, _)| r == id) {
            if done < self.in_flight.swap_remove(i).1 {
                self.early += 1;
            }
        }
        Ok(done)
    }
    fn drain(&mut self) -> Time {
        let done = self.inner.drain();
        self.early += self.in_flight.drain(..).filter(|&(_, t)| done < t).count() as u64;
        done
    }
    fn skip_to(&mut self, t: Time) {
        self.inner.skip_to(t)
    }
    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }
    fn reset_counters(&mut self) {
        self.inner.reset_counters()
    }
    fn models_persistence_ops(&self) -> bool {
        self.inner.models_persistence_ops()
    }
    fn mkpt_lookup(&mut self, paddr: Addr, t: Time) -> Option<(u64, Time)> {
        self.inner.mkpt_lookup(paddr, t)
    }
    fn mkpt_update(&mut self, paddr: Addr, pfn: u64) {
        self.inner.mkpt_update(paddr, pfn)
    }
    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        self.inner.configure_session(opts)
    }
    fn inject_power_loss(&self, plan: &FaultPlan) -> Option<CrashImage> {
        MemoryBackend::inject_power_loss(&self.inner, plan)
    }
    fn breakdown(&self) -> Option<LatencyBreakdown> {
        self.inner.breakdown()
    }
    fn save_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.save_snapshot()
    }
    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        self.inner.restore_snapshot(blob)
    }
    fn warm_access(&mut self, desc: &RequestDesc) {
        self.warms += 1;
        if self.timing {
            let t0 = Instant::now();
            self.inner.warm_access(desc);
            self.warm.0 += 1;
            self.warm.1 += t0.elapsed().as_nanos() as f64;
        } else {
            self.inner.warm_access(desc);
        }
    }
}

/// Host-time split of traced rounds, by layer.
#[derive(Debug, Default)]
struct HostSplit {
    /// `(instructions, ns)` in `Workload::generate`.
    generate: (u64, f64),
    /// `(instructions, ns)` in `Core::warm_run`, backend time included.
    warm: (u64, f64),
    /// `(instructions, ns)` in `Core::run`, backend time included.
    detailed: (u64, f64),
    /// Backend ns inside warm rounds and inside detailed rounds.
    backend_warm: f64,
    backend_detailed: f64,
}

/// Sums of the measured detailed reports.
#[derive(Debug, Default)]
struct Measured {
    instructions: u64,
    cycles: f64,
    llc_misses: u64,
    tlb_walks: u64,
}

/// A warmed Redis simulation.
pub struct Sampled {
    seed: u64,
    sys: Probe,
    core: Core,
    wl: Redis,
    /// Stage breakdown of the detailed requests of traced rounds.
    sink: SharedBreakdown,
    /// Instructions simulated in timed rounds (warm and detailed).
    instructions: u64,
    digest: Digest,
    host: HostSplit,
    measured: Measured,
    /// Per window: snapshot save ms and total blob bytes.
    saves: Vec<(f64, usize)>,
    /// Core and workload blobs of the check windows, and the simulated
    /// time of each check window's measured rounds on VANS.
    check: Vec<(Vec<u8>, Vec<u8>, Time)>,
}

fn fold_report(d: &mut Digest, r: &RunReport) {
    for v in [
        r.instructions,
        r.cycles.to_bits(),
        r.exec_time.as_ps(),
        r.llc_misses,
        r.llc_references,
        r.tlb_walks,
    ] {
        d.u64(v);
    }
}

impl Sampled {
    /// Builds the simulation and fast-forwards [`SETUP_WARM`] instructions.
    pub fn new(seed: u64) -> Self {
        let inner = MemorySystem::new(VansConfig::optane_1dimm()).expect("preset config is valid");
        let mut s = Sampled {
            seed,
            sys: Probe {
                inner,
                timing: false,
                warms: 0,
                submits: 0,
                warm: (0, 0.0),
                submit: (0, 0.0),
                served: ServedSplit::default(),
                pages: Vec::new(),
                split_ns: 0.0,
                in_flight: Vec::new(),
                early: 0,
            },
            core: Core::new(CoreConfig::cascade_lake_like()),
            wl: Redis::new(seed),
            sink: SharedBreakdown::default(),
            instructions: 0,
            digest: Digest::default(),
            host: HostSplit::default(),
            measured: Measured::default(),
            saves: Vec::new(),
            check: Vec::new(),
        };
        let mut left = SETUP_WARM;
        while left > 0 {
            let trace = s.wl.generate(left.min(ROUND_INSTR));
            left = left.saturating_sub(s.core.warm_run(trace.into_iter(), &mut s.sys));
        }
        s
    }

    /// Round `i` of the timed phase: a fast-forward round, ending with
    /// the window's snapshots, or a detailed round. A traced round
    /// installs the shared stage breakdown for its duration.
    fn round(&mut self, i: u64, traced: bool) {
        let (w, r) = (i / WINDOW_ROUNDS, i % WINDOW_ROUNDS);
        let backend_before = self.sys.host_ns();
        self.sys.timing = traced;
        if traced {
            let opts = SessionOptions::new().trace_sink(Box::new(self.sink.clone()));
            self.sys.inner.configure_session(opts);
        }
        let t0 = Instant::now();
        let trace = self.wl.generate(ROUND_INSTR);
        let gen_ns = t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        let n = if r < FF_ROUNDS {
            self.core.warm_run(trace.into_iter(), &mut self.sys)
        } else {
            let report = self.core.run(trace.into_iter(), &mut self.sys);
            if w < CHECK_WINDOWS {
                fold_report(&mut self.digest, &report);
            }
            if r >= FF_ROUNDS + WARMUP_ROUNDS {
                let m = &mut self.measured;
                m.instructions += report.instructions;
                m.cycles += report.cycles;
                m.llc_misses += report.llc_misses;
                m.tlb_walks += report.tlb_walks;
                if w < CHECK_WINDOWS {
                    self.check[w as usize].2 += report.exec_time;
                }
            }
            report.instructions
        };
        let sim_ns = t1.elapsed().as_nanos() as f64;
        self.sys.timing = false;
        if traced {
            let opts = SessionOptions::new().trace_sink(Box::new(NullSink));
            self.sys.inner.configure_session(opts);
            let backend = self.sys.host_ns() - backend_before;
            let h = &mut self.host;
            h.generate.0 += n;
            h.generate.1 += gen_ns;
            if r < FF_ROUNDS {
                h.warm.0 += n;
                h.warm.1 += sim_ns;
                h.backend_warm += backend;
            } else {
                h.detailed.0 += n;
                h.detailed.1 += sim_ns;
                h.backend_detailed += backend;
            }
        }
        self.instructions += n;
        if r == FF_ROUNDS - 1 {
            self.save(w);
        }
    }

    /// Snapshots system, core and workload at the end of window `w`'s
    /// fast-forward, as a sampled run's checkpoint chain does.
    fn save(&mut self, w: u64) {
        let t0 = Instant::now();
        let system = self.sys.save_snapshot().expect("VANS supports snapshots");
        let core = save_blob(&self.core);
        let wl = self.wl.save_state().expect("Redis supports checkpointing");
        self.saves.push((
            t0.elapsed().as_secs_f64() * 1e3,
            system.len() + core.len() + wl.len(),
        ));
        if w < CHECK_WINDOWS {
            for blob in [&system, &core, &wl] {
                self.digest.bytes(blob);
            }
            self.check.push((core, wl, Time::ZERO));
        }
    }

    /// Closes the check windows: folds the counters into the digest.
    fn finish_digest(&mut self) {
        for v in self.sys.counters().as_map().values() {
            self.digest.u64(*v);
        }
    }

    /// Replays each check window's detailed rounds on the reference
    /// machine, from the window's core and workload snapshots, and
    /// returns VANS's accuracy against it in percent. `None` if a
    /// snapshot does not restore.
    fn accuracy(&self) -> Option<f64> {
        let (mut vans, mut reference) = (0.0, 0.0);
        for (core_blob, wl_blob, vans_time) in &self.check {
            let mut core = Core::new(CoreConfig::cascade_lake_like());
            restore_blob(&mut core, core_blob).ok()?;
            let mut wl = Redis::new(self.seed);
            if !wl.restore_state(wl_blob).ok()? {
                return None;
            }
            let mut mem = ReferenceBackend::new(OptaneReference::new(), 1);
            for r in FF_ROUNDS..WINDOW_ROUNDS {
                let report = core.run(wl.generate(ROUND_INSTR).into_iter(), &mut mem);
                if r >= FF_ROUNDS + WARMUP_ROUNDS {
                    reference += report.exec_time.as_ns_f64();
                }
            }
            vans += vans_time.as_ns_f64();
        }
        Some(100.0 * (1.0 - (vans - reference).abs() / reference))
    }
}

/// Builds a simulation and runs only its check windows, untraced;
/// returns the digest and the accuracy.
pub fn check_only(seed: u64) -> (u64, f64) {
    let mut s = Sampled::new(seed);
    for i in 0..CHECK_WINDOWS * WINDOW_ROUNDS {
        s.round(i, false);
    }
    s.finish_digest();
    (s.digest.value(), s.accuracy().unwrap_or(0.0))
}

/// Runs `redis_sampled`: set-ups, then `seconds` of windows.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let reps = if trace { 1 } else { SETUP_REPS };
    let (mut s, setup_s) = stats::repeated_setup(reps, || Sampled::new(seed));
    let before = LayerCounters::read(&s.sys.inner);
    let submits_before = s.sys.submits;
    let calls_before = s.sys.warms + s.sys.submits;
    let check_rounds = CHECK_WINDOWS * WINDOW_ROUNDS;
    let mut probe = HostProbe::default();
    probe.sample();
    let rounds: Vec<Round> = stats::timed_loop(
        seconds,
        check_rounds,
        trace,
        |i, tr| {
            s.round(i, tr);
            if i + 1 == check_rounds {
                s.finish_digest();
            }
        },
        |i| {
            if i % WINDOW_ROUNDS == WINDOW_ROUNDS - 1 {
                probe.sample();
            }
        },
    );
    out.attempted = s.instructions;
    out.digest = s.digest.value();
    if s.sys.early > 0 {
        out.fail(format!("{} completions before their issue", s.sys.early));
    }
    let accuracy = s.accuracy().unwrap_or_else(|| {
        out.fail("a check-window snapshot did not restore");
        0.0
    });
    let (plain, traced) = stats::split(&rounds);
    if trace {
        let submits = s.sys.submits - submits_before;
        for (name, v, unit) in LayerCounters::read(&s.sys.inner).metrics_since(&before, submits) {
            out.metric(name, v, unit);
        }
        let h = &s.host;
        let per = |(n, ns): (u64, f64)| ns / n.max(1) as f64;
        out.metric(
            "nvsim-cpu.host_ns_per_instr.warm",
            per((h.warm.0, h.warm.1 - h.backend_warm)),
            "ns/instr",
        );
        out.metric(
            "nvsim-cpu.host_ns_per_instr.detailed",
            per((h.detailed.0, h.detailed.1 - h.backend_detailed)),
            "ns/instr",
        );
        for (name, v) in s.sys.served.metrics() {
            out.metric(name, v, "ns");
        }
        for (name, v) in s.sink.metrics() {
            out.metric(name, v, "ns");
        }
        let cfg = s.sys.inner.config();
        for (name, v) in layers::replay(cfg, &s.sys.pages) {
            out.metric(name, v, "ns");
        }
        out.metric("vans.host_ns.warm_access", per(s.sys.warm), "ns");
        out.metric("vans.host_ns.detailed_req", per(s.sys.submit), "ns");
        out.metric(
            "nvsim-workloads.host_ns_per_instr",
            per(h.generate),
            "ns/instr",
        );
        let n = s.saves.len().max(1) as f64;
        out.metric(
            "snapshot.save_ms_per_window",
            s.saves.iter().map(|x| x.0).sum::<f64>() / n,
            "ms",
        );
        out.metric(
            "snapshot.blob_kib",
            s.saves.iter().map(|x| x.1 as f64).sum::<f64>() / n / 1024.0,
            "KiB",
        );
        out.metric(
            "nvsim-cpu.backend_share",
            (h.backend_warm + h.backend_detailed) / (h.warm.1 + h.detailed.1),
            "ratio",
        );
        let m = &s.measured;
        let kinstr = m.instructions as f64 / 1000.0;
        out.metric("nvsim-cpu.ipc", m.instructions as f64 / m.cycles, "ratio");
        out.metric(
            "nvsim-cpu.llc_mpki",
            m.llc_misses as f64 / kinstr,
            "1/kinstr",
        );
        out.metric(
            "nvsim-cpu.tlb_mpki",
            m.tlb_walks as f64 / kinstr,
            "1/kinstr",
        );
        out.metric("bench.host_probe_us", probe.median_us(), "us");
        out.trace_overhead(&plain, &traced);
    } else {
        // Host times at the reference host speed (see `HostProbe`).
        let scale = probe.scale();
        // A window's host time, robust to stalls of the shared host: the
        // median time of each kind of round, times the rounds of that
        // kind per window.
        let time_of = |kind: &dyn Fn(u64) -> bool| {
            let times: Vec<f64> = (0..rounds.len())
                .filter(|&i| kind(i as u64 % WINDOW_ROUNDS))
                .map(|i| rounds[i].us)
                .collect();
            stats::median(&times)
        };
        let window_s = (time_of(&|r| r + 1 < FF_ROUNDS) * (FF_ROUNDS - 1) as f64
            + time_of(&|r| r + 1 == FF_ROUNDS)
            + time_of(&|r| r >= FF_ROUNDS) * (WARMUP_ROUNDS + DETAIL_ROUNDS) as f64)
            / 1e6
            * scale;
        let instr_per_window = s.instructions as f64 / rounds.len() as f64 * WINDOW_ROUNDS as f64;
        let calls = (s.sys.warms + s.sys.submits - calls_before) as f64;
        let sim_per_s = instr_per_window / window_s;
        out.notes.push(format!(
            "host probe: median {:.1} us over {} samples; host times scaled by {scale:.4}; \
             unscaled: setup_s {setup_s:.4}, sim_instructions_per_s {:.0}, round_p50_us {:.1}",
            probe.median_us(),
            probe.samples(),
            sim_per_s * scale,
            plain.p50_us(),
        ));
        out.metric("setup_s", setup_s * scale, "s");
        out.metric(
            "requests_per_s",
            sim_per_s * calls / s.instructions as f64,
            "1/s",
        );
        out.metric("sim_instructions_per_s", sim_per_s, "1/s");
        out.round_metrics(&plain.scaled(scale), TAIL_MAX_PCT);
        out.metric("peak_rss_mib", stats::peak_rss_mib(), "MiB");
        out.metric("accuracy_pct", accuracy, "%");
    }
    out
}
