//! Measurement primitives shared by every workload: round-time
//! percentiles, the simulated-output digest, process memory, and the
//! printed result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Tail percentiles tried from the highest down; the tail metric uses the
/// first one, up to a workload's cap, that leaves at least
/// [`TAIL_SAMPLES`] rounds beyond it. The steps are coarse so that runs
/// of one workload, whose round counts differ with host speed, report the
/// same percentile.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Rounds that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`TAIL_LADDER`], at most `max_pct`, with at
/// least [`TAIL_SAMPLES`] of `n` samples strictly beyond its nearest-rank
/// position (50 for tiny samples, where no tail exists).
pub fn tail_percentile(n: usize, max_pct: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| p <= max_pct && n - nearest_rank(n, p) >= TAIL_SAMPLES)
        .unwrap_or(50.0)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Host times of a set of rounds, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    us: Vec<f64>,
}

impl FromIterator<f64> for Rounds {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Rounds {
            us: iter.into_iter().collect(),
        }
    }
}

impl Rounds {
    /// Rounds recorded.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Whether no round was recorded.
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// The same rounds with every time multiplied by `k`.
    pub fn scaled(&self, k: f64) -> Rounds {
        self.us.iter().map(|us| us * k).collect()
    }

    /// Mean round time, in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.us.iter().sum::<f64>() / self.us.len().max(1) as f64
    }

    /// Median round time, in microseconds.
    pub fn p50_us(&self) -> f64 {
        median(&self.us)
    }

    /// Tail of the round times, as `(tail_us, tail_pct)`; the percentile
    /// is [`tail_percentile`] of the round count, at most `max_pct`.
    pub fn tail(&self, max_pct: f64) -> (f64, f64) {
        let mut v = self.us.clone();
        v.sort_by(f64::total_cmp);
        let p = tail_percentile(v.len(), max_pct);
        (percentile(&v, p), p)
    }
}

/// One timed round: whether it was traced and its host time.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Whether the round ran with tracing on.
    pub traced: bool,
    /// Host time, microseconds.
    pub us: f64,
}

/// The untraced and the traced rounds of `rounds`.
pub fn split(rounds: &[Round]) -> (Rounds, Rounds) {
    let pick = |t: bool| {
        rounds
            .iter()
            .filter(|r| r.traced == t)
            .map(|r| r.us)
            .collect()
    };
    (pick(false), pick(true))
}

/// Runs `round` until `seconds` of wall time have passed and at least
/// `min_rounds` rounds ran, timing each call, and calls `between` with
/// the round index after each round, untimed. `round` receives the round
/// index and whether it is a traced round: with `trace` set, every other
/// round is traced, so traced and untraced rounds see the same machine
/// conditions.
pub fn timed_loop(
    seconds: f64,
    min_rounds: u64,
    trace: bool,
    mut round: impl FnMut(u64, bool),
    mut between: impl FnMut(u64),
) -> Vec<Round> {
    let mut out = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && i % 2 == 1;
        let t0 = Instant::now();
        round(i, traced);
        out.push(Round {
            traced,
            us: t0.elapsed().as_secs_f64() * 1e6,
        });
        between(i);
        i += 1;
    }
    out
}

/// 64-bit words in the host-speed probe's table: 4 MiB, more than a
/// core's private L2 holds, so most of its accesses reach the shared L3.
const PROBE_WORDS: usize = 1 << 19;
/// Random read-modify-writes per probe sample.
const PROBE_STEPS: u64 = 40_000;
/// The probe time, in µs, at which scaled host times are expressed.
pub const PROBE_REF_US: f64 = 500.0;

/// A fixed memory-bound loop, no part of the program under test, that
/// gauges how fast the shared host runs code while a workload runs. On a
/// shared VM the simulator slowed by up to a third for minutes at a
/// time; the probe slows with it, so host times scaled by
/// [`HostProbe::scale`] compare across runs taken in different host
/// states (see README.md).
pub struct HostProbe {
    table: Vec<u64>,
    us: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            table: vec![0; PROBE_WORDS],
            us: Vec::new(),
        }
    }
}

impl HostProbe {
    /// Sweeps the table once, so that it is cached whatever ran before,
    /// then times [`PROBE_STEPS`] random read-modify-writes of it.
    pub fn sample(&mut self) {
        for w in &mut self.table {
            *w = w.wrapping_add(1);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ self.us.len() as u64;
        let t0 = Instant::now();
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = &mut self.table[x as usize % PROBE_WORDS];
            *w = w.wrapping_add(x);
        }
        self.us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&self.table);
    }

    /// Median probe time, in µs.
    pub fn median_us(&self) -> f64 {
        median(&self.us)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.us.len()
    }

    /// The factor that turns a host time measured in this run into the
    /// host time at a probe time of [`PROBE_REF_US`].
    pub fn scale(&self) -> f64 {
        PROBE_REF_US / self.median_us()
    }
}

/// FNV-1a, 64-bit: the digest of a workload's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64` into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Times `reps` independent set-ups and keeps the last one built.
/// Returns it with the median set-up time in seconds. Each earlier
/// set-up is dropped before the next starts, so peak memory stays that
/// of one set-up.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `us`, `MiB`, `%`, `count`.
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, instructions or batch requests).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Digest of the workload's deterministic check window.
    pub digest: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts a failed check and records why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// Adds the round-time metrics (`round_p50_us`, `round_p99_us`, the
    /// tail percentile capped at `max_pct`) and notes which percentile the
    /// tail is and over how many rounds.
    pub fn round_metrics(&mut self, rounds: &Rounds, max_pct: f64) {
        let (tail, p) = rounds.tail(max_pct);
        self.metric("round_p50_us", rounds.p50_us(), "us");
        self.metric("round_p99_us", tail, "us");
        self.notes.push(format!(
            "round_p99_us is p{p} of {} rounds ({} beyond it)",
            rounds.len(),
            rounds.len() - nearest_rank(rounds.len(), p)
        ));
    }

    /// Adds `bench.trace_overhead_pct`: how much longer a traced round
    /// took than an untraced one, on average, in percent.
    pub fn trace_overhead(&mut self, plain: &Rounds, traced: &Rounds) {
        let pct = 100.0 * (traced.mean_us() / plain.mean_us() - 1.0);
        self.metric("bench.trace_overhead_pct", pct, "%");
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value or an invalid name is
    /// a failed check, never a printed NaN.
    pub fn json(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite() || !valid_metric_name(&m.name))
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.fail(format!(
                "metric {name} is not a finite, validly named value"
            ));
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
