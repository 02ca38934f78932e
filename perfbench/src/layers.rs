//! Per-layer measurements taken from outside the simulator: counters
//! read through each VANS layer's public `stats()`, and host time of
//! single layer calls replayed on standalone instances.

use nvsim::dram::DramModel;
use nvsim::media::{MediaAddr, MediaStats, WearTracker, XpointMedia};
use nvsim::types::{
    Addr, BackendCounters, BreakdownSink, LatencyBreakdown, MemOp, MemoryBackend, RequestTrace,
    Stage, Time, TraceSink,
};
use nvsim::vans::ait::AitStats;
use nvsim::vans::buffer::LruBuffer;
use nvsim::vans::imc::ImcStats;
use nvsim::vans::lsq::LsqStats;
use nvsim::vans::rmw::RmwStats;
use nvsim::vans::{MemorySystem, VansConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bytes per AIT page (the media access granule of an AIT miss).
pub const PAGE: u64 = 4096;

/// Counters of every VANS layer of DIMM 0 at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    imc: ImcStats,
    lsq: LsqStats,
    rmw: RmwStats,
    ait: AitStats,
    media: MediaStats,
}

impl LayerCounters {
    /// Reads the counters of `sys`'s first DIMM.
    pub fn read(sys: &MemorySystem) -> Self {
        let d = &sys.dimms()[0];
        LayerCounters {
            imc: d.imc.stats(),
            lsq: d.lsq.stats(),
            rmw: d.rmw.stats(),
            ait: d.ait.stats(),
            media: d.ait.media_stats(),
        }
    }

    /// Per-layer ratios over the interval from `before` to `self`,
    /// normalised by the `reqs` requests issued in it.
    pub fn metrics_since(
        &self,
        before: &LayerCounters,
        reqs: u64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let per_req = |d: u64| d as f64 / reqs.max(1) as f64;
        let per_kreq = |d: u64| per_req(d) * 1000.0;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let (a, b) = (self, before);
        let rmw_rh = a.rmw.read_hits - b.rmw.read_hits;
        let rmw_rm = a.rmw.read_misses - b.rmw.read_misses;
        let rmw_wh = a.rmw.write_hits - b.rmw.write_hits;
        let rmw_wm = a.rmw.write_misses - b.rmw.write_misses;
        let bh = a.ait.buffer_hits - b.ait.buffer_hits;
        let bm = a.ait.buffer_misses - b.ait.buffer_misses;
        let th = a.ait.translation_hits - b.ait.translation_hits;
        let tm = a.ait.translation_misses - b.ait.translation_misses;
        vec![
            (
                "vans.imc.wpq_stalls_per_kreq",
                per_kreq(a.imc.wpq_stalls - b.imc.wpq_stalls),
                "1/kreq",
            ),
            (
                "vans.imc.rpq_stalls_per_kreq",
                per_kreq(a.imc.rpq_stalls - b.imc.rpq_stalls),
                "1/kreq",
            ),
            (
                "vans.imc.wpq_drains_per_kreq",
                per_kreq(a.imc.wpq_drains - b.imc.wpq_drains),
                "1/kreq",
            ),
            (
                "vans.lsq.combine_ratio",
                ratio(
                    a.lsq.combined_drains - b.lsq.combined_drains,
                    a.lsq.drains - b.lsq.drains,
                ),
                "ratio",
            ),
            (
                "vans.rmw.read_hit_ratio",
                ratio(rmw_rh, rmw_rh + rmw_rm),
                "ratio",
            ),
            (
                "vans.rmw.write_hit_ratio",
                ratio(rmw_wh, rmw_wh + rmw_wm),
                "ratio",
            ),
            (
                "vans.rmw.fill_bytes_per_req",
                per_req(a.rmw.fill_bytes - b.rmw.fill_bytes),
                "B/req",
            ),
            ("vans.ait.buffer_hit_ratio", ratio(bh, bh + bm), "ratio"),
            (
                "vans.ait.translation_hit_ratio",
                ratio(th, th + tm),
                "ratio",
            ),
            (
                "vans.ait.writebacks_per_kreq",
                per_kreq(a.ait.writebacks - b.ait.writebacks),
                "1/kreq",
            ),
            (
                "nvsim-dram.accesses_per_req",
                per_req(a.ait.dram_accesses - b.ait.dram_accesses),
                "1/req",
            ),
            (
                "nvsim-media.bytes_read_per_req",
                per_req(a.media.bytes_read - b.media.bytes_read),
                "B/req",
            ),
            (
                "nvsim-media.bytes_written_per_req",
                per_req(a.media.bytes_written - b.media.bytes_written),
                "B/req",
            ),
            (
                "nvsim-media.wear_migrations",
                (a.ait.migrations - b.ait.migrations) as f64,
                "count",
            ),
        ]
    }
}

/// Names of the host-time classes, indexed by [`served`]'s result.
const SERVED: [&str; 6] = [
    "vans.host_ns.rmw_hit",
    "vans.host_ns.ait_hit",
    "vans.host_ns.ait_miss",
    "vans.host_ns.wpq_drain",
    "vans.host_ns.fence",
    "vans.host_ns.other",
];

/// The datapath layer that served a request, judged by the counters it
/// moved (an index into [`SERVED`]).
fn served(op: MemOp, d: &BackendCounters, drains: u64) -> usize {
    if op == MemOp::Fence {
        4
    } else if d.ait_misses > 0 {
        2
    } else if d.ait_hits > 0 {
        1
    } else if d.rmw_hits > 0 {
        0
    } else if drains > 0 {
        3
    } else {
        5
    }
}

/// Host time of VANS requests, split by the datapath layer that served
/// each one: `(host ns, requests)` per class of [`SERVED`].
#[derive(Debug, Default)]
pub struct ServedSplit([(f64, u64); 6]);

impl ServedSplit {
    /// Times `submit` of one `op` request on `sys` and charges the time
    /// to the layer that served it. Returns what `submit` returned and
    /// the host ns it took.
    pub fn time<T>(
        &mut self,
        sys: &mut MemorySystem,
        op: MemOp,
        submit: impl FnOnce(&mut MemorySystem) -> T,
    ) -> (T, f64) {
        let before = sys.counters();
        let drains_before = sys.dimms()[0].imc.stats().wpq_drains;
        let t0 = Instant::now();
        let out = submit(sys);
        let ns = t0.elapsed().as_nanos() as f64;
        let d = sys.counters().delta_since(&before);
        let drains = sys.dimms()[0].imc.stats().wpq_drains - drains_before;
        let slot = &mut self.0[served(op, &d, drains)];
        slot.0 += ns;
        slot.1 += 1;
        (out, ns)
    }

    /// Mean host ns per request of each class (`vans.host_ns.<class>`).
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        SERVED
            .iter()
            .zip(&self.0)
            .map(|(name, &(ns, n))| (*name, ns / n.max(1) as f64))
    }
}

/// A [`BreakdownSink`] shared between the benchmark and the simulator,
/// so tracing can be switched on and off per round without losing the
/// aggregate.
#[derive(Debug, Clone, Default)]
pub struct SharedBreakdown(Arc<Mutex<BreakdownSink>>);

impl TraceSink for SharedBreakdown {
    fn record(&mut self, trace: &RequestTrace) {
        self.0
            .lock()
            .expect("no thread panics while holding the breakdown")
            .record(trace);
    }
}

impl SharedBreakdown {
    /// Simulated ns per traced request spent in each [`Stage`]
    /// (`vans.sim_ns.<stage>`), zero for stages never entered.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b: LatencyBreakdown = self
            .0
            .lock()
            .expect("no thread panics while holding the breakdown")
            .breakdown()
            .unwrap_or_default();
        Stage::ALL
            .into_iter()
            .map(|s| {
                let total = b.row(s).map_or(0.0, |r| r.total_ns);
                (
                    format!("vans.sim_ns.{}", s.label()),
                    total / b.requests.max(1) as f64,
                )
            })
            .collect()
    }
}

/// Mean host ns of one call of `f`, over one call per item.
fn time_calls<T: Copy>(items: &[T], mut f: impl FnMut(T)) -> f64 {
    let t0 = Instant::now();
    for &x in items {
        f(x);
    }
    t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Host ns per call of the AIT's inner layers, replayed on standalone
/// instances built from `cfg` with the page sequence `pages` of a
/// workload, with the read flavour of the buffer and DRAM calls.
pub fn replay(cfg: &VansConfig, pages: &[u64]) -> Vec<(&'static str, f64)> {
    let mut buffer = LruBuffer::new(cfg.ait.buffer_entries as usize);
    let mut dram = DramModel::new(cfg.on_dimm_dram.clone()).expect("preset DRAM config is valid");
    let mut media_r = XpointMedia::new(cfg.media.clone()).expect("preset media config is valid");
    let mut media_w = XpointMedia::new(cfg.media.clone()).expect("preset media config is valid");
    let mut wear = WearTracker::new(cfg.wear).expect("preset wear config is valid");
    let media_addr = |p: u64| MediaAddr::new((p * PAGE) % cfg.media.capacity_bytes);
    let mut t = Time::ZERO;
    let touch = time_calls(pages, |p| {
        std::hint::black_box(buffer.touch(p, false));
    });
    let access = time_calls(pages, |p| {
        t = dram.access(Addr::new(p * PAGE + 64), false, t);
    });
    let mut t = Time::ZERO;
    let read = time_calls(pages, |p| {
        t = media_r.read(media_addr(p), PAGE as u32, t);
    });
    let mut t = Time::ZERO;
    let write_4k = time_calls(pages, |p| {
        t = media_w.write(media_addr(p), PAGE as u32, t);
    });
    let record = time_calls(pages, |p| {
        std::hint::black_box(wear.record_write(media_addr(p)));
    });
    vec![
        ("vans.buffer.host_ns.touch", touch),
        ("nvsim-dram.host_ns.access", access),
        ("nvsim-media.host_ns.read_4k", read),
        ("nvsim-media.host_ns.write_4k", write_4k),
        ("nvsim-media.wear.host_ns.record", record),
    ]
}
