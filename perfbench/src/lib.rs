//! The nvsim benchmark: two closed-loop workloads driven through the
//! public APIs of VANS, `nvsim-cpu`, `nvsim-workloads` and `nvsim-serve`.
//! See `README.md` next to this crate for what each workload and metric
//! means.

pub mod layers;
pub mod redis;
pub mod serve;
pub mod stats;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["redis_sampled", "serve_socket"];

/// End-to-end metrics every untraced run prints.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("sim_instructions_per_s", "1/s"),
    ("round_p50_us", "us"),
    ("round_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("accuracy_pct", "%"),
];

/// Per-layer metrics every traced run prints; a workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("vans.host_ns.rmw_hit", "ns"),
    ("vans.host_ns.ait_hit", "ns"),
    ("vans.host_ns.ait_miss", "ns"),
    ("vans.host_ns.wpq_drain", "ns"),
    ("vans.host_ns.fence", "ns"),
    ("vans.host_ns.other", "ns"),
    ("vans.buffer.host_ns.touch", "ns"),
    ("nvsim-dram.host_ns.access", "ns"),
    ("nvsim-media.host_ns.read_4k", "ns"),
    ("nvsim-media.host_ns.write_4k", "ns"),
    ("nvsim-media.wear.host_ns.record", "ns"),
    ("vans.imc.wpq_stalls_per_kreq", "1/kreq"),
    ("vans.imc.rpq_stalls_per_kreq", "1/kreq"),
    ("vans.imc.wpq_drains_per_kreq", "1/kreq"),
    ("vans.lsq.combine_ratio", "ratio"),
    ("vans.rmw.read_hit_ratio", "ratio"),
    ("vans.rmw.write_hit_ratio", "ratio"),
    ("vans.rmw.fill_bytes_per_req", "B/req"),
    ("vans.ait.buffer_hit_ratio", "ratio"),
    ("vans.ait.translation_hit_ratio", "ratio"),
    ("vans.ait.writebacks_per_kreq", "1/kreq"),
    ("nvsim-dram.accesses_per_req", "1/req"),
    ("nvsim-media.bytes_read_per_req", "B/req"),
    ("nvsim-media.bytes_written_per_req", "B/req"),
    ("nvsim-media.wear_migrations", "count"),
    ("vans.sim_ns.wpq_adr", "ns"),
    ("vans.sim_ns.rpq", "ns"),
    ("vans.sim_ns.ddrt_bus", "ns"),
    ("vans.sim_ns.lsq_probe", "ns"),
    ("vans.sim_ns.lsq_combine", "ns"),
    ("vans.sim_ns.rmw_hit", "ns"),
    ("vans.sim_ns.rmw_fill", "ns"),
    ("vans.sim_ns.ait_cache_hit", "ns"),
    ("vans.sim_ns.ait_walk", "ns"),
    ("vans.sim_ns.on_dimm_dram", "ns"),
    ("vans.sim_ns.media_read", "ns"),
    ("vans.sim_ns.media_write", "ns"),
    ("vans.sim_ns.migration_stall", "ns"),
    ("vans.sim_ns.fence", "ns"),
    ("vans.sim_ns.lazy_cache", "ns"),
    ("vans.sim_ns.rlb", "ns"),
    ("nvsim-cpu.host_ns_per_instr.warm", "ns/instr"),
    ("nvsim-cpu.host_ns_per_instr.detailed", "ns/instr"),
    ("vans.host_ns.warm_access", "ns"),
    ("vans.host_ns.detailed_req", "ns"),
    ("nvsim-workloads.host_ns_per_instr", "ns/instr"),
    ("snapshot.save_ms_per_window", "ms"),
    ("snapshot.blob_kib", "KiB"),
    ("nvsim-cpu.backend_share", "ratio"),
    ("nvsim-cpu.ipc", "ratio"),
    ("nvsim-cpu.llc_mpki", "1/kinstr"),
    ("nvsim-cpu.tlb_mpki", "1/kinstr"),
    ("nvsim-serve.inproc_round_us", "us"),
    ("nvsim-serve.transport_tax_us", "us"),
    ("nvsim-serve.encode_ns_per_cmd", "ns"),
    ("nvsim-serve.decode_ns_per_rsp", "ns"),
    ("nvsim-serve.cycles_per_round", "count"),
    ("bench.host_probe_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];
