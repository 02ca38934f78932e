//! End-to-end checkpoint/restore properties over the whole backend
//! matrix: restore-then-run must be indistinguishable — byte-identical
//! trace JSONL, equal counters, byte-identical final snapshots — from
//! straight-through execution, for every [`BackendKind`], including a
//! mid-flight cut with non-empty WPQ/RMW/AIT-migration state; and old
//! or corrupt blobs must fail with a clean error, never garbage state.

use nvsim::backends::build_backend;
use nvsim::prelude::*;
use nvsim::types::snapshot::{restore_blob, save_blob, SnapshotErrorKind, MAGIC, VERSION};
use nvsim::types::trace::JsonlSink;
use nvsim::types::DetRng;
use nvsim::vans::memory_mode::MemoryModeSystem;
use nvsim::vans::{MemorySystem, VansConfig};
use proptest::prelude::*;
use std::io;
use std::sync::{Arc, Mutex};

/// A writer that shares its bytes with the test body (`Arc<Mutex<..>>`
/// because `TraceSink`, and hence `JsonlSink`'s writer, must be `Send`).
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives one deterministic phase of mixed traffic; the op stream is a
/// pure function of `phase` and `ops`, so a restored backend replays
/// the exact continuation the straight-through copy sees.
fn drive(b: &mut dyn MemoryBackend, phase: u64, ops: u64) {
    let mut rng = DetRng::seed_from(0x5eed_0000 ^ phase);
    for i in 0..ops {
        let addr = Addr::new(rng.range_u64(0, (32 << 20) / 64) * 64);
        match i % 6 {
            0 => {
                b.execute(RequestDesc::new(addr, 64, MemOp::Store));
            }
            1 | 4 => {
                b.execute(RequestDesc::new(addr, 64, MemOp::NtStore));
            }
            2 => {
                b.execute(RequestDesc::new(addr, 32, MemOp::StoreClwb));
            }
            _ => {
                b.execute(RequestDesc::load(addr));
            }
        }
        if i % 53 == 0 {
            b.fence();
        }
    }
}

/// `save → restore → run(N)` equals `run(N)` straight-through — same
/// continuation trace JSONL, same counters, same final snapshot — for
/// every backend kind the factory builds.
#[test]
fn every_backend_kind_roundtrips_byte_identically() {
    for kind in BackendKind::ALL {
        let cfg = BackendConfig::default();
        let mut straight = build_backend(kind, &cfg).expect("default config builds");
        drive(straight.as_mut(), 1, 400);
        let blob = straight
            .save_snapshot()
            .unwrap_or_else(|| panic!("{kind}: snapshots must be supported"));

        let mut restored = build_backend(kind, &cfg).expect("default config builds");
        assert!(
            restored
                .restore_snapshot(&blob)
                .expect("same configuration"),
            "{kind}: restore must be supported"
        );

        // Trace the continuation on both copies.
        let buf_s = SharedBuf::default();
        let buf_r = SharedBuf::default();
        straight.configure_session(
            SessionOptions::new().trace_sink(Box::new(JsonlSink::new(buf_s.clone()))),
        );
        restored.configure_session(
            SessionOptions::new().trace_sink(Box::new(JsonlSink::new(buf_r.clone()))),
        );
        drive(straight.as_mut(), 2, 400);
        drive(restored.as_mut(), 2, 400);

        assert_eq!(
            straight.counters(),
            restored.counters(),
            "{kind}: counters diverged after restore"
        );
        assert_eq!(
            straight.now(),
            restored.now(),
            "{kind}: clocks diverged after restore"
        );
        assert_eq!(
            buf_s.0.lock().unwrap().as_slice(),
            buf_r.0.lock().unwrap().as_slice(),
            "{kind}: continuation trace JSONL diverged after restore"
        );
        assert_eq!(
            straight.save_snapshot(),
            restored.save_snapshot(),
            "{kind}: final snapshots diverged"
        );
    }
}

/// A cut taken mid-flight — write-combining queues occupied, RMW buffer
/// holding partials, wear-leveling migrations already performed — still
/// round-trips exactly.
#[test]
fn mid_flight_cut_with_busy_queues_roundtrips() {
    let mut straight = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    // Phase one: hammer ten hot lines of one 64 KB wear block with
    // full-line writes. At ~100% write concentration the block crosses
    // the 14,000-write wear threshold and migrates.
    for _batch in 0..6_000u64 {
        for line in 0..10u64 {
            straight.execute(RequestDesc::new(Addr::new(line * 64), 64, MemOp::NtStore));
        }
        // The fence drains the write-combining queues, so every batch
        // actually reaches the media and accumulates wear.
        straight.fence();
    }
    // Phase two: partial writes over a spread region fill the RMW
    // buffer and keep the WPQ busy; submit without draining so the cut
    // lands with requests in flight.
    let mut rng = DetRng::seed_from(0xb0b);
    for i in 0..400u64 {
        let spread = Addr::new(rng.range_u64(0, 1 << 14) * 64);
        straight.submit(RequestDesc::new(spread, 32, MemOp::StoreClwb));
        if i % 11 == 0 {
            straight.submit(RequestDesc::load(spread));
        }
    }
    let dimm = &straight.dimms()[0];
    assert!(
        dimm.lsq.occupancy() > 0 || dimm.rmw.occupancy() > 0,
        "the cut must land with non-empty WPQ/RMW state (lsq {}, rmw {})",
        dimm.lsq.occupancy(),
        dimm.rmw.occupancy()
    );
    assert!(
        straight.counters().migrations > 0,
        "the cut must land after AIT wear-leveling migrations"
    );

    let blob = straight.save_snapshot().expect("vans supports snapshots");
    let mut restored = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    restored
        .restore_snapshot(&blob)
        .expect("same configuration");

    drive(&mut straight, 7, 600);
    drive(&mut restored, 7, 600);
    straight.drain();
    restored.drain();
    assert_eq!(straight.counters(), restored.counters());
    assert_eq!(straight.now(), restored.now());
    assert_eq!(straight.save_snapshot(), restored.save_snapshot());
}

/// Old-version and corrupt blobs are rejected with a clean, typed
/// error — state stays untouched, nothing panics.
#[test]
fn foreign_blobs_fail_cleanly() {
    let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).expect("valid preset");
    drive(&mut sys, 1, 50);
    let good = sys.save_snapshot().expect("vans supports snapshots");
    let counters_before = sys.counters();

    // Future format version.
    let mut future = good.clone();
    future[MAGIC.len()] = VERSION + 1;
    let err = sys.restore_snapshot(&future).expect_err("must reject");
    assert!(
        matches!(err.kind, SnapshotErrorKind::UnsupportedVersion(v) if v == VERSION + 1),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("version"), "undiagnostic: {err}");

    // Wrong magic.
    let mut alien = good.clone();
    alien[0] = b'X';
    assert!(sys.restore_snapshot(&alien).is_err());

    // Truncations at every prefix length must error, never panic.
    for len in 0..good.len().min(64) {
        assert!(
            sys.restore_snapshot(&good[..len]).is_err(),
            "truncated blob of {len} bytes must be rejected"
        );
    }

    // The failed restores left the system usable and unchanged.
    assert_eq!(sys.counters(), counters_before);
    sys.restore_snapshot(&good)
        .expect("good blob still restores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random single-byte corruption of the payload either restores
    /// (the flip hit dead space or produced an equally valid encoding)
    /// or errors cleanly — it must never panic.
    #[test]
    fn corrupted_payload_never_panics(pos in 5usize..2000, bit in 0u8..8) {
        let mut sys = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        drive(&mut sys, 3, 120);
        let mut blob = sys.save_snapshot().expect("vans supports snapshots");
        let pos = pos.min(blob.len() - 1);
        blob[pos] ^= 1 << bit;
        let mut fresh = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        let _ = fresh.restore_snapshot(&blob);
    }

    /// The cut position never matters: cutting after `k` ops and
    /// replaying the remainder always matches straight-through.
    #[test]
    fn cut_position_is_immaterial(k in 1u64..300) {
        let mut straight = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        drive(&mut straight, 5, k);
        let blob = straight.save_snapshot().expect("vans supports snapshots");
        let mut restored = MemorySystem::new(VansConfig::tiny_for_tests()).unwrap();
        restored.restore_snapshot(&blob).expect("same configuration");
        drive(&mut straight, 6, 150);
        drive(&mut restored, 6, 150);
        prop_assert_eq!(straight.counters(), restored.counters());
        prop_assert_eq!(straight.save_snapshot(), restored.save_snapshot());
    }
}

/// `save_blob`/`restore_blob` also carry the CPU core, so a full
/// `MemorySystem + Cpu` pair round-trips as one checkpoint.
#[test]
fn cpu_and_memory_checkpoint_together() {
    use nvsim::cpu::{Core, CoreConfig, TraceOp};
    let trace = |seed: u64| -> Vec<TraceOp> {
        let mut rng = DetRng::seed_from(seed);
        (0..4_000)
            .map(|i| match i % 4 {
                0 => TraceOp::compute(8),
                1 => TraceOp::store(nvsim::types::VirtAddr::new(
                    0x10_0000 + rng.range_u64(0, 1 << 18) * 64,
                )),
                _ => TraceOp::load(nvsim::types::VirtAddr::new(
                    0x10_0000 + rng.range_u64(0, 1 << 18) * 64,
                )),
            })
            .collect()
    };
    let mut sys_a = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    let mut core_a = Core::new(CoreConfig::cascade_lake_like());
    core_a.run(trace(1).into_iter(), &mut sys_a);

    let sys_blob = sys_a.save_snapshot().expect("vans supports snapshots");
    let core_blob = save_blob(&core_a);

    let mut sys_b = MemorySystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    let mut core_b = Core::new(CoreConfig::cascade_lake_like());
    sys_b
        .restore_snapshot(&sys_blob)
        .expect("same configuration");
    restore_blob(&mut core_b, &core_blob).expect("same configuration");

    let ra = core_a.run(trace(2).into_iter(), &mut sys_a);
    let rb = core_b.run(trace(2).into_iter(), &mut sys_b);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.llc_misses, rb.llc_misses);
    assert_eq!(ra.tlb_walks, rb.tlb_walks);
    assert_eq!(ra.exec_time, rb.exec_time);
    assert_eq!(sys_a.counters(), sys_b.counters());
    assert_eq!(save_blob(&core_a), save_blob(&core_b));
}

/// Sets of the Memory Mode near-memory cache (1 GB of 64 B lines).
const NEAR_SETS: u64 = (1 << 30) / 64;

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A line address in near-memory set `set` under tag `tag`: lines one
/// tag apart conflict in the direct-mapped cache.
fn near_line(set: u64, tag: u64) -> Addr {
    Addr::new((tag * NEAR_SETS + set) * 64)
}

/// Drives Memory Mode through a warm fast-forward and then a detailed
/// window. Lines fall in a few hundred sets of the first, a middle and
/// the last tag-array chunks, each under one of four tags, so the stream
/// hits, write-allocates and evicts dirty conflicting lines.
fn drive_memory_mode(sys: &mut MemoryModeSystem) {
    let mut rng = DetRng::seed_from(0x2_1e3);
    let pick = |rng: &mut DetRng| {
        let set = match rng.range_u64(0, 3) {
            0 => rng.range_u64(0, 1_500),
            1 => NEAR_SETS / 2 - 32 + rng.range_u64(0, 64),
            _ => NEAR_SETS - 1 - rng.range_u64(0, 64),
        };
        near_line(set, rng.range_u64(0, 4))
    };
    for i in 0..4_000u64 {
        let addr = pick(&mut rng);
        match i % 5 {
            0 | 3 => sys.warm_access(&RequestDesc::store(addr)),
            4 => sys.warm_access(&RequestDesc::new(addr, 256, MemOp::Load)),
            _ => sys.warm_access(&RequestDesc::load(addr)),
        }
    }
    let warm = sys.stats();
    assert!(warm.hits > 0 && warm.misses > 0 && warm.writebacks > 0);

    // Write-allocate into an untouched set, hit it, then evict it dirty.
    let before = sys.stats();
    sys.execute(RequestDesc::store(near_line(5_000, 0)));
    sys.execute(RequestDesc::load(near_line(5_000, 0)));
    sys.execute(RequestDesc::load(near_line(5_000, 1)));
    let after = sys.stats();
    assert_eq!(after.misses - before.misses, 2, "allocate + conflict miss");
    assert_eq!(after.hits - before.hits, 1, "the allocated line hits");
    assert_eq!(after.writebacks - before.writebacks, 1, "allocated dirty");

    for i in 0..1_500u64 {
        let addr = pick(&mut rng);
        match i % 4 {
            0 => sys.execute(RequestDesc::store(addr)),
            1 => sys.execute(RequestDesc::new(addr, 64, MemOp::NtStore)),
            _ => sys.execute(RequestDesc::load(addr)),
        };
    }
    let detailed = sys.stats();
    assert!(detailed.hits > after.hits && detailed.writebacks > after.writebacks);
}

/// Memory Mode snapshot bytes are pinned: the blob after a fixed warm +
/// detailed stream matches the FNV-1a digest committed beside this suite,
/// and save → restore → save is byte-identical.
#[test]
fn memory_mode_snapshot_bytes_are_pinned() {
    let mut sys = MemoryModeSystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    drive_memory_mode(&mut sys);
    let blob = sys.save_snapshot().expect("memory mode supports snapshots");
    assert_eq!(
        format!("{:016x}", fnv1a(&blob)),
        include_str!("golden/memory_mode_snapshot.fnv1a").trim(),
        "Memory Mode snapshot bytes changed ({} bytes)",
        blob.len()
    );

    let mut restored = MemoryModeSystem::new(VansConfig::optane_1dimm()).expect("valid preset");
    restored
        .restore_snapshot(&blob)
        .expect("same configuration");
    assert_eq!(restored.save_snapshot().as_deref(), Some(blob.as_slice()));
}
