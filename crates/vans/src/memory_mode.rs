//! Memory Mode: DRAM as a direct-mapped cache in front of the NVRAM
//! (§II-A). In this mode the system has no persistence guarantees — the
//! DRAM absorbs most traffic and the Optane DIMM only sees its misses.
//!
//! Modeled after the Cascade Lake implementation: a direct-mapped,
//! 64 B-line near-memory cache whose tags live with the data in DRAM
//! (one DRAM access resolves both), write-back and write-allocate.

use crate::config::VansConfig;
use crate::system::MemorySystem;
use nvsim_dram::{DramConfig, DramModel};
use nvsim_types::snapshot::{
    restore_blob, save_blob, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use nvsim_types::{
    Addr, BackendCounters, BackendError, ConfigError, MemOp, MemoryBackend, ReqId, RequestDesc,
    SessionOptions, Time, CACHE_LINE,
};

/// Tag-array entries per lazily allocated chunk (4 KiB of packed tags).
const TAG_CHUNK: u64 = 512;

/// The direct-mapped tag store, indexed by set. It is allocated in
/// [`TAG_CHUNK`]-entry chunks on first touch, so a 16 M-set cache costs
/// only its chunk index until traffic reaches a chunk, and `clear` frees
/// memory instead of zeroing it. Each entry packs
/// `((tag + 1) << 1) | dirty`; 0 is an empty set.
#[derive(Debug)]
struct TagArray {
    chunks: Vec<Option<Box<[u64]>>>,
}

impl TagArray {
    fn new(sets: u64) -> Self {
        // `vec![None; n]` allocates zeroed memory, so the index pages too
        // stay untouched until a chunk in them is allocated.
        TagArray {
            chunks: vec![None; sets.div_ceil(TAG_CHUNK) as usize],
        }
    }

    /// The `(tag, dirty)` resident in `set`, if any.
    fn get(&self, set: u64) -> Option<(u64, bool)> {
        let chunk = self.chunks[(set / TAG_CHUNK) as usize].as_deref()?;
        match chunk[(set % TAG_CHUNK) as usize] {
            0 => None,
            e => Some(unpack(e)),
        }
    }

    fn insert(&mut self, set: u64, tag: u64, dirty: bool) {
        let chunk = self.chunks[(set / TAG_CHUNK) as usize]
            .get_or_insert_with(|| vec![0; TAG_CHUNK as usize].into_boxed_slice());
        chunk[(set % TAG_CHUNK) as usize] = ((tag + 1) << 1) | u64::from(dirty);
    }

    fn clear(&mut self) {
        self.chunks.fill(None);
    }

    /// Every resident `(set, tag, dirty)`, in ascending set order.
    fn entries(&self) -> impl Iterator<Item = (u64, u64, bool)> + '_ {
        let allocated = (self.chunks.iter().zip(0u64..))
            .filter_map(|(chunk, c)| Some((chunk.as_deref()?, c * TAG_CHUNK)));
        allocated.flat_map(|(chunk, first_set)| {
            (chunk.iter().zip(first_set..))
                .filter(|&(&e, _)| e != 0)
                .map(|(&e, set)| {
                    let (tag, dirty) = unpack(e);
                    (set, tag, dirty)
                })
        })
    }
}

/// Decodes a non-empty packed tag-array entry into `(tag, dirty)`.
fn unpack(e: u64) -> (u64, bool) {
    ((e >> 1) - 1, e & 1 == 1)
}

/// Statistics of the near-memory cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryModeStats {
    /// Near-memory cache hits.
    pub hits: u64,
    /// Misses (NVRAM accesses).
    pub misses: u64,
    /// Dirty evictions written back to NVRAM.
    pub writebacks: u64,
}

/// A Memory-Mode system: DRAM cache + VANS NVRAM behind it.
///
/// # Example
///
/// ```
/// use vans::memory_mode::MemoryModeSystem;
/// use vans::VansConfig;
/// use nvsim_types::{Addr, MemoryBackend, RequestDesc};
///
/// let mut sys = MemoryModeSystem::new(VansConfig::optane_1dimm())?;
/// let cold = sys.execute(RequestDesc::load(Addr::new(0x40)));
/// let t0 = sys.now();
/// let warm = sys.execute(RequestDesc::load(Addr::new(0x40)));
/// assert!(warm - t0 < cold, "second access hits the DRAM cache");
/// # Ok::<(), nvsim_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MemoryModeSystem {
    nvram: MemorySystem,
    dram: DramModel,
    /// Direct-mapped tag array: set index → (tag, dirty).
    tags: TagArray,
    /// Number of cache sets (DRAM capacity / 64 B).
    sets: u64,
    /// In-flight completions of this wrapper.
    pending: Vec<(ReqId, Time)>,
    next_id: u64,
    stats: MemoryModeStats,
}

impl MemoryModeSystem {
    /// Builds a Memory-Mode system: a 1 GB DDR4 near-memory cache per
    /// DIMM in front of the VANS NVRAM model.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(cfg: VansConfig) -> Result<Self, ConfigError> {
        let nvram = MemorySystem::new(cfg)?;
        let mut dram_cfg = DramConfig::ddr4_2666_4gb();
        dram_cfg.name = "near-memory-cache".to_owned();
        // 1 GB single-channel cache front.
        dram_cfg.organization.channels = 1;
        dram_cfg.organization.rows = 8192;
        let dram = DramModel::new(dram_cfg)?;
        let sets = dram.config().organization.capacity_bytes() / CACHE_LINE;
        Ok(MemoryModeSystem {
            nvram,
            dram,
            tags: TagArray::new(sets),
            sets,
            pending: Vec::new(),
            next_id: 0,
            stats: MemoryModeStats::default(),
        })
    }

    /// Cache statistics.
    pub fn stats(&self) -> MemoryModeStats {
        self.stats
    }

    /// The NVRAM system behind the cache.
    pub fn nvram(&self) -> &MemorySystem {
        &self.nvram
    }

    /// Serves one line; returns the completion time.
    fn access_line(&mut self, line_addr: Addr, write: bool, now: Time) -> Time {
        let line = line_addr.line_index();
        let set = line % self.sets;
        let tag = line / self.sets;
        // Tag + data are colocated: one DRAM access resolves the lookup.
        let dram_done = self.dram.access(line_addr, write, now);
        match self.tags.get(set) {
            Some((t, _dirty)) if t == tag => {
                self.stats.hits += 1;
                if write {
                    self.tags.insert(set, tag, true);
                }
                dram_done
            }
            resident => {
                self.stats.misses += 1;
                // Dirty conflict eviction: write the victim back to NVRAM
                // (posted — it only occupies the NVRAM write path).
                if let Some((victim_tag, true)) = resident {
                    self.stats.writebacks += 1;
                    let victim_addr = Addr::new((victim_tag * self.sets + set) * CACHE_LINE);
                    self.nvram.skip_to(now);
                    let id = self
                        .nvram
                        .submit(RequestDesc::new(victim_addr, 64, MemOp::NtStore));
                    let _ = self.nvram.try_take_completion(id);
                }
                // Fetch the line from NVRAM (reads and write-allocates).
                self.nvram.skip_to(now);
                let id = self.nvram.submit(RequestDesc::load(line_addr));
                let filled = self.nvram.expect_completion(id);
                // Install into DRAM (posted).
                let _ = self.dram.access(line_addr, true, filled);
                self.tags.insert(set, tag, write);
                filled.max(dram_done)
            }
        }
    }

    /// Functional-warming counterpart of [`access_line`](Self::access_line):
    /// updates the tag array and the NVRAM's residency state without any
    /// DRAM or NVRAM timing.
    fn warm_line(&mut self, line_addr: Addr, write: bool) {
        let line = line_addr.line_index();
        let set = line % self.sets;
        let tag = line / self.sets;
        match self.tags.get(set) {
            Some((t, _dirty)) if t == tag => {
                self.stats.hits += 1;
                if write {
                    self.tags.insert(set, tag, true);
                }
            }
            resident => {
                self.stats.misses += 1;
                if let Some((victim_tag, true)) = resident {
                    self.stats.writebacks += 1;
                    let victim_addr = Addr::new((victim_tag * self.sets + set) * CACHE_LINE);
                    self.nvram
                        .warm_access(&RequestDesc::new(victim_addr, 64, MemOp::NtStore));
                }
                self.nvram.warm_access(&RequestDesc::load(line_addr));
                self.tags.insert(set, tag, write);
            }
        }
    }
}

impl MemoryBackend for MemoryModeSystem {
    fn label(&self) -> String {
        format!("{}+MemoryMode", self.nvram.label())
    }

    fn now(&self) -> Time {
        self.nvram.now()
    }

    fn submit(&mut self, desc: RequestDesc) -> ReqId {
        let now = self.now();
        let done = match desc.op {
            MemOp::Fence => now, // Memory Mode has no persistence domain.
            _ => {
                let write = desc.op.is_write();
                let first = desc.addr.align_down(CACHE_LINE);
                let mut done = now;
                for i in 0..desc.cache_lines() {
                    done = done.max(self.access_line(first + i * CACHE_LINE, write, now));
                }
                done
            }
        };
        self.pending.push((ReqId(self.next_id), done));
        self.next_id += 1;
        ReqId(self.next_id - 1)
    }

    fn try_take_completion(&mut self, id: ReqId) -> Result<Time, BackendError> {
        let pos = self
            .pending
            .iter()
            .position(|&(i, _)| i == id)
            .ok_or(BackendError::UnknownRequest(id))?;
        Ok(self.pending.remove(pos).1)
    }

    fn drain(&mut self) -> Time {
        let last = self
            .pending
            .drain(..)
            .map(|(_, t)| t)
            .max()
            .unwrap_or_else(|| self.now());
        self.nvram.skip_to(last);
        self.nvram.drain()
    }

    fn skip_to(&mut self, t: Time) {
        self.nvram.skip_to(t);
    }

    fn counters(&self) -> BackendCounters {
        self.nvram.counters()
    }

    fn reset_counters(&mut self) {
        self.nvram.reset_counters();
    }

    fn models_persistence_ops(&self) -> bool {
        false // Memory Mode is volatile.
    }

    fn configure_session(&mut self, opts: SessionOptions) -> bool {
        self.nvram.configure_session(opts)
    }

    fn save_snapshot(&self) -> Option<Vec<u8>> {
        Some(save_blob(self))
    }

    fn restore_snapshot(&mut self, blob: &[u8]) -> Result<bool, SnapshotError> {
        restore_blob(self, blob)?;
        Ok(true)
    }

    fn warm_access(&mut self, desc: &RequestDesc) {
        match desc.op {
            MemOp::Fence => {} // Fences are free in Memory Mode.
            _ => {
                let write = desc.op.is_write();
                let first = desc.addr.align_down(CACHE_LINE);
                for i in 0..desc.cache_lines() {
                    self.warm_line(first + i * CACHE_LINE, write);
                }
            }
        }
    }
}

/// Section tag of [`MemoryModeSystem`] snapshots.
const SECTION_MEMORY_MODE: u16 = 0x39;

impl Snapshot for MemoryModeSystem {
    fn save(&self, w: &mut SnapshotWriter) {
        w.section(SECTION_MEMORY_MODE);
        self.nvram.save(w);
        self.dram.save(w);
        w.put_u64(self.sets);
        w.put_usize(self.tags.entries().count());
        for (set, tag, dirty) in self.tags.entries() {
            w.put_u64(set);
            w.put_u64(tag);
            w.put_bool(dirty);
        }
        w.put_usize(self.pending.len());
        for &(id, t) in &self.pending {
            w.put_u64(id.0);
            w.put_time(t);
        }
        w.put_u64(self.next_id);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.writebacks);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        r.expect_section(SECTION_MEMORY_MODE)?;
        self.nvram.restore(r)?;
        self.dram.restore(r)?;
        let sets = r.get_u64()?;
        if sets != self.sets {
            return Err(r.invalid("near-memory cache set count differs from this configuration"));
        }
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(r.invalid("tag-array entry count exceeds the blob"));
        }
        // Tags of real lines stay below this bound, which also keeps the
        // packed `(tag + 1) << 1` from overflowing.
        let max_tag = u64::MAX / CACHE_LINE / self.sets;
        self.tags.clear();
        let mut next_set = 0;
        for _ in 0..n {
            let set = r.get_u64()?;
            if set >= self.sets {
                return Err(r.invalid("tag-array set index out of range"));
            }
            if set < next_set {
                return Err(r.invalid("tag-array sets not in strictly increasing order"));
            }
            next_set = set + 1;
            let tag = r.get_u64()?;
            if tag > max_tag {
                return Err(r.invalid("tag-array tag beyond the address space"));
            }
            let dirty = r.get_bool()?;
            self.tags.insert(set, tag, dirty);
        }
        let p = r.get_usize()?;
        if p > r.remaining() {
            return Err(r.invalid("pending-completion count exceeds the blob"));
        }
        self.pending.clear();
        for _ in 0..p {
            let id = ReqId(r.get_u64()?);
            let t = r.get_time()?;
            self.pending.push((id, t));
        }
        self.next_id = r.get_u64()?;
        self.stats.hits = r.get_u64()?;
        self.stats.misses = r.get_u64()?;
        self.stats.writebacks = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvsim_types::snapshot::SnapshotErrorKind;

    fn sys() -> MemoryModeSystem {
        MemoryModeSystem::new(VansConfig::optane_1dimm()).expect("valid preset")
    }

    #[test]
    fn second_access_hits_dram() {
        let mut s = sys();
        let cold = s.execute(RequestDesc::load(Addr::new(0x40)));
        let t0 = s.now();
        let warm = s.execute(RequestDesc::load(Addr::new(0x40)));
        assert!(warm - t0 < cold, "cold {cold}, warm {}", warm - t0);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn conflicting_dirty_line_writes_back() {
        let mut s = sys();
        let sets = s.sets;
        // Dirty a line, then touch the conflicting line one tag away.
        s.execute(RequestDesc::store(Addr::new(0)));
        s.execute(RequestDesc::load(Addr::new(sets * CACHE_LINE)));
        assert_eq!(s.stats().writebacks, 1);
        assert!(s.counters().bus_writes >= 1);
    }

    #[test]
    fn fences_are_free_in_memory_mode() {
        let mut s = sys();
        let t0 = s.now();
        let t1 = s.fence();
        assert_eq!(t0, t1);
        assert!(!s.models_persistence_ops());
    }

    #[test]
    fn hit_rate_reflects_working_set() {
        let mut s = sys();
        // Small working set: high hit rate after warmup.
        for pass in 0..2 {
            for i in 0..64u64 {
                s.execute(RequestDesc::load(Addr::new(i * 64)));
            }
            if pass == 0 {
                continue;
            }
        }
        let st = s.stats();
        assert_eq!(st.misses, 64);
        assert_eq!(st.hits, 64);
    }

    #[test]
    fn label_mentions_memory_mode() {
        assert!(sys().label().contains("MemoryMode"));
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let mut a = sys();
        let mut rng = nvsim_types::DetRng::seed_from(11);
        for _ in 0..200 {
            let addr = Addr::new((rng.next_u64() % (2 * a.sets)) * CACHE_LINE);
            if rng.next_u64().is_multiple_of(2) {
                a.execute(RequestDesc::load(addr));
            } else {
                a.execute(RequestDesc::store(addr));
            }
        }
        let blob = a.save_snapshot().expect("memory mode supports snapshots");
        let mut b = sys();
        b.restore_snapshot(&blob).expect("same configuration");
        assert_eq!(a.stats(), b.stats());
        for _ in 0..100 {
            let addr = Addr::new((rng.next_u64() % (2 * a.sets)) * CACHE_LINE);
            let ta = a.execute(RequestDesc::store(addr));
            // Replay identically on b: reproduce the rng draw.
            let tb = b.execute(RequestDesc::store(addr));
            assert_eq!(ta, tb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.save_snapshot(), b.save_snapshot());
    }

    #[test]
    fn restore_rejects_out_of_range_and_unordered_sets() {
        let s = sys();
        let restore_tags = |entries: &[(u64, u64, bool)]| {
            let mut w = SnapshotWriter::new();
            w.section(SECTION_MEMORY_MODE);
            s.nvram.save(&mut w);
            s.dram.save(&mut w);
            w.put_u64(s.sets);
            w.put_usize(entries.len());
            for &(set, tag, dirty) in entries {
                w.put_u64(set);
                w.put_u64(tag);
                w.put_bool(dirty);
            }
            // No pending completions; next id and stats all zero.
            (0..5).for_each(|_| w.put_u64(0));
            let bytes = w.into_bytes();
            sys().restore(&mut SnapshotReader::new(&bytes))
        };
        let last = s.sets - 1;
        assert_eq!(restore_tags(&[(3, 0, true), (last, 1, false)]), Ok(()));
        for (entries, what) in [
            (&[(s.sets, 0, false)][..], "out of range"),
            (&[(9, 0, false), (9, 1, true)][..], "increasing"),
            (&[(9, 0, false), (4, 0, false)][..], "increasing"),
            (&[(1, u64::MAX >> 1, false)][..], "tag beyond"),
        ] {
            let err = restore_tags(entries).expect_err("hostile tag array");
            assert!(
                matches!(err.kind, SnapshotErrorKind::Invalid(m) if m.contains(what)),
                "{entries:?}: {err}"
            );
        }
    }

    #[test]
    fn warm_access_populates_the_tag_array() {
        let mut s = sys();
        s.warm_access(&RequestDesc::load(Addr::new(0x40)));
        assert_eq!(s.now(), Time::ZERO, "warming never advances the clock");
        let t0 = s.now();
        let warm = s.execute(RequestDesc::load(Addr::new(0x40)));
        assert_eq!(s.stats().hits, 1, "warmed line is resident");
        let mut cold_sys = sys();
        let cold = cold_sys.execute(RequestDesc::load(Addr::new(0x40)));
        assert!(warm - t0 < cold);
    }
}
