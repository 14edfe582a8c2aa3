//! Per-core data-locality model.
//!
//! The locality-aware scheduler of Section VI schedules a ready successor on
//! the core that just produced its inputs, reducing data movement. To let the
//! simulator reward that behaviour, [`LocalityModel`] keeps, for every core, a
//! small LRU set of the data blocks (dependence address ranges) the core has
//! touched most recently, bounded by the private cache capacity. When a task
//! starts on a core the runtime asks how many of the task's input bytes are
//! resident; the miss fraction stretches the task's execution time by a
//! configurable memory-boundedness factor.
//!
//! This is intentionally far simpler than a real cache (no sets, no lines, no
//! coherence): at task granularity the only first-order effect is "my inputs
//! were just produced here" versus "my inputs live in another core's cache or
//! in L2/memory", which an LRU over dependence blocks captures.

use std::collections::VecDeque;

use crate::fast_map::FastMap;

/// Identifier of a data block: the base address of a dependence range.
pub type BlockAddr = u64;

/// Result of probing the locality model for one task's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalityOutcome {
    /// Bytes of the working set that were resident on the executing core.
    pub hit_bytes: u64,
    /// Bytes that were not resident and must be fetched from L2 / another
    /// core / memory.
    pub miss_bytes: u64,
}

impl LocalityOutcome {
    /// Fraction of the working set that hit (1.0 for an empty working set,
    /// i.e. a task with no data dependences pays no locality penalty).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }

    /// Fraction of the working set that missed.
    pub fn miss_fraction(&self) -> f64 {
        1.0 - self.hit_fraction()
    }
}

/// One core's recently-touched blocks, in LRU order (front = most recent).
#[derive(Debug, Clone, Default)]
struct CoreResidency {
    /// (block address, block size in bytes), most-recently-used first.
    blocks: VecDeque<(BlockAddr, u64)>,
    /// Total bytes currently tracked.
    bytes: u64,
}

impl CoreResidency {
    fn contains(&self, addr: BlockAddr) -> bool {
        self.blocks.iter().any(|&(a, _)| a == addr)
    }

    /// Touches a block: moves it to the MRU position, inserting it if absent,
    /// and evicts LRU blocks if the capacity is exceeded. Evicted addresses
    /// are reported through `holders` so the model-level index stays in sync.
    fn touch(
        &mut self,
        core: usize,
        addr: BlockAddr,
        size: u64,
        capacity: u64,
        holders: &mut FastMap<BlockAddr, Vec<u32>>,
    ) {
        if let Some(pos) = self.blocks.iter().position(|&(a, _)| a == addr) {
            let entry = self.blocks.remove(pos).expect("position came from iter");
            self.bytes -= entry.1;
        } else {
            holders.entry(addr).or_default().push(core as u32);
        }
        self.blocks.push_front((addr, size));
        self.bytes += size;
        while self.bytes > capacity && self.blocks.len() > 1 {
            if let Some((evicted_addr, evicted)) = self.blocks.pop_back() {
                self.bytes -= evicted;
                remove_holder(holders, evicted_addr, core);
            }
        }
        // A single block larger than the whole cache is allowed to stay: the
        // task streams through it and the miss cost is charged on access.
    }

    fn invalidate(
        &mut self,
        core: usize,
        addr: BlockAddr,
        holders: &mut FastMap<BlockAddr, Vec<u32>>,
    ) {
        if let Some(pos) = self.blocks.iter().position(|&(a, _)| a == addr) {
            let entry = self.blocks.remove(pos).expect("position came from iter");
            self.bytes -= entry.1;
            remove_holder(holders, addr, core);
        }
    }
}

/// Drops `core` from the holder list of `addr`, removing the map entry when
/// the list empties.
fn remove_holder(holders: &mut FastMap<BlockAddr, Vec<u32>>, addr: BlockAddr, core: usize) {
    if let Some(list) = holders.get_mut(&addr) {
        if let Some(pos) = list.iter().position(|&c| c as usize == core) {
            list.swap_remove(pos);
            if list.is_empty() {
                holders.remove(&addr);
            }
        }
    }
}

/// Tracks, per core, which data blocks are resident in that core's private
/// cache, with LRU replacement bounded by a byte capacity.
///
/// # Example
///
/// ```
/// use tdm_sim::cache::LocalityModel;
///
/// let mut model = LocalityModel::new(2, 32 * 1024);
/// // Core 0 produces block 0x1000 (16 KB).
/// model.record_writes(0, &[(0x1000, 16 * 1024)]);
/// // A task reading that block on core 0 hits; on core 1 it misses.
/// assert_eq!(model.probe(0, &[(0x1000, 16 * 1024)]).hit_bytes, 16 * 1024);
/// assert_eq!(model.probe(1, &[(0x1000, 16 * 1024)]).miss_bytes, 16 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct LocalityModel {
    capacity_bytes: u64,
    cores: Vec<CoreResidency>,
    /// Derived index: which cores currently hold each resident block. Lets a
    /// write invalidate exactly the holders instead of scanning every core's
    /// LRU (the former `record_writes` hot loop was O(cores × resident
    /// blocks) per written block). Purely an actual-work accelerator: the
    /// per-core residency contents — and therefore every probe outcome —
    /// are unchanged. Never iterated, so map order is unobservable.
    holders: FastMap<BlockAddr, Vec<u32>>,
    /// Scratch holder snapshot reused across `record_writes` calls.
    scratch: Vec<u32>,
}

impl LocalityModel {
    /// Creates a model for `num_cores` cores, each with `capacity_bytes` of
    /// private cache (the paper's chip has 32 KB L1 per core; using the L1+L2
    /// slice share is also reasonable — the harnesses use the L1 size).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or `capacity_bytes` is zero.
    pub fn new(num_cores: usize, capacity_bytes: u64) -> Self {
        assert!(num_cores > 0, "locality model needs at least one core");
        assert!(capacity_bytes > 0, "cache capacity must be non-zero");
        LocalityModel {
            capacity_bytes,
            cores: vec![CoreResidency::default(); num_cores],
            holders: FastMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Configured per-core capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Returns how much of the given working set (list of `(address, bytes)`
    /// blocks) is resident on `core`, without modifying residency.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn probe(&self, core: usize, working_set: &[(BlockAddr, u64)]) -> LocalityOutcome {
        let residency = &self.cores[core];
        let mut outcome = LocalityOutcome::default();
        for &(addr, size) in working_set {
            if residency.contains(addr) {
                outcome.hit_bytes += size;
            } else {
                outcome.miss_bytes += size;
            }
        }
        outcome
    }

    /// Records that `core` read the given blocks (they become resident there).
    pub fn record_reads(&mut self, core: usize, working_set: &[(BlockAddr, u64)]) {
        #[cfg(debug_assertions)]
        let before = self.cores[core].blocks.clone();
        for &(addr, size) in working_set {
            self.cores[core].touch(core, addr, size, self.capacity_bytes, &mut self.holders);
        }
        #[cfg(debug_assertions)]
        self.debug_check_changed_holders(core, working_set, &before);
    }

    /// Records that `core` wrote the given blocks. The blocks become resident
    /// on the writer and are invalidated everywhere else (a coarse model of
    /// invalidation-based coherence).
    pub fn record_writes(&mut self, core: usize, working_set: &[(BlockAddr, u64)]) {
        #[cfg(debug_assertions)]
        let before = self.cores[core].blocks.clone();
        let mut scratch = std::mem::take(&mut self.scratch);
        for &(addr, size) in working_set {
            // Snapshot the holder list: invalidation mutates it, and at most
            // a handful of cores ever hold one block.
            scratch.clear();
            if let Some(holding) = self.holders.get(&addr) {
                scratch.extend_from_slice(holding);
            }
            for &holder in &scratch {
                let holder = holder as usize;
                if holder != core {
                    self.cores[holder].invalidate(holder, addr, &mut self.holders);
                }
            }
            self.cores[core].touch(core, addr, size, self.capacity_bytes, &mut self.holders);
        }
        self.scratch = scratch;
        #[cfg(debug_assertions)]
        self.debug_check_changed_holders(core, working_set, &before);
    }

    /// Forgets all residency information (used between parallel regions).
    pub fn reset(&mut self) {
        for core in &mut self.cores {
            core.blocks.clear();
            core.bytes = 0;
        }
        self.holders.clear();
    }

    /// Debug-build invariant after a `record_*` call on `core`: the holder
    /// entry of every block the call could change is exact. A call changes
    /// only the entries of the blocks it touched or invalidated (the working
    /// set) and of the blocks it evicted, which were on `core`'s list
    /// (`before`) and are no longer. If the index was the exact transpose
    /// before the call, checking these blocks keeps it exact after, without
    /// rebuilding the whole transpose.
    #[cfg(debug_assertions)]
    fn debug_check_changed_holders(
        &self,
        core: usize,
        working_set: &[(BlockAddr, u64)],
        before: &VecDeque<(BlockAddr, u64)>,
    ) {
        let evicted = before
            .iter()
            .filter(|&&(addr, _)| !self.cores[core].contains(addr));
        for &(addr, _) in working_set.iter().chain(evicted) {
            let mut got = self.holders.get(&addr).cloned().unwrap_or_default();
            got.sort_unstable();
            let want: Vec<u32> = (0..self.cores.len() as u32)
                .filter(|&c| self.cores[c as usize].contains(addr))
                .collect();
            assert_eq!(got, want, "holder index drift for block {addr:#x}");
            assert_eq!(
                self.holders.contains_key(&addr),
                !want.is_empty(),
                "holder entry presence drift for block {addr:#x}"
            );
        }
    }

    /// Debug-build invariant: `holders` is exactly the per-block transpose of
    /// the per-core residency lists. Checked in full after a snapshot load;
    /// `record_*` calls check only the entries they can change.
    fn debug_check_holders(&self) {
        #[cfg(debug_assertions)]
        {
            let mut expected: FastMap<BlockAddr, Vec<u32>> = FastMap::default();
            for (i, residency) in self.cores.iter().enumerate() {
                for &(addr, _) in &residency.blocks {
                    expected.entry(addr).or_default().push(i as u32);
                }
            }
            assert_eq!(expected.len(), self.holders.len(), "holder index drift");
            for (addr, cores) in &expected {
                let mut got = self.holders.get(addr).cloned().unwrap_or_default();
                let mut want = cores.clone();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "holder index drift for block {addr:#x}");
            }
        }
    }

    /// Total bytes currently tracked as resident on `core`.
    pub fn resident_bytes(&self, core: usize) -> u64 {
        self.cores[core].bytes
    }
}

// Snapshot support. The observable state is the per-core MRU block list
// (order matters: it decides eviction victims); `bytes`, the `holders`
// transpose and the write scratch are all derived, so the codec stores
// only capacity and the lists and rebuilds the rest on load.
impl crate::snapshot::Persist for LocalityModel {
    fn save(&self, out: &mut Vec<u8>) {
        self.capacity_bytes.save(out);
        self.cores.len().save(out);
        for core in &self.cores {
            core.blocks.save(out);
        }
    }

    fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::snapshot::SnapshotError> {
        let capacity_bytes = u64::load(r)?;
        let num_cores = usize::load(r)?;
        if capacity_bytes == 0 || num_cores == 0 {
            return Err(crate::snapshot::SnapshotError::Corrupt {
                context: format!(
                    "locality model with {num_cores} cores and {capacity_bytes}-byte \
                     capacity (both must be non-zero)"
                ),
            });
        }
        let mut model = LocalityModel::new(num_cores, capacity_bytes);
        for core in 0..num_cores {
            let blocks: VecDeque<(BlockAddr, u64)> = VecDeque::load(r)?;
            let residency = &mut model.cores[core];
            residency.bytes = blocks.iter().map(|&(_, size)| size).sum();
            for &(addr, _) in &blocks {
                // tdm-lint: allow(C1): `core < num_cores` and the codec already bounds num_cores via usize::load; the holder index stores u32 core ids by construction.
                model.holders.entry(addr).or_default().push(core as u32);
            }
            residency.blocks = blocks;
        }
        model.debug_check_holders();
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_on_empty_model_misses_everything() {
        let model = LocalityModel::new(4, 1024);
        let out = model.probe(2, &[(0x100, 64), (0x200, 64)]);
        assert_eq!(out.hit_bytes, 0);
        assert_eq!(out.miss_bytes, 128);
        assert_eq!(out.hit_fraction(), 0.0);
    }

    #[test]
    fn empty_working_set_is_a_full_hit() {
        let model = LocalityModel::new(1, 1024);
        let out = model.probe(0, &[]);
        assert_eq!(out.hit_fraction(), 1.0);
        assert_eq!(out.miss_fraction(), 0.0);
    }

    #[test]
    fn reads_populate_only_the_reading_core() {
        let mut model = LocalityModel::new(2, 4096);
        model.record_reads(0, &[(0xA000, 512)]);
        assert_eq!(model.probe(0, &[(0xA000, 512)]).hit_bytes, 512);
        assert_eq!(model.probe(1, &[(0xA000, 512)]).hit_bytes, 0);
    }

    #[test]
    fn writes_invalidate_other_cores() {
        let mut model = LocalityModel::new(3, 4096);
        model.record_reads(1, &[(0xB000, 256)]);
        assert_eq!(model.probe(1, &[(0xB000, 256)]).hit_bytes, 256);
        model.record_writes(2, &[(0xB000, 256)]);
        assert_eq!(model.probe(1, &[(0xB000, 256)]).hit_bytes, 0);
        assert_eq!(model.probe(2, &[(0xB000, 256)]).hit_bytes, 256);
    }

    #[test]
    fn lru_evicts_oldest_when_capacity_exceeded() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x2, 400)]);
        model.record_reads(0, &[(0x3, 400)]); // evicts 0x1
        assert_eq!(model.probe(0, &[(0x1, 400)]).hit_bytes, 0);
        assert_eq!(model.probe(0, &[(0x2, 400)]).hit_bytes, 400);
        assert_eq!(model.probe(0, &[(0x3, 400)]).hit_bytes, 400);
        assert!(model.resident_bytes(0) <= 1000);
    }

    #[test]
    fn touching_resident_block_refreshes_lru_position() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x2, 400)]);
        // Touch 0x1 again so 0x2 becomes the LRU victim.
        model.record_reads(0, &[(0x1, 400)]);
        model.record_reads(0, &[(0x3, 400)]);
        assert_eq!(model.probe(0, &[(0x1, 400)]).hit_bytes, 400);
        assert_eq!(model.probe(0, &[(0x2, 400)]).hit_bytes, 0);
    }

    #[test]
    fn oversized_block_is_kept_alone() {
        let mut model = LocalityModel::new(1, 1000);
        model.record_reads(0, &[(0x1, 5000)]);
        // The single oversized block stays resident (streaming model).
        assert_eq!(model.probe(0, &[(0x1, 5000)]).hit_bytes, 5000);
        // Adding another block evicts it because capacity is exceeded.
        model.record_reads(0, &[(0x2, 100)]);
        assert!(model.resident_bytes(0) <= 5000);
    }

    #[test]
    fn reset_clears_all_cores() {
        let mut model = LocalityModel::new(2, 1024);
        model.record_reads(0, &[(0x1, 100)]);
        model.record_reads(1, &[(0x2, 100)]);
        model.reset();
        assert_eq!(model.resident_bytes(0), 0);
        assert_eq!(model.resident_bytes(1), 0);
        assert_eq!(model.probe(0, &[(0x1, 100)]).hit_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = LocalityModel::new(0, 1024);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LocalityModel::new(1, 0);
    }

    #[test]
    fn holder_index_matches_a_scan_of_every_core_in_randomized_lockstep() {
        holder_lockstep(0xCAFE, 1000, |rng| {
            let addr = 0x100 + (rng.next_u64() % 12) * 0x100;
            let size = 100 + (rng.next_u64() % 4) * 150;
            (addr, size)
        });
    }

    #[test]
    fn holder_index_matches_a_scan_on_block_aligned_addresses() {
        // The address shape production runs key the holder index with: the
        // grammar and dense generators declare block bases, so every key
        // shares its low 12 bits (4 KiB stride) and blocks are 16 KiB.
        holder_lockstep(0xB10C, 128 << 10, |rng| {
            let addr = 0x9000_0000_0000 + (rng.next_u64() % 256) * 0x1000;
            (addr, 16 << 10)
        });
    }

    /// The holder index is a derived accelerator; residency (and thus every
    /// probe outcome) must match the retired scan-all-cores implementation.
    /// Replays random reads/writes and rare resets (so residency fills up
    /// and evicts), with `(addr, size)` pairs from `draw`, against a naive
    /// copy that recomputes hit/miss by scanning the per-core lists.
    fn holder_lockstep(
        seed: u64,
        capacity: u64,
        draw: impl Fn(&mut crate::rng::SplitMix64) -> (u64, u64),
    ) {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let cores = 5;
        let mut model = LocalityModel::new(cores, capacity);
        // Mirror of the expected residency: per core, MRU-first (addr, size).
        let mut mirror: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];
        for step in 0..4000 {
            let core = (rng.next_u64() % cores as u64) as usize;
            let (addr, size) = draw(&mut rng);
            match rng.next_u64() % 64 {
                0 => {
                    model.reset();
                    for m in &mut mirror {
                        m.clear();
                    }
                }
                1..=24 => {
                    model.record_reads(core, &[(addr, size)]);
                    mirror_touch(&mut mirror[core], addr, size, capacity);
                }
                _ => {
                    model.record_writes(core, &[(addr, size)]);
                    for (i, m) in mirror.iter_mut().enumerate() {
                        if i != core {
                            m.retain(|&(a, _)| a != addr);
                        }
                    }
                    mirror_touch(&mut mirror[core], addr, size, capacity);
                }
            }
            model.debug_check_holders();
            for (i, m) in mirror.iter().enumerate() {
                let bytes: u64 = m.iter().map(|&(_, s)| s).sum();
                assert_eq!(model.resident_bytes(i), bytes, "step {step} core {i}");
                for &(a, s) in m {
                    assert_eq!(model.probe(i, &[(a, s)]).hit_bytes, s, "step {step}");
                }
            }
        }
    }

    /// The pre-index `touch` semantics, against a plain MRU-first Vec.
    fn mirror_touch(list: &mut Vec<(u64, u64)>, addr: u64, size: u64, capacity: u64) {
        list.retain(|&(a, _)| a != addr);
        list.insert(0, (addr, size));
        let mut bytes: u64 = list.iter().map(|&(_, s)| s).sum();
        while bytes > capacity && list.len() > 1 {
            let (_, evicted) = list.pop().expect("len checked");
            bytes -= evicted;
        }
    }

    #[test]
    fn double_counting_same_block_in_working_set() {
        // A task listing the same block twice (in + inout on same address)
        // counts it twice; this is fine because both the hit and miss sides
        // are consistent.
        let mut model = LocalityModel::new(1, 4096);
        model.record_reads(0, &[(0xC000, 128)]);
        let out = model.probe(0, &[(0xC000, 128), (0xC000, 128)]);
        assert_eq!(out.hit_bytes, 256);
    }
}
