//! Out-of-core storage: real file I/O behind a bounded user-space page
//! cache, with a durable, crash-safe on-disk format.
//!
//! The paper's experiments memory-map a 32 GiB file on a RAID array and let
//! the OS page cache play the role of internal memory. Offline we cannot
//! rely on (or even observe) the OS page cache, so this module makes
//! internal memory explicit: a [`FilePages`] store keeps at most
//! `cache_pages` page frames in RAM under LRU replacement and performs
//! positioned reads/writes on miss/eviction. Setting the cache budget well
//! below the data size reproduces the out-of-core regime of Figures 2–4.
//!
//! The backend is three pieces:
//!
//! * [`FilePages`], the engine: shadow paging, the LRU frame cache,
//!   commit and recovery. An element store's element count lives here
//!   too, so every handle to it agrees on the length.
//! * [`FileStore`], the one cloneable, thread-safe handle to an engine.
//!   It carries the control surface (counters, reclaim gate, sync,
//!   commit, epoch, cache drop) and serves raw pages as a [`PageStore`].
//! * [`FileMem`], a typed element view of the same handle, which serves a
//!   flat array of `T` as a [`Mem`].
//!
//! # Durability: shadow paging + shadow-committed metadata
//!
//! Every store file carries the format of [`crate::format`]: a superblock,
//! a double-buffered metadata region, then physical data pages. Structures
//! address *logical* pages; a page table (committed as part of the
//! metadata) maps them to physical slots. Between two commits, a dirty
//! logical page is **never written over the physical slot the last commit
//! maps it to** — its first writeback of the epoch relocates it to a free
//! slot (shadow paging). [`FilePages::commit_meta`] then makes the new
//! state durable in three ordered steps:
//!
//! 1. write back every dirty page (to shadow slots), barrier;
//! 2. write the new page table + caller payload to the *inactive*
//!    metadata slot under the next epoch, barrier;
//! 3. only now recycle the slots the previous commit referenced.
//!
//! A crash at any point therefore recovers to exactly the last committed
//! state: data writes touched only unreferenced slots, and a torn
//! metadata write fails its checksum so recovery keeps the previous
//! epoch. This is verified exhaustively by the crash-injection suite over
//! [`crate::dev::CrashDev`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::dev::RawDev;
use crate::format::{
    decode_slot, encode_slot, OpenError, Superblock, DEFAULT_SLOT_BYTES, FORMAT_VERSION, KIND_ELEM,
    KIND_PAGES, SUPER_BYTES,
};
use crate::lru::{Access, LruCache};
use crate::mem::Mem;
use crate::page::PageStore;
use crate::pod::Pod;
use crate::reclaim::ReclaimGate;
use crate::stats::{AtomicIoStats, IoStats};

/// File-backed pages with a bounded user-space LRU cache of frames and a
/// shadow-paged durable format (see the module docs).
pub struct FilePages<D: RawDev = File> {
    dev: D,
    sb: Superblock,
    /// Logical page id → physical slot.
    table: Vec<u32>,
    /// The page table of the last committed epoch (prefix of `table`'s
    /// logical space). A dirty page whose mapping still equals its
    /// committed mapping must relocate before its first writeback.
    committed: Vec<u32>,
    /// Physical slot allocation high-water mark.
    phys_len: u32,
    /// Physical slots referenced by neither table (recycled by remaps).
    free: Vec<u32>,
    /// Last committed metadata epoch (0 = never committed).
    epoch: u64,
    /// Physical slots below this bound existed on the device when the
    /// store was opened and may hold stale pre-crash bytes beyond the
    /// committed state; `alloc_page` zeros them before handing them out
    /// so the "fresh pages read as zeros" contract survives recovery.
    suspect_end: u32,
    /// Element count of an element store (`KIND_ELEM`), committed as the
    /// first 8 bytes of the caller payload; 0 for a page store.
    elems: usize,
    /// Elements per page of an element store; 0 for a page store.
    per_page: usize,
    cache: LruCache,
    frames: HashMap<u64, Box<[u8]>>,
    dirty: HashSet<u64>,
    /// Shared with observer handles: counters are atomic so `stats` /
    /// `take_stats` probes on other threads never wait on (or race
    /// with) the store's own lock.
    stats: Arc<AtomicIoStats>,
    /// Superseded committed slots awaiting reclamation, tagged with the
    /// last committed epoch that referenced them (FIFO: tags ascend).
    /// Drained to `free` once the tag falls below the gate's horizon.
    retired: VecDeque<(u64, Vec<u32>)>,
    /// When set, pinned-reader horizon that gates recycling of retired
    /// slots; `None` (the default) recycles at the next commit.
    gate: Option<Arc<dyn ReclaimGate>>,
    /// Recent sequential stream positions, for seek accounting. A device
    /// access adjacent (within a small readahead window) to any tracked
    /// stream is sequential; anything else is a seek and starts a new
    /// stream. This models a disk with per-stream readahead — the paper
    /// notes its RAID's "sequential prefetching … significantly helps
    /// COLAs" — so a k-way merge reads as k concurrent sequential streams,
    /// not k·len seeks.
    streams: Vec<u64>,
}

/// Number of concurrent sequential streams the modeled device tracks.
const MAX_STREAMS: usize = 16;
/// Readahead slack: an access within this many pages ahead of a stream
/// still counts as sequential.
const READAHEAD: u64 = 2;

impl<D: RawDev> std::fmt::Debug for FilePages<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilePages")
            .field("page_size", &self.sb.page_size)
            .field("pages", &self.table.len())
            .field("phys_pages", &self.phys_len)
            .field("epoch", &self.epoch)
            .field("cached", &self.frames.len())
            .finish()
    }
}

/// Creates (truncating) the file at `path`, opened read-write.
fn create_file(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

impl FilePages<File> {
    /// Creates (truncating) a page store at `path` with room for
    /// `cache_pages` resident frames.
    pub fn create(path: &Path, page_size: usize, cache_pages: usize) -> io::Result<Self> {
        Self::create_on(create_file(path)?, page_size, cache_pages)
    }
}

impl<D: RawDev> FilePages<D> {
    /// Creates a page store on a raw device (the device is assumed
    /// empty/overwritable); writes the superblock immediately.
    pub fn create_on(dev: D, page_size: usize, cache_pages: usize) -> io::Result<Self> {
        Self::create_on_sized(dev, page_size, cache_pages, DEFAULT_SLOT_BYTES)
    }

    /// [`FilePages::create_on`] with an explicit metadata-slot capacity.
    /// The slot bounds the committable control state — page table
    /// (4 B per logical page) plus the caller payload — so it caps the
    /// store at roughly `slot_bytes / 4` pages; size it for the data the
    /// store must grow to (the capacity is fixed at creation and
    /// recorded in the superblock).
    pub fn create_on_sized(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        slot_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_kind(dev, page_size, cache_pages, (KIND_PAGES, 0), slot_bytes)
    }

    /// Creates a store of the given `(kind, elem_bytes)` on a raw device:
    /// `(KIND_PAGES, 0)` for raw pages, `(KIND_ELEM, stride)` for an
    /// element array whose elements sit `stride` bytes apart and never
    /// straddle pages (see [`FileStore::elems`]).
    pub fn create_kind(
        mut dev: D,
        page_size: usize,
        cache_pages: usize,
        (kind, elem_bytes): (u32, u32),
        slot_bytes: usize,
    ) -> io::Result<Self> {
        assert!(page_size > 0);
        assert!(
            slot_bytes > crate::format::SLOT_HDR_BYTES,
            "metadata slot must fit its header"
        );
        let per_page = if kind == KIND_ELEM {
            let stride = elem_bytes as usize;
            assert!(
                stride > 0 && page_size.is_multiple_of(stride),
                "elements must not straddle pages"
            );
            page_size / stride
        } else {
            0
        };
        let sb = Superblock {
            version: FORMAT_VERSION,
            page_size: page_size as u32,
            kind,
            elem_bytes,
            slot_bytes: slot_bytes as u32,
        };
        dev.write_all_at(&sb.encode(), 0)?;
        dev.sync()?;
        Ok(FilePages {
            dev,
            sb,
            table: Vec::new(),
            committed: Vec::new(),
            phys_len: 0,
            free: Vec::new(),
            epoch: 0,
            suspect_end: 0,
            elems: 0,
            per_page,
            cache: LruCache::new(cache_pages.max(1)),
            frames: HashMap::new(),
            dirty: HashSet::new(),
            stats: Arc::new(AtomicIoStats::new()),
            retired: VecDeque::new(),
            gate: None,
            streams: Vec::new(),
        })
    }

    /// Opens a store on a raw device and recovers the newest committed
    /// epoch; `expected` is the `(kind, elem_bytes)` pair the caller
    /// requires. Returns the store and the recovered caller payload (for
    /// an element store, what follows its element count).
    pub fn open_on(
        dev: D,
        cache_pages: usize,
        expected: (u32, u32),
    ) -> Result<(Self, Vec<u8>), OpenError> {
        Self::open_bounded(dev, cache_pages, expected, None)
    }

    /// [`FilePages::open_on`], bounded: recovers the newest committed
    /// epoch **not exceeding `max_epoch`** (when given). The double
    /// buffering keeps the previous epoch intact until the next commit,
    /// so a coordinator that recorded an epoch vector (the sharded
    /// database's cross-shard commit record) can roll every member store
    /// back to its recorded epoch after a crash mid-multi-store-commit.
    pub fn open_bounded(
        mut dev: D,
        cache_pages: usize,
        expected: (u32, u32),
        max_epoch: Option<u64>,
    ) -> Result<(Self, Vec<u8>), OpenError> {
        let mut super_buf = [0u8; SUPER_BYTES];
        let got = read_fully(&mut dev, &mut super_buf, 0)?;
        let sb = Superblock::decode(&super_buf, got)?;
        if (sb.kind, sb.elem_bytes) != expected {
            return Err(OpenError::WrongKind {
                found: (sb.kind, sb.elem_bytes),
                expected,
            });
        }
        // Recover: the valid slot with the highest epoch (within the
        // bound, if any) wins.
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut newest_seen = 0u64;
        for i in 0..2 {
            let mut buf = vec![0u8; sb.slot_bytes as usize];
            let got = read_fully(&mut dev, &mut buf, sb.slot_off(i))?;
            if let Some((epoch, payload)) = decode_slot(&buf[..got]) {
                newest_seen = newest_seen.max(epoch);
                if max_epoch.is_some_and(|m| epoch > m) {
                    continue;
                }
                if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                    best = Some((epoch, payload));
                }
            }
        }
        let Some((epoch, payload)) = best else {
            return match max_epoch {
                Some(m) if newest_seen > 0 => Err(OpenError::Corrupt(format!(
                    "no committed epoch at or below {m} survives (newest on disk: \
                     {newest_seen}); the coordinator's commit record is stale"
                ))),
                _ => Err(OpenError::NeverCommitted),
            };
        };
        // Parse the store section: logical count, phys high-water mark,
        // page table; the rest is the caller's payload.
        if payload.len() < 8 {
            return Err(OpenError::Corrupt("metadata payload too short".into()));
        }
        let logical = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
        let phys_len = u32::from_le_bytes(payload[4..8].try_into().unwrap());
        // Bound both counts by what the checksummed payload can actually
        // describe *before* allocating with them (a crafted-but-valid
        // payload must produce Corrupt, not an allocator abort).
        let table_end = match logical.checked_mul(4).and_then(|t| t.checked_add(8)) {
            Some(end) if end <= payload.len() => end,
            _ => return Err(OpenError::Corrupt("page table truncated".into())),
        };
        if (phys_len as usize) > logical.saturating_mul(2).saturating_add(1 << 20) {
            // Shadow paging needs at most one extra slot per remapped
            // page; a high-water mark wildly past that is corruption.
            return Err(OpenError::Corrupt(format!(
                "physical high-water mark {phys_len} implausible for {logical} logical pages"
            )));
        }
        let mut table = Vec::with_capacity(logical);
        let mut referenced = vec![false; phys_len as usize];
        for l in 0..logical {
            let p = u32::from_le_bytes(payload[8 + 4 * l..12 + 4 * l].try_into().unwrap());
            if p >= phys_len || std::mem::replace(&mut referenced[p as usize], true) {
                return Err(OpenError::Corrupt(format!(
                    "page table maps logical page {l} to invalid or duplicate slot {p}"
                )));
            }
            table.push(p);
        }
        let free: Vec<u32> = referenced
            .iter()
            .enumerate()
            .filter(|(_, &r)| !r)
            .map(|(p, _)| p as u32)
            .collect();
        let mut user = &payload[table_end..];
        // An element store's committed element count is the first 8
        // bytes of the caller payload.
        let (mut elems, mut per_page) = (0, 0);
        if sb.kind == KIND_ELEM {
            let (page_size, stride) = (sb.page_size as usize, sb.elem_bytes as usize);
            if stride == 0 || !page_size.is_multiple_of(stride) {
                return Err(OpenError::Corrupt(format!(
                    "element stride {stride} does not divide page size {page_size}"
                )));
            }
            let Some((len, rest)) = user.split_first_chunk::<8>() else {
                return Err(OpenError::Corrupt(
                    "element-array metadata too short".into(),
                ));
            };
            per_page = page_size / stride;
            elems = u64::from_le_bytes(*len) as usize;
            if elems > logical.saturating_mul(per_page) {
                return Err(OpenError::Corrupt(format!(
                    "committed length {elems} exceeds the allocated page capacity"
                )));
            }
            user = rest;
        }
        // Slots past the committed high-water mark may hold stale bytes
        // from synced-but-uncommitted pre-crash writes; remember how far
        // the device extends so alloc_page can zero them on reuse.
        let dev_len = dev.dev_len()?;
        let suspect_end = dev_len
            .saturating_sub(sb.data_off())
            .div_ceil(sb.page_size as u64)
            .min(u32::MAX as u64) as u32;
        Ok((
            FilePages {
                dev,
                sb,
                committed: table.clone(),
                table,
                phys_len,
                free,
                epoch,
                suspect_end,
                elems,
                per_page,
                cache: LruCache::new(cache_pages.max(1)),
                frames: HashMap::new(),
                dirty: HashSet::new(),
                stats: Arc::new(AtomicIoStats::new()),
                retired: VecDeque::new(),
                gate: None,
                streams: Vec::new(),
            },
            user.to_vec(),
        ))
    }

    /// Real-I/O counters (fetches = device reads, writebacks = device
    /// writes).
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Resets the I/O counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Returns the counters accumulated so far and resets them: one call
    /// closes a measurement phase and opens the next (cache residency is
    /// untouched, so a warm cache stays warm across phases). Each
    /// counter is atomically swapped to zero, so even with a concurrent
    /// mutator every transfer lands in exactly one phase.
    pub fn take_stats(&self) -> IoStats {
        self.stats.take()
    }

    /// Installs the reclamation gate consulted before recycling
    /// superseded committed slots (see [`crate::ReclaimGate`]). Without
    /// a gate, slots are recycled as soon as the next commit supersedes
    /// them — the single-threaded behaviour.
    pub fn set_reclaim_gate(&mut self, gate: Arc<dyn ReclaimGate>) {
        self.gate = Some(gate);
    }

    /// Superseded committed slots currently parked on the retire list
    /// (awaiting the gate's horizon).
    pub fn retired_slots(&self) -> usize {
        self.retired.iter().map(|(_, v)| v.len()).sum()
    }

    /// The last committed metadata epoch (0 = never committed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Physical slots allocated so far (≥ logical pages; the surplus is
    /// shadow-paging headroom).
    pub fn phys_pages(&self) -> u32 {
        self.phys_len
    }

    fn page_size_usize(&self) -> usize {
        self.sb.page_size as usize
    }

    fn note_device_access(&mut self, phys: u64) {
        if let Some(i) = self
            .streams
            .iter()
            .position(|&p| phys >= p && phys <= p + READAHEAD)
        {
            let _ = self.streams.remove(i);
            self.streams.insert(0, phys);
            return;
        }
        self.stats.inc_seeks();
        self.streams.insert(0, phys);
        self.streams.truncate(MAX_STREAMS);
    }

    fn page_off(&self, phys: u32) -> u64 {
        self.sb.data_off() + phys as u64 * self.sb.page_size as u64
    }

    fn read_page_from_file(&mut self, logical: u64, buf: &mut [u8]) {
        let phys = self.table[logical as usize];
        let off = self.page_off(phys);
        self.stats.inc_fetches();
        self.note_device_access(phys as u64);
        // The page may extend past EOF if it was allocated but never
        // written; treat missing bytes as zero.
        let mut done = 0usize;
        while done < buf.len() {
            match self.dev.read_at(&mut buf[done..], off + done as u64) {
                Ok(0) => {
                    buf[done..].fill(0);
                    break;
                }
                Ok(n) => done += n,
                Err(e) => panic!("device read failed: {e}"),
            }
        }
    }

    /// The physical slot the next writeback of `logical` must target,
    /// relocating away from the committed mapping if necessary (shadow
    /// paging: committed slots are immutable until the next commit).
    fn phys_for_write(&mut self, logical: u64) -> u32 {
        let l = logical as usize;
        if l < self.committed.len() && self.table[l] == self.committed[l] {
            if self.free.is_empty() {
                self.reclaim_retired();
            }
            let fresh = self.free.pop().unwrap_or_else(|| {
                let p = self.phys_len;
                self.phys_len += 1;
                p
            });
            self.table[l] = fresh;
        }
        self.table[l]
    }

    /// Moves retired slots whose epoch tag has fallen below the gate's
    /// horizon onto the free list. Without a gate everything retired is
    /// immediately reclaimable.
    fn reclaim_retired(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        let horizon = match &self.gate {
            Some(g) => g.reclaim_horizon(),
            None => u64::MAX,
        };
        while self.retired.front().is_some_and(|(tag, _)| *tag < horizon) {
            let (_, slots) = self.retired.pop_front().expect("front checked");
            self.free.extend(slots);
        }
    }

    fn write_page_to_file(&mut self, logical: u64, buf: &[u8]) -> io::Result<()> {
        let phys = self.phys_for_write(logical);
        let off = self.page_off(phys);
        self.stats.inc_writebacks();
        self.note_device_access(phys as u64);
        self.dev.write_all_at(buf, off)
    }

    /// Makes page `id` resident and returns whether it was a hit.
    fn ensure_resident(&mut self, id: u64, write: bool) {
        self.stats.inc_accesses();
        match self.cache.access(id, write) {
            Access::Hit => {
                self.stats.inc_hits();
                if write {
                    self.dirty.insert(id);
                }
            }
            Access::Miss { evicted } => {
                if let Some((victim, victim_dirty)) = evicted {
                    self.stats.inc_evictions();
                    let frame = self.frames.remove(&victim).expect("evicted frame missing");
                    if victim_dirty || self.dirty.remove(&victim) {
                        self.write_page_to_file(victim, &frame)
                            .expect("eviction writeback failed");
                        self.dirty.remove(&victim);
                    }
                }
                let mut frame = vec![0u8; self.page_size_usize()].into_boxed_slice();
                self.read_page_from_file(id, &mut frame);
                self.frames.insert(id, frame);
                if write {
                    self.dirty.insert(id);
                }
            }
        }
    }

    /// Writes every dirty resident page back to the device (to shadow
    /// slots, never over committed data) and issues a durability barrier.
    /// Does **not** commit metadata: after a crash the store still
    /// recovers the last [`FilePages::commit_meta`] state.
    pub fn sync(&mut self) -> io::Result<()> {
        let mut dirty: Vec<u64> = self.dirty.iter().copied().collect();
        dirty.sort_unstable();
        for id in dirty {
            let frame = self.frames.get(&id).expect("dirty frame missing").clone();
            self.write_page_to_file(id, &frame)?;
            self.dirty.remove(&id);
        }
        self.dev.sync()
    }

    /// Commits the current state durably: syncs the data pages, then
    /// shadow-writes the page table, an element store's element count,
    /// and the `user` payload (the structure's control state) to the
    /// inactive metadata slot under the next epoch.
    /// After a successful return, a crash at any later point — or a
    /// reopen — recovers exactly this state.
    pub fn commit_meta(&mut self, user: &[u8]) -> io::Result<()> {
        self.sync()?;
        let mut payload = Vec::with_capacity(16 + 4 * self.table.len() + user.len());
        payload.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.phys_len.to_le_bytes());
        for &p in &self.table {
            payload.extend_from_slice(&p.to_le_bytes());
        }
        if self.sb.kind == KIND_ELEM {
            payload.extend_from_slice(&(self.elems as u64).to_le_bytes());
        }
        payload.extend_from_slice(user);
        let epoch = self.epoch + 1;
        let slot = encode_slot(epoch, &payload, self.sb.slot_bytes as usize)?;
        let off = self.sb.slot_off((epoch % 2) as usize);
        self.dev.write_all_at(&slot, off)?;
        self.dev.sync()?;
        self.epoch = epoch;
        // Only now are the previous epoch's slots unreferenced by the
        // *newest* committed table — but a pinned reader may still be on
        // an older committed epoch that references them. Park them on
        // the retire list tagged with the superseded epoch; without a
        // gate the immediate reclaim below frees them right away, which
        // is the original single-threaded behaviour.
        let superseded: Vec<u32> = self
            .committed
            .iter()
            .enumerate()
            .filter(|&(l, &old)| self.table[l] != old)
            .map(|(_, &old)| old)
            .collect();
        if !superseded.is_empty() {
            self.retired.push_back((epoch - 1, superseded));
        }
        self.reclaim_retired();
        self.committed = self.table.clone();
        Ok(())
    }

    /// Drops every resident page (writing back dirty ones), emptying the
    /// user-space cache — the analogue of the paper's "remounted the RAID
    /// array ... to clear the file cache".
    pub fn drop_cache(&mut self) -> io::Result<()> {
        self.sync()?;
        self.cache.flush();
        self.frames.clear();
        Ok(())
    }

    /// Moves the engine behind a [`FileStore`], the shared handle every
    /// user of the store clones.
    pub fn into_shared(self) -> FileStore<D> {
        FileStore {
            stats: self.stats.clone(),
            inner: Arc::new(Mutex::new(self)),
            view: PhantomData,
        }
    }

    /// Page and byte offset of element `i` of an element store.
    #[inline]
    fn elem_at(&self, i: usize) -> (u32, usize) {
        assert!(i < self.elems);
        let page = (i / self.per_page) as u32;
        (page, (i % self.per_page) * self.sb.elem_bytes as usize)
    }

    fn read_elem<T: Pod>(&mut self, i: usize) -> T {
        let (page, off) = self.elem_at(i);
        self.with_page(page, |pg| T::read_from(&pg[off..off + T::BYTES]))
    }

    fn write_elem<T: Pod>(&mut self, i: usize, v: T) {
        let (page, off) = self.elem_at(i);
        self.with_page_mut(page, |pg| v.write_to(&mut pg[off..off + T::BYTES]));
    }

    /// Sets the element count, allocating the pages it needs (shrinking
    /// frees nothing) and writing `fill` to every new element.
    fn resize_elems<T: Pod>(&mut self, new_len: usize, fill: T) {
        let pages_needed = new_len.div_ceil(self.per_page) as u32;
        while self.num_pages() < pages_needed {
            self.alloc_page();
        }
        let old_len = std::mem::replace(&mut self.elems, new_len);
        for i in old_len..new_len {
            self.write_elem(i, fill);
        }
    }
}

fn read_fully<D: RawDev>(dev: &mut D, buf: &mut [u8], off: u64) -> io::Result<usize> {
    let mut done = 0usize;
    while done < buf.len() {
        match dev.read_at(&mut buf[done..], off + done as u64)? {
            0 => break,
            n => done += n,
        }
    }
    Ok(done)
}

impl<D: RawDev> PageStore for FilePages<D> {
    fn page_size(&self) -> usize {
        self.page_size_usize()
    }

    fn num_pages(&self) -> u32 {
        self.table.len() as u32
    }

    fn alloc_page(&mut self) -> u32 {
        let id = self.table.len() as u32;
        // Bump-allocated slots only: past the device end a slot reads as
        // zeros (sparse-file semantics), which is the allocation
        // contract. Recycled free-list slots hold stale bytes and are
        // reused only by whole-page writebacks (remaps). One exception:
        // after crash recovery the device may extend past the committed
        // high-water mark with stale uncommitted bytes — zero those
        // before handing them out. (Format bookkeeping, not workload
        // I/O: deliberately not counted in the transfer stats.)
        let phys = self.phys_len;
        self.phys_len += 1;
        if phys < self.suspect_end {
            let zeros = vec![0u8; self.page_size_usize()];
            self.dev
                .write_all_at(&zeros, self.page_off(phys))
                .expect("zeroing a recovered slot failed");
        }
        self.table.push(phys);
        id
    }

    fn with_page<R>(&mut self, id: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        self.ensure_resident(id as u64, false);
        f(self.frames.get(&(id as u64)).expect("frame resident"))
    }

    fn with_page_mut<R>(&mut self, id: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.ensure_resident(id as u64, true);
        f(self.frames.get_mut(&(id as u64)).expect("frame resident"))
    }
}

/// The one shared handle to a [`FilePages`] engine: cloneable and
/// thread-safe (`Arc<Mutex<…>>`), so a structure can own one clone as its
/// storage while a database or benchmark keeps another for counters,
/// commits and cache control, and a file-backed structure is `Send` and
/// can serve as a shard whose batches are applied on worker threads.
///
/// The view parameter `V` selects what the handle serves: [`PageView`]
/// (the default) is raw pages through [`PageStore`]; [`ElemView`] is a
/// typed element array through [`Mem`] (see [`FileMem`]). Every view
/// shares the control methods below, and clones of any view see one
/// engine.
pub struct FileStore<D: RawDev = File, V = PageView> {
    inner: Arc<Mutex<FilePages<D>>>,
    /// Cached counter block: stats observers bypass `inner`'s lock, so
    /// a probe thread never waits on (or deadlocks with) a writer
    /// holding the store through a long merge.
    stats: Arc<AtomicIoStats>,
    view: PhantomData<fn() -> V>,
}

/// [`FileStore`] view: raw byte pages through [`PageStore`].
#[derive(Debug)]
pub enum PageView {}

/// [`FileStore`] view: a flat array of `T` through [`Mem`]; element `i`
/// lives at byte `i * elem_bytes` of the logical page space, and elements
/// never straddle pages.
#[derive(Debug)]
pub struct ElemView<T>(PhantomData<fn() -> T>);

/// A typed element view of a shared file store.
pub type FileMem<T, D = File> = FileStore<D, ElemView<T>>;

/// [`FileMem`] under the name the benchmark stack (`perfbench`) imports.
pub type ArcFileMem<T, D = File> = FileMem<T, D>;

impl<D: RawDev, V> Clone for FileStore<D, V> {
    fn clone(&self) -> Self {
        FileStore {
            inner: self.inner.clone(),
            stats: self.stats.clone(),
            view: PhantomData,
        }
    }
}

impl<D: RawDev, V> FileStore<D, V> {
    fn lock(&self) -> MutexGuard<'_, FilePages<D>> {
        self.inner.lock().expect("file store mutex poisoned")
    }

    /// Real-I/O counters (fetches = device reads, writebacks = device
    /// writes). Lock-free: reads the shared atomic counters without
    /// touching the store's mutex.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Resets the I/O counters (lock-free).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Returns the counters accumulated so far and resets them: one call
    /// closes a measurement phase and opens the next (cache residency is
    /// untouched, so a warm cache stays warm across phases). Each counter
    /// is atomically swapped to zero, so a phase boundary cannot lose or
    /// double-count concurrent accesses — and, being lock-free, it cannot
    /// be starved by a writer holding the store through a long merge.
    pub fn take_stats(&self) -> IoStats {
        self.stats.take()
    }

    /// The shared atomic counter block, for observers that must read the
    /// counters without holding the store itself.
    pub fn stats_handle(&self) -> Arc<AtomicIoStats> {
        self.stats.clone()
    }

    /// Installs a reclamation gate (see [`FilePages::set_reclaim_gate`]).
    pub fn set_reclaim_gate(&self, gate: Arc<dyn ReclaimGate>) {
        self.lock().set_reclaim_gate(gate)
    }

    /// Writes dirty pages back with a durability barrier; no metadata
    /// commit (see [`FilePages::sync`]).
    pub fn sync(&self) -> io::Result<()> {
        self.lock().sync()
    }

    /// Commits the store's state plus the caller's payload durably (see
    /// [`FilePages::commit_meta`]). Every view writes the same bytes.
    pub fn commit_meta(&self, user: &[u8]) -> io::Result<()> {
        self.lock().commit_meta(user)
    }

    /// The last committed metadata epoch (0 = never committed).
    pub fn epoch(&self) -> u64 {
        self.lock().epoch()
    }

    /// Empties the user-space page cache (writes dirty pages back first).
    pub fn drop_cache(&self) -> io::Result<()> {
        self.lock().drop_cache()
    }
}

impl<D: RawDev> FileStore<D> {
    /// The element view of this store, as an array of `T`.
    ///
    /// # Panics
    ///
    /// If the store is not an element store or its stride cannot hold a
    /// `T`.
    pub fn elems<T: Pod>(&self) -> FileMem<T, D> {
        let sb = self.lock().sb;
        assert!(
            sb.kind == KIND_ELEM && sb.elem_bytes as usize >= T::BYTES,
            "not an element store whose elem_bytes fit the element"
        );
        FileStore {
            inner: self.inner.clone(),
            stats: self.stats.clone(),
            view: PhantomData,
        }
    }
}

impl<D: RawDev> PageStore for FileStore<D> {
    fn page_size(&self) -> usize {
        self.lock().page_size()
    }

    fn num_pages(&self) -> u32 {
        self.lock().num_pages()
    }

    fn alloc_page(&mut self) -> u32 {
        self.lock().alloc_page()
    }

    fn with_page<R>(&mut self, id: u32, f: impl FnOnce(&[u8]) -> R) -> R {
        self.lock().with_page(id, f)
    }

    fn with_page_mut<R>(&mut self, id: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.lock().with_page_mut(id, f)
    }
}

impl<T: Pod> FileStore<File, ElemView<T>> {
    /// Creates (truncating) an element array at `path`. `elem_bytes`
    /// must be at least `T::BYTES` (pad to match a modeled layout, e.g.
    /// the paper's 32-byte elements) and must divide `page_size`.
    pub fn create(
        path: &Path,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_on(create_file(path)?, page_size, cache_pages, elem_bytes)
    }
}

impl<T: Pod, D: RawDev> FileStore<D, ElemView<T>> {
    /// Returns `mem` unchanged. An element store is shared from birth;
    /// this keeps the `ArcFileMem::new(FileMem::create_on_sized(..)?)`
    /// spelling the benchmark stack (`perfbench`) uses compiling.
    pub fn new(mem: Self) -> Self {
        mem
    }

    /// Creates an element array on a raw device (see
    /// [`FileMem::create`]).
    pub fn create_on(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> io::Result<Self> {
        Self::create_on_sized(dev, page_size, cache_pages, elem_bytes, DEFAULT_SLOT_BYTES)
    }

    /// [`FileMem::create_on`] with an explicit metadata-slot capacity
    /// (see [`FilePages::create_on_sized`]): the slot caps the array at
    /// roughly `slot_bytes / 4` pages, i.e. `slot_bytes / 4 * (page_size
    /// / elem_bytes)` elements.
    pub fn create_on_sized(
        dev: D,
        page_size: usize,
        cache_pages: usize,
        elem_bytes: usize,
        slot_bytes: usize,
    ) -> io::Result<Self> {
        let kind = (KIND_ELEM, elem_bytes as u32);
        Ok(
            FilePages::create_kind(dev, page_size, cache_pages, kind, slot_bytes)?
                .into_shared()
                .elems(),
        )
    }

    /// Opens an element array on a raw device, recovering the committed
    /// length and the caller payload (see [`FilePages::open_on`]).
    pub fn open_on(
        dev: D,
        cache_pages: usize,
        elem_bytes: usize,
    ) -> Result<(Self, Vec<u8>), OpenError> {
        let (pages, user) = FilePages::open_on(dev, cache_pages, (KIND_ELEM, elem_bytes as u32))?;
        Ok((pages.into_shared().elems(), user))
    }
}

impl<T: Pod, D: RawDev> Mem<T> for FileStore<D, ElemView<T>> {
    fn len(&self) -> usize {
        self.lock().elems
    }

    fn get(&self, i: usize) -> T {
        self.lock().read_elem(i)
    }

    fn set(&mut self, i: usize, v: T) {
        self.lock().write_elem(i, v)
    }

    fn resize(&mut self, new_len: usize, fill: T) {
        self.lock().resize_elems(new_len, fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dev::CrashDev;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cosbt-dam-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn file_pages_roundtrip_through_evictions() {
        let path = tmp("pages");
        let mut fp = FilePages::create(&path, 256, 2).unwrap();
        for _ in 0..8 {
            fp.alloc_page();
        }
        for id in 0..8u32 {
            fp.with_page_mut(id, |pg| pg[0] = id as u8 + 1);
        }
        // Only 2 frames fit, so early pages were evicted and written back.
        for id in 0..8u32 {
            assert_eq!(fp.with_page(id, |pg| pg[0]), id as u8 + 1);
        }
        assert!(fp.stats().writebacks >= 6);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn drop_cache_preserves_data() {
        let path = tmp("dropcache");
        let mut fp = FilePages::create(&path, 128, 4).unwrap();
        let id = fp.alloc_page();
        fp.with_page_mut(id, |pg| pg[7] = 99);
        fp.drop_cache().unwrap();
        assert_eq!(fp.with_page(id, |pg| pg[7]), 99);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_mem_stores_padded_elements() {
        let path = tmp("filemem");
        let mut fm: FileMem<(u64, u64)> = FileMem::create(&path, 4096, 2, 32).unwrap();
        fm.resize(1000, (0, 0));
        for i in 0..1000usize {
            fm.set(i, (i as u64, (i * 3) as u64));
        }
        fm.drop_cache().unwrap();
        for i in (0..1000usize).rev() {
            assert_eq!(fm.get(i), (i as u64, (i * 3) as u64));
        }
        // 1000 elements * 32 B = 8 pages of 4096; cold reverse scan with a
        // 2-page cache must fetch each at least once.
        assert!(fm.stats().fetches >= 8);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn arc_handles_share_state() {
        // A page handle, as a `Db` holds one per shard, and two clones of
        // its element view, as the structure over it holds.
        let dev = CrashDev::new();
        let store = FilePages::create_kind(dev.clone(), 512, 4, (KIND_ELEM, 8), DEFAULT_SLOT_BYTES)
            .unwrap()
            .into_shared();
        let mut a: FileMem<u64, CrashDev> = store.elems();
        let b = a.clone();
        a.resize(100, 0);
        a.set(50, 1234);
        // Every clone agrees on the element count, and reads through it.
        assert_eq!(b.len(), 100);
        assert_eq!(b.get(50), 1234);
        b.drop_cache().unwrap();
        assert_eq!(a.get(50), 1234);
        assert!(b.stats().fetches > 0);
        assert_eq!(store.stats(), b.stats(), "one counter block");
        // A commit through the page handle records the element count.
        store.commit_meta(b"via pages").unwrap();
        let (re, user) =
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 4, 8).unwrap();
        assert_eq!(user, b"via pages");
        assert_eq!(re.len(), 100);
        assert_eq!(re.get(50), 1234);

        let mut p = FilePages::create_on(CrashDev::new(), 256, 2)
            .unwrap()
            .into_shared();
        let q = p.clone();
        let id = p.alloc_page();
        p.with_page_mut(id, |pg| pg[0] = 7);
        q.drop_cache().unwrap();
        assert_eq!(p.with_page(id, |pg| pg[0]), 7);
    }

    #[test]
    fn take_stats_splits_phases_without_losing_counts() {
        let path = tmp("phases");
        let mut m: FileMem<u64> = FileMem::create(&path, 512, 2, 8).unwrap();
        m.resize(500, 0);
        for i in 0..500usize {
            m.set(i, i as u64);
        }
        let phase1 = m.take_stats();
        assert!(phase1.accesses > 0, "prefill phase touched the store");
        assert_eq!(m.stats(), IoStats::default(), "take resets the counters");
        m.drop_cache().unwrap();
        let _ = m.take_stats();
        for i in 0..500usize {
            assert_eq!(m.get(i), i as u64);
        }
        let phase2 = m.take_stats();
        assert!(phase2.fetches > 0, "cold read phase fetched");
        // Residency survives the snapshot: re-reading the tail the scan
        // just loaded (still in the 2-page cache) is all hits.
        for i in 490..500usize {
            let _ = m.get(i);
        }
        let phase3 = m.take_stats();
        assert_eq!(phase3.fetches, 0, "warm phase after snapshot");
        assert_eq!(phase3.hits, phase3.accesses);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn arc_handles_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FileMem<u64>>();
        assert_send_sync::<FileStore>();
        assert_send_sync::<FileMem<u64, CrashDev>>();
    }

    #[test]
    fn reading_unwritten_page_yields_zeroes() {
        let path = tmp("zeroes");
        let mut fp = FilePages::create(&path, 128, 2).unwrap();
        let id = fp.alloc_page();
        assert_eq!(fp.with_page(id, |pg| pg.to_vec()), vec![0u8; 128]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn commit_and_reopen_recovers_pages_and_payload() {
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev.clone(), 128, 2).unwrap();
        for i in 0..5u32 {
            let id = fp.alloc_page();
            fp.with_page_mut(id, |pg| pg[0] = i as u8 + 10);
        }
        fp.commit_meta(b"root=3").unwrap();
        assert_eq!(fp.epoch(), 1);
        drop(fp);
        let dev = CrashDev::from_image(dev.snapshot());
        let (mut fp, payload) = FilePages::open_on(dev.clone(), 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"root=3");
        assert_eq!(fp.num_pages(), 5);
        assert_eq!(fp.epoch(), 1);
        for i in 0..5u32 {
            assert_eq!(fp.with_page(i, |pg| pg[0]), i as u8 + 10);
        }
        // A second epoch replaces the first.
        fp.with_page_mut(0, |pg| pg[0] = 99);
        fp.commit_meta(b"root=7").unwrap();
        drop(fp);
        let image = CrashDev::from_image(dev.snapshot());
        let (mut fp, payload) = FilePages::open_on(image, 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"root=7");
        assert_eq!(fp.epoch(), 2);
        assert_eq!(fp.with_page(0, |pg| pg[0]), 99);
    }

    #[test]
    fn file_mem_commit_restores_len() {
        let dev = CrashDev::new();
        let mut fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), 512, 2, 8).unwrap();
        fm.resize(100, 0);
        for i in 0..100usize {
            fm.set(i, i as u64 * 3);
        }
        fm.commit_meta(b"cola").unwrap();
        drop(fm);
        let (fm, payload) =
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 2, 8).unwrap();
        assert_eq!(payload, b"cola");
        assert_eq!(fm.len(), 100);
        for i in 0..100usize {
            assert_eq!(fm.get(i), i as u64 * 3);
        }
    }

    #[test]
    fn uncommitted_writes_never_touch_committed_slots() {
        // The shadow-paging invariant the crash guarantee rests on: after
        // a commit, overwrite a page heavily *without* committing, then
        // reopen the device image — the committed state must be intact.
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev.clone(), 128, 2).unwrap();
        let id = fp.alloc_page();
        fp.with_page_mut(id, |pg| pg.fill(0xAA));
        fp.commit_meta(b"v1").unwrap();
        fp.with_page_mut(id, |pg| pg.fill(0xBB));
        fp.sync().unwrap(); // durable data write, but no meta commit
        drop(fp);
        let (mut re, payload) =
            FilePages::open_on(CrashDev::from_image(dev.snapshot()), 2, (KIND_PAGES, 0)).unwrap();
        assert_eq!(payload, b"v1");
        assert_eq!(re.with_page(id, |pg| pg.to_vec()), vec![0xAA; 128]);
    }

    #[test]
    fn open_rejects_wrong_kind_and_missing_commit() {
        let dev = CrashDev::new();
        let fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), 512, 2, 8).unwrap();
        drop(fm);
        // Created but never committed.
        assert!(matches!(
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 2, 8),
            Err(OpenError::NeverCommitted)
        ));
        // Commit, then misread the store's identity in every way.
        let dev = CrashDev::new();
        let fm: FileMem<u64, CrashDev> = FileMem::create_on(dev.clone(), 512, 2, 8).unwrap();
        fm.commit_meta(b"").unwrap();
        drop(fm);
        // Wrong stride.
        assert!(matches!(
            FileMem::<u64, CrashDev>::open_on(CrashDev::from_image(dev.snapshot()), 2, 16),
            Err(OpenError::WrongKind { .. })
        ));
        // An element array opened as a raw page store.
        assert!(matches!(
            FilePages::open_on(CrashDev::from_image(dev.snapshot()), 2, (KIND_PAGES, 0)),
            Err(OpenError::WrongKind { .. })
        ));
        // Not a store at all.
        assert!(matches!(
            FilePages::<CrashDev>::open_on(
                CrashDev::from_image(b"hello world".to_vec()),
                2,
                (KIND_PAGES, 0)
            ),
            Err(OpenError::BadMagic)
        ));
    }

    #[test]
    fn shadow_remap_reuses_freed_slots() {
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev, 64, 4).unwrap();
        let a = fp.alloc_page();
        let b = fp.alloc_page();
        fp.with_page_mut(a, |pg| pg[0] = 1);
        fp.with_page_mut(b, |pg| pg[0] = 2);
        fp.commit_meta(b"").unwrap();
        // Epoch 2: both pages dirty → both relocate to fresh slots.
        fp.with_page_mut(a, |pg| pg[0] = 3);
        fp.with_page_mut(b, |pg| pg[0] = 4);
        fp.commit_meta(b"").unwrap();
        let grown = fp.phys_pages();
        assert_eq!(grown, 4, "two shadow slots allocated");
        // Epoch 3: the slots freed by epoch 2 are recycled, not grown.
        fp.with_page_mut(a, |pg| pg[0] = 5);
        fp.with_page_mut(b, |pg| pg[0] = 6);
        fp.commit_meta(b"").unwrap();
        assert_eq!(fp.phys_pages(), grown, "freed slots were reused");
        assert_eq!(fp.with_page(a, |pg| pg[0]), 5);
        assert_eq!(fp.with_page(b, |pg| pg[0]), 6);
    }

    #[test]
    fn reclaim_gate_defers_slot_reuse_until_horizon() {
        use crate::reclaim::ReclaimGate;
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Horizon(AtomicU64);
        impl ReclaimGate for Horizon {
            fn reclaim_horizon(&self) -> u64 {
                // ordering: single-threaded test gate; nothing else is
                // published through the horizon value.
                self.0.load(Ordering::Relaxed)
            }
        }

        // A "reader" pins old committed epochs: horizon 0 = everything
        // retired is still referenced.
        let gate = Arc::new(Horizon(AtomicU64::new(0)));
        let dev = CrashDev::new();
        let mut fp = FilePages::create_on(dev.clone(), 64, 4).unwrap();
        fp.set_reclaim_gate(gate.clone());
        let a = fp.alloc_page();
        let b = fp.alloc_page();
        fp.with_page_mut(a, |pg| pg[0] = 1);
        fp.with_page_mut(b, |pg| pg[0] = 2);
        fp.commit_meta(b"").unwrap(); // epoch 1
        fp.with_page_mut(a, |pg| pg[0] = 3);
        fp.with_page_mut(b, |pg| pg[0] = 4);
        fp.commit_meta(b"").unwrap(); // epoch 2: retires epoch-1 slots
        let grown = fp.phys_pages();
        assert_eq!(grown, 4, "two shadow slots allocated");
        assert_eq!(fp.retired_slots(), 2);
        // Epoch 3 with the horizon still at 0: retired slots must NOT be
        // recycled (an ungated store would reuse them here) — the store
        // grows instead.
        fp.with_page_mut(a, |pg| pg[0] = 5);
        fp.with_page_mut(b, |pg| pg[0] = 6);
        fp.commit_meta(b"").unwrap(); // epoch 3
        assert_eq!(fp.phys_pages(), grown + 2, "pinned slots were not reused");
        // Epoch 4, same: epoch 3's superseded slots park as well.
        fp.with_page_mut(a, |pg| pg[0] = 7);
        fp.with_page_mut(b, |pg| pg[0] = 8);
        fp.commit_meta(b"").unwrap(); // epoch 4
        assert_eq!(fp.phys_pages(), grown + 4);
        assert_eq!(fp.retired_slots(), 6);
        // This is what the gate buys: epoch 3 is still fully intact on
        // the device (its pages were never scribbled), so a coordinator
        // rolling this store back — or a pinned reader re-reading
        // through epoch 3's table — sees epoch 3's bytes.
        let (mut old, _) = FilePages::open_bounded(
            CrashDev::from_image(dev.snapshot()),
            4,
            (KIND_PAGES, 0),
            Some(3),
        )
        .unwrap();
        assert_eq!(old.with_page(a, |pg| pg[0]), 5);
        assert_eq!(old.with_page(b, |pg| pg[0]), 6);
        // Release the pin: everything retired below the new horizon is
        // recycled by the next remaps instead of growing the file.
        // ordering: single-threaded test; no cross-thread publication.
        gate.0.store(u64::MAX, Ordering::Relaxed);
        fp.with_page_mut(a, |pg| pg[0] = 9);
        fp.with_page_mut(b, |pg| pg[0] = 10);
        fp.commit_meta(b"").unwrap(); // epoch 5
        assert_eq!(
            fp.phys_pages(),
            grown + 4,
            "retired slots recycled once unpinned"
        );
        assert_eq!(fp.with_page(a, |pg| pg[0]), 9);
        assert_eq!(fp.with_page(b, |pg| pg[0]), 10);
    }
}
