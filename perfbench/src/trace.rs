//! Outside-in layer tracing: timing wrappers that sit at the public
//! boundaries between the library's layers, plus the counters they fill.
//!
//! The wrappers are the pieces a hand-built copy of the `DbBuilder`
//! stack is assembled from (see `stack.rs`):
//!
//! * [`ColaLayer`] — a `Dictionary + Persist` wrapper around one `GCola`,
//!   placed under `ShardRouter::new` (the `shard` / `cola` boundary);
//! * [`TracedMem`] — a `Mem<Cell>` wrapper over the `ArcFileMem` page
//!   cache (the `cola` / `dam` boundary);
//! * [`TracedDev`] — a `RawDev` wrapper over `DirectFile` (the
//!   `dam` / `dev` boundary).
//!
//! Every call is counted. Time is taken per *frame*: a timed call records
//! its own duration minus the durations of the timed calls nested in it
//! (its self time). Calls into the shard, cola and device layers are all
//! timed; page-cache element accesses are far too short and frequent for
//! that, so they are timed only inside a sample of cola calls (see
//! [`DEEP_SAMPLE`]). The cost of the clock itself is calibrated once
//! ([`Calib`]) and subtracted.
//!
//! All state is global because the benchmark drives the stack from one
//! thread (`parallel_ingest` is off), which is also why the counters use
//! plain load/store rather than locked read-modify-write.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use cosbt::cola::{Cell, ColaStats, GCola, Persist};
use cosbt::dam::{DirectFile, Mem, RawDev};
use cosbt::{Cursor, CursorOps, Dictionary, UpdateBatch};

/// Timed layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A whole operation on the hand-built stack (router included).
    Top = 0,
    /// One call into a shard's `GCola`, its page-cache accesses untimed.
    Cola = 1,
    /// One element read or write on the page cache (timed only inside
    /// deep cola calls).
    Dam = 2,
    /// One bulk call on the page cache (`resize`, `copy_within`,
    /// `fill_range`); rare and long, so always timed.
    DamBulk = 3,
    /// One `ArcFileMem::commit_meta`.
    DamCommit = 4,
    /// One device call.
    Dev = 5,
    /// One call into a shard's `GCola` with every page-cache access in it
    /// timed (one cola call in [`DEEP_SAMPLE`]).
    ColaDeep = 6,
}
const LAYERS: usize = 7;

/// What the benchmark loop is doing when a call happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Scan = 2,
    Commit = 3,
    Setup = 4,
}
pub const KINDS: usize = 5;
pub const USER_KINDS: [Kind; 3] = [Kind::Get, Kind::Put, Kind::Scan];

/// One cola call in this many is traced deep, with every page-cache
/// access inside it timed.
///
/// An element access takes tens of nanoseconds, about what reading the
/// clock costs, so timing one perturbs it: a timed access runs serialized
/// and measures slower than the same access in flight among its
/// neighbours. Deep calls therefore only measure how a cola call's time
/// *divides* between the cola and the page cache; the division is then
/// applied to the time of all cola calls (see [`Totals::cola_self`]).
pub const DEEP_SAMPLE: u64 = 16;

/// Ceiling on the self time of one timed element access. Its own work
/// (lock, locate, LRU touch, a page copy on a miss) takes well under a
/// microsecond; a sample far above that is the thread being descheduled.
const DAM_SAMPLE_CAP_NS: u64 = 20_000;

/// A statistics counter written only by the benchmark thread.
pub struct Ctr(AtomicU64);

impl Ctr {
    const fn zero() -> Ctr {
        Ctr(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, v: u64) {
        // Relaxed: a statistic read after the run; it publishes nothing.
        self.0.store(self.0.load(Relaxed).wrapping_add(v), Relaxed)
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    #[inline]
    fn set(&self, v: u64) {
        self.0.store(v, Relaxed)
    }
}

/// Counters of one layer under one kind.
struct FrameStats {
    calls: Ctr,
    timed: Ctr,
    /// Σ (measured − measured of timed direct children), two's complement.
    raw: Ctr,
    /// Number of timed direct children.
    child_n: Ctr,
}

static FRAMES: [[FrameStats; KINDS]; LAYERS] = [const {
    [const {
        FrameStats {
            calls: Ctr::zero(),
            timed: Ctr::zero(),
            raw: Ctr::zero(),
            child_n: Ctr::zero(),
        }
    }; KINDS]
}; LAYERS];
static KIND: Ctr = Ctr::zero();
static FRAME_MEAS: Ctr = Ctr::zero();
static FRAME_N: Ctr = Ctr::zero();
static COLA_TICK: Ctr = Ctr::zero();
static DEEP: Ctr = Ctr::zero();
static DAM_GETS: Ctr = Ctr::zero();
static DAM_SETS: Ctr = Ctr::zero();
static DEV_READS: Ctr = Ctr::zero();
static DEV_READ_BYTES: Ctr = Ctr::zero();
static DEV_READ_NS: Ctr = Ctr::zero();
static DEV_WRITES: Ctr = Ctr::zero();
static DEV_WRITE_BYTES: Ctr = Ctr::zero();
static DEV_WRITE_NS: Ctr = Ctr::zero();
static SHARD_CALLS: [Ctr; 8] = [const { Ctr::zero() }; 8];
static DEV_SYNC_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static COLA_LATEST: Mutex<Vec<ColaStats>> = Mutex::new(Vec::new());
static COLA_BASE: Mutex<Vec<ColaStats>> = Mutex::new(Vec::new());
static COLA_END: Mutex<Vec<ColaStats>> = Mutex::new(Vec::new());

/// Sets the kind subsequent calls are attributed to.
#[inline]
pub fn set_kind(k: Kind) {
    KIND.set(k as u64)
}

#[inline]
fn kind() -> usize {
    KIND.get() as usize
}

/// Counts a call at `layer` without timing it.
#[inline]
pub fn counted<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    FRAMES[layer as usize][kind()].calls.add(1);
    f()
}

/// Runs `f` as a timed frame of `layer`; returns its result and the
/// measured duration in ns.
#[inline]
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
    let stats = &FRAMES[layer as usize][kind()];
    stats.calls.add(1);
    let (outer_meas, outer_n) = (FRAME_MEAS.get(), FRAME_N.get());
    FRAME_MEAS.set(0);
    FRAME_N.set(0);
    let t0 = Instant::now();
    let r = f();
    let meas = t0.elapsed().as_nanos() as u64;
    let mut own = meas.wrapping_sub(FRAME_MEAS.get());
    if layer == Layer::Dam && own > DAM_SAMPLE_CAP_NS && own < u64::MAX / 2 {
        own = DAM_SAMPLE_CAP_NS;
    }
    stats.timed.add(1);
    stats.raw.add(own);
    stats.child_n.add(FRAME_N.get());
    FRAME_MEAS.set(outer_meas + meas);
    FRAME_N.set(outer_n + 1);
    (r, meas)
}

/// Resets every counter (after set-up, before the measured phase).
pub fn reset() {
    for row in &FRAMES {
        for c in row {
            c.calls.set(0);
            c.timed.set(0);
            c.raw.set(0);
            c.child_n.set(0);
        }
    }
    for c in [
        &FRAME_MEAS,
        &FRAME_N,
        &COLA_TICK,
        &DEEP,
        &DAM_GETS,
        &DAM_SETS,
        &DEV_READS,
        &DEV_READ_BYTES,
        &DEV_READ_NS,
        &DEV_WRITES,
        &DEV_WRITE_BYTES,
        &DEV_WRITE_NS,
    ] {
        c.set(0);
    }
    for c in &SHARD_CALLS {
        c.set(0);
    }
    lock(&DEV_SYNC_NS).clear();
    lock(&COLA_END).clear();
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("trace state mutex poisoned by a panicking run")
}

/// Cost of the clock, measured once per process.
#[derive(Debug, Clone, Copy)]
pub struct Calib {
    /// What a timed frame adds to its own measurement (ns).
    pub d0: f64,
    /// What a timed frame adds to its parent's measurement (ns).
    pub w: f64,
}

impl Calib {
    /// Times an empty frame nested in another, many times over: the inner
    /// frame's measurement is `d0`, and what it adds to the outer one is
    /// `w`. Takes the median of a few rounds, so a preempted round does
    /// not skew the constants.
    pub fn measure() -> Calib {
        const N: u64 = 200_000;
        let mut rounds = Vec::new();
        for _ in 0..7 {
            reset();
            set_kind(Kind::Setup);
            for i in 0..N {
                let (v, _) = timed(Layer::Top, || {
                    timed(Layer::Cola, || std::hint::black_box(i))
                });
                std::hint::black_box(v);
            }
            let per =
                |l: Layer| FRAMES[l as usize][Kind::Setup as usize].raw.get() as f64 / N as f64;
            rounds.push(Calib {
                d0: per(Layer::Cola),
                w: per(Layer::Top),
            });
        }
        reset();
        rounds.sort_by(|a, b| a.w.total_cmp(&b.w));
        rounds[rounds.len() / 2]
    }
}

/// Counters of one run, read once after the measured phase.
#[derive(Debug, Clone)]
pub struct Totals {
    calls: [[u64; KINDS]; LAYERS],
    timed: [[u64; KINDS]; LAYERS],
    /// Two's complement, as accumulated.
    raw: [[u64; KINDS]; LAYERS],
    child_n: [[u64; KINDS]; LAYERS],
    pub dam_gets: u64,
    pub dam_sets: u64,
    pub dev_reads: u64,
    pub dev_read_bytes: u64,
    pub dev_read_ns: u64,
    pub dev_writes: u64,
    pub dev_write_bytes: u64,
    pub dev_write_ns: u64,
    pub dev_sync_ns: Vec<u64>,
    pub shard_calls: Vec<u64>,
    pub calib: Calib,
}

impl Totals {
    pub fn read(calib: Calib, shards: usize) -> Totals {
        let grid = |f: fn(&FrameStats) -> &Ctr| {
            std::array::from_fn(|l| std::array::from_fn(|k| f(&FRAMES[l][k]).get()))
        };
        Totals {
            calls: grid(|c| &c.calls),
            timed: grid(|c| &c.timed),
            raw: grid(|c| &c.raw),
            child_n: grid(|c| &c.child_n),
            dam_gets: DAM_GETS.get(),
            dam_sets: DAM_SETS.get(),
            dev_reads: DEV_READS.get(),
            dev_read_bytes: DEV_READ_BYTES.get(),
            dev_read_ns: DEV_READ_NS.get(),
            dev_writes: DEV_WRITES.get(),
            dev_write_bytes: DEV_WRITE_BYTES.get(),
            dev_write_ns: DEV_WRITE_NS.get(),
            dev_sync_ns: lock(&DEV_SYNC_NS).clone(),
            shard_calls: SHARD_CALLS[..shards].iter().map(Ctr::get).collect(),
            calib,
        }
    }

    pub fn calls(&self, l: Layer, k: Kind) -> u64 {
        self.calls[l as usize][k as usize]
    }

    /// Self time (ns) of all timed frames of `l` under `k`, with the
    /// clock's cost removed.
    pub fn self_ns(&self, l: Layer, k: Kind) -> f64 {
        let c = self.calib;
        let (l, k) = (l as usize, k as usize);
        self.raw[l][k] as i64 as f64
            - self.timed[l][k] as f64 * c.d0
            - self.child_n[l][k] as f64 * (c.w - c.d0)
    }

    /// Share of cola-call time the page cache takes under `k`, from the
    /// deep calls.
    fn dam_share(&self, k: Kind) -> f64 {
        let dam = self.self_ns(Layer::Dam, k);
        let cola = self.self_ns(Layer::ColaDeep, k);
        if dam + cola <= 0.0 {
            0.0
        } else {
            (dam / (dam + cola)).clamp(0.0, 1.0)
        }
    }

    /// Time of all cola calls under `k` with device and bulk page-cache
    /// calls taken out: cola plus element-access self time.
    fn cola_and_dam(&self, k: Kind) -> f64 {
        self.self_ns(Layer::Cola, k)
            + self.self_ns(Layer::ColaDeep, k)
            + self.self_ns(Layer::Dam, k)
    }

    /// Self time of the cola layer under `k`.
    pub fn cola_self(&self, k: Kind) -> f64 {
        (1.0 - self.dam_share(k)) * self.cola_and_dam(k)
    }

    /// Self time of the page cache under `k`: its share of the cola
    /// calls' time, plus every bulk call.
    pub fn dam_self(&self, k: Kind) -> f64 {
        self.dam_share(k) * self.cola_and_dam(k) + self.self_ns(Layer::DamBulk, k)
    }
}

/// Final `ColaStats` of every shard minus their state at the last
/// set-up commit (see [`mark_cola_base`]).
pub fn cola_delta() -> ColaStats {
    let base = lock(&COLA_BASE);
    let end = lock(&COLA_END);
    let sum = |v: &[ColaStats]| {
        v.iter().fold(ColaStats::default(), |a, s| ColaStats {
            inserts: a.inserts + s.inserts,
            merges: a.merges + s.merges,
            cells_written: a.cells_written + s.cells_written,
            searches: a.searches + s.searches,
            cells_scanned: a.cells_scanned + s.cells_scanned,
            max_cells_per_insert: a.max_cells_per_insert.max(s.max_cells_per_insert),
            filter_skips: a.filter_skips + s.filter_skips,
        })
    };
    let (b, e) = (sum(&base), sum(&end));
    ColaStats {
        inserts: e.inserts - b.inserts,
        merges: e.merges - b.merges,
        cells_written: e.cells_written - b.cells_written,
        searches: e.searches - b.searches,
        cells_scanned: e.cells_scanned - b.cells_scanned,
        max_cells_per_insert: e.max_cells_per_insert,
        filter_skips: e.filter_skips - b.filter_skips,
    }
}

/// Forgets the `ColaStats` of structures traced earlier in the process.
pub fn forget_cola_stats() {
    for slot in [&COLA_LATEST, &COLA_BASE, &COLA_END] {
        lock(slot).clear();
    }
}

/// Makes the stats recorded at each shard's latest commit the baseline
/// of [`cola_delta`].
pub fn mark_cola_base() {
    let mut base = lock(&COLA_BASE);
    let latest = lock(&COLA_LATEST);
    *base = latest.clone();
}

fn record_stats(slot: &Mutex<Vec<ColaStats>>, idx: usize, s: ColaStats) {
    let mut v = lock(slot);
    if v.len() <= idx {
        v.resize(idx + 1, ColaStats::default());
    }
    v[idx] = s;
}

/// Runs one cola call as a timed frame, one in [`DEEP_SAMPLE`] of them
/// (picked pseudo-randomly, so the choice cannot lock onto a periodic
/// call pattern) traced deep.
fn cola_frame<R>(f: impl FnOnce() -> R) -> R {
    let tick = COLA_TICK.get().wrapping_add(1);
    COLA_TICK.set(tick);
    if !crate::workload::mix64(tick).is_multiple_of(DEEP_SAMPLE) {
        return timed(Layer::Cola, f).0;
    }
    DEEP.set(1);
    let r = timed(Layer::ColaDeep, f).0;
    DEEP.set(0);
    r
}

/// One shard's `GCola` behind the traced `cola` boundary.
pub struct ColaLayer<M: Mem<Cell>> {
    inner: GCola<M>,
    idx: usize,
}

impl<M: Mem<Cell>> ColaLayer<M> {
    /// Wraps shard `idx`'s structure.
    pub fn new(inner: GCola<M>, idx: usize) -> ColaLayer<M> {
        assert!(
            idx < SHARD_CALLS.len(),
            "at most {} shards",
            SHARD_CALLS.len()
        );
        ColaLayer { inner, idx }
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut GCola<M>) -> R) -> R {
        SHARD_CALLS[self.idx].add(1);
        cola_frame(|| f(&mut self.inner))
    }
}

impl<M: Mem<Cell>> Drop for ColaLayer<M> {
    fn drop(&mut self) {
        record_stats(&COLA_END, self.idx, self.inner.stats());
    }
}

impl<M: Mem<Cell>> Dictionary for ColaLayer<M> {
    fn insert(&mut self, key: u64, val: u64) {
        self.call(|c| c.insert(key, val))
    }

    fn delete(&mut self, key: u64) {
        self.call(|c| c.delete(key))
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        self.call(|c| c.get(key))
    }

    fn cursor(&mut self, lo: u64, hi: u64) -> Cursor<'_> {
        SHARD_CALLS[self.idx].add(1);
        let inner = cola_frame(|| self.inner.cursor(lo, hi));
        Cursor::new(ColaCursor { inner })
    }

    fn apply(&mut self, batch: &mut UpdateBatch) {
        self.call(|c| c.apply(batch))
    }

    fn insert_batch(&mut self, sorted: &[(u64, u64)]) {
        self.call(|c| c.insert_batch(sorted))
    }

    fn physical_len(&self) -> usize {
        self.inner.physical_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<M: Mem<Cell>> Persist for ColaLayer<M> {
    fn save_meta(&mut self) -> Vec<u8> {
        let meta = self.call(|c| c.save_meta());
        record_stats(&COLA_LATEST, self.idx, self.inner.stats());
        meta
    }
}

/// A cola-level cursor: every step is a timed cola call.
struct ColaCursor<'a> {
    inner: Cursor<'a>,
}

impl CursorOps for ColaCursor<'_> {
    fn seek(&mut self, key: u64) {
        cola_frame(|| self.inner.seek(key));
    }

    fn next(&mut self) -> Option<(u64, u64)> {
        cola_frame(|| self.inner.next())
    }

    fn prev(&mut self) -> Option<(u64, u64)> {
        cola_frame(|| self.inner.prev())
    }
}

/// The page cache (or plain memory) under a `GCola`, with every access
/// counted and those inside deep cola calls timed. Forwards every trait
/// method, default-bodied ones included, so the traced stack runs
/// exactly the code the untraced one does.
pub struct TracedMem<M> {
    inner: M,
}

impl<M> TracedMem<M> {
    pub fn new(inner: M) -> TracedMem<M> {
        TracedMem { inner }
    }
}

/// A single-element access: timed inside deep cola calls, else counted.
#[inline]
fn access<R>(f: impl FnOnce() -> R) -> R {
    if DEEP.get() == 1 {
        timed(Layer::Dam, f).0
    } else {
        counted(Layer::Dam, f)
    }
}

impl<M: Mem<Cell>> Mem<Cell> for TracedMem<M> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn get(&self, i: usize) -> Cell {
        DAM_GETS.add(1);
        access(|| self.inner.get(i))
    }

    fn set(&mut self, i: usize, v: Cell) {
        DAM_SETS.add(1);
        access(|| self.inner.set(i, v))
    }

    fn resize(&mut self, new_len: usize, fill: Cell) {
        timed(Layer::DamBulk, || self.inner.resize(new_len, fill)).0
    }

    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        timed(Layer::DamBulk, || self.inner.copy_within(src, dst, n)).0
    }

    fn fill_range(&mut self, start: usize, end: usize, v: Cell) {
        timed(Layer::DamBulk, || self.inner.fill_range(start, end, v)).0
    }
}

/// The device under a page cache, every call timed.
pub struct TracedDev {
    inner: DirectFile,
}

impl TracedDev {
    pub fn new(inner: DirectFile) -> TracedDev {
        TracedDev { inner }
    }
}

impl RawDev for TracedDev {
    fn read_at(&mut self, buf: &mut [u8], off: u64) -> std::io::Result<usize> {
        let (r, ns) = timed(Layer::Dev, || self.inner.read_at(buf, off));
        DEV_READS.add(1);
        DEV_READ_NS.add(ns);
        if let Ok(n) = r {
            DEV_READ_BYTES.add(n as u64);
        }
        r
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> std::io::Result<()> {
        let (r, ns) = timed(Layer::Dev, || self.inner.write_all_at(buf, off));
        DEV_WRITES.add(1);
        DEV_WRITE_NS.add(ns);
        DEV_WRITE_BYTES.add(buf.len() as u64);
        r
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let (r, ns) = timed(Layer::Dev, || self.inner.sync());
        lock(&DEV_SYNC_NS).push(ns);
        r
    }

    fn dev_len(&mut self) -> std::io::Result<u64> {
        counted(Layer::Dev, || self.inner.dev_len())
    }
}
