//! What the benchmark loop runs against: the `Db` facade as users build it,
//! or the same stack assembled by hand from public constructors, with or
//! without a timing wrapper at every layer boundary.

use std::io;
use std::path::{Path, PathBuf};

use cosbt::cola::{Cell, EpochManager, GCola};
use cosbt::dam::format::DEFAULT_SLOT_BYTES;
use cosbt::dam::{
    ArcFileMem, DirectFile, FileMem, IoStats, PlainMem, RawDev, ReclaimGate, DEFAULT_PAGE_SIZE,
};
use cosbt::shard::{even_splitters, Shard};
use cosbt::{Backend, CursorOps, Db, DbBuilder, DbReader, Dictionary, ShardRouter, Structure};

use crate::trace::{self, ColaLayer, Kind, Layer, TracedDev, TracedMem};
use crate::workload::{mix64, Op, Spec, Store, SCAN_LEN};

/// Growth factor and lookahead-pointer density of every workload's
/// structure: the paper's 4-COLA with `DbBuilder`'s default density.
const G: usize = 4;
const POINTER_DENSITY: f64 = 0.1;

/// Modeled bytes of one stored cell, as `DbBuilder` configures it.
const CELL_BYTES: usize = 32;

/// One side of the benchmark loop.
pub trait Target {
    /// Runs one op; returns its answer (`None` for writes).
    fn op(&mut self, op: Op) -> Option<u64>;
    /// The workload's commit point.
    fn commit(&mut self) -> io::Result<()>;
    /// Set-up: inserts a sorted run of pairs in one batch.
    fn prefill(&mut self, sorted: &[(u64, u64)]);
    /// Set-up: reads every entry once, so the page cache starts warm.
    fn warm(&mut self);
    /// Set-up: the final commit.
    fn finish_set_up(&mut self) -> io::Result<()>;
    /// Page-cache counters since the store was created.
    fn io(&self) -> IoStats;
    /// Bytes the store occupies: data-file bytes, or physical cells for
    /// the mem workload.
    fn stored_bytes(&self) -> u64;
}

/// Prefill, optional warm pass, commit.
pub fn set_up(target: &mut dyn Target, spec: &Spec, seed: u64) -> io::Result<()> {
    trace::set_kind(Kind::Setup);
    target.prefill(&spec.prefill(seed));
    if spec.warm {
        target.warm();
    }
    target.finish_set_up()
}

/// Folds a scan's entries into one answer.
pub fn scan_digest(entries: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut n = 0u64;
    for (k, v) in entries {
        h = mix64(h ^ k).wrapping_add(v);
        n += 1;
    }
    h ^ n
}

/// Encodes a point-read answer (absent and present never collide).
#[inline]
pub fn get_answer(v: Option<u64>) -> u64 {
    match v {
        Some(v) => mix64(v) | 1,
        None => 0,
    }
}

fn scan(cur: &mut dyn CursorOps) -> u64 {
    scan_digest(std::iter::from_fn(|| cur.next()).take(SCAN_LEN))
}

fn file_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

/// The `DbBuilder` configuration of a workload.
pub fn builder(spec: &Spec, dir: &Path) -> DbBuilder {
    let b = DbBuilder::new().structure(Structure::GCola { g: G });
    match spec.store {
        Store::File {
            shards,
            cache_bytes,
        } => b
            .backend(Backend::file(dir.join("db")))
            .cache_bytes(cache_bytes)
            .shards(shards),
        Store::Mem => b,
    }
}

/// The facade: `Db` for writes and file reads; on the mem workload reads
/// go through a `DbReader` and the commit point is `Db::snapshot`.
pub struct DbTarget {
    pub db: Db,
    reader: Option<DbReader>,
    paths: Vec<PathBuf>,
    /// Summed run counts of the epochs `commit` published.
    pub runs_published: u64,
}

impl DbTarget {
    pub fn build(spec: &Spec, dir: &Path) -> io::Result<DbTarget> {
        let b = builder(spec, dir);
        let paths = b.data_paths();
        let db = b.build().map_err(io::Error::other)?;
        Ok(DbTarget {
            db,
            reader: None,
            paths,
            runs_published: 0,
        })
    }
}

impl Target for DbTarget {
    fn op(&mut self, op: Op) -> Option<u64> {
        match (op, self.reader.as_mut()) {
            (Op::Put(k, v), _) => {
                self.db.insert(k, v);
                None
            }
            (Op::Del(k), _) => {
                self.db.delete(k);
                None
            }
            (Op::Get(k), None) => Some(get_answer(self.db.get(k))),
            (Op::Get(k), Some(r)) => Some(get_answer(r.get(k))),
            (Op::Scan(lo), None) => Some(scan(&mut self.db.cursor(lo, u64::MAX))),
            (Op::Scan(lo), Some(r)) => Some(scan(&mut r.cursor(lo, u64::MAX))),
        }
    }

    fn commit(&mut self) -> io::Result<()> {
        if self.reader.is_none() {
            return self.db.sync();
        }
        self.runs_published += self.db.snapshot().run_count() as u64;
        Ok(())
    }

    fn prefill(&mut self, sorted: &[(u64, u64)]) {
        self.db.insert_batch(sorted);
    }

    fn warm(&mut self) {
        let mut cur = self.db.cursor(0, u64::MAX);
        while cur.next().is_some() {}
    }

    fn finish_set_up(&mut self) -> io::Result<()> {
        self.db.sync()?;
        if self.paths.is_empty() {
            // Activates the snapshot mirror (a full scan) and opens the
            // reader every read of the mem workload goes through.
            self.reader = Some(self.db.reader());
        }
        Ok(())
    }

    fn io(&self) -> IoStats {
        self.db.io().snapshot()
    }

    fn stored_bytes(&self) -> u64 {
        if self.paths.is_empty() {
            (self.db.physical_len() * CELL_BYTES) as u64
        } else {
            file_bytes(&self.paths)
        }
    }
}

/// The parts of one shard's backing store the stack drives directly.
trait ShardStore {
    fn commit_meta(&self, meta: &[u8]) -> io::Result<()>;
    fn stats(&self) -> IoStats;
}

impl<D: RawDev> ShardStore for ArcFileMem<Cell, D> {
    fn commit_meta(&self, meta: &[u8]) -> io::Result<()> {
        ArcFileMem::commit_meta(self, meta)
    }

    fn stats(&self) -> IoStats {
        ArcFileMem::stats(self)
    }
}

/// Opens shard `i`'s page cache on `dev` exactly as `DbBuilder::build`
/// does.
fn page_cache<D: RawDev>(
    dev: D,
    cache_pages: usize,
    gate: std::sync::Arc<dyn ReclaimGate>,
) -> io::Result<ArcFileMem<Cell, D>> {
    let mem = ArcFileMem::new(FileMem::<Cell, D>::create_on_sized(
        dev,
        DEFAULT_PAGE_SIZE,
        cache_pages,
        CELL_BYTES,
        DEFAULT_SLOT_BYTES,
    )?);
    mem.set_reclaim_gate(gate);
    Ok(mem)
}

/// The stack `DbBuilder::build` assembles for a workload, built by hand
/// from public constructors; traced, it has a timing wrapper at every
/// boundary.
pub struct StackTarget {
    dict: StackDict,
    stores: Vec<Box<dyn ShardStore>>,
    paths: Vec<PathBuf>,
    traced: bool,
}

/// The router for sharded workloads, else the single shard (as `Db`).
enum StackDict {
    Single(Shard),
    Sharded(ShardRouter),
}

impl StackTarget {
    /// Mirrors `DbBuilder::build` for a `GCola` with the default
    /// settings: same per-shard cache budget, page and cell size,
    /// metadata slot, reclamation gate and initial commit.
    pub fn build(spec: &Spec, dir: &Path, traced: bool) -> io::Result<StackTarget> {
        let paths = builder(spec, dir).data_paths();
        let mut shards: Vec<Shard> = Vec::new();
        let mut stores: Vec<Box<dyn ShardStore>> = Vec::new();
        match spec.store {
            Store::File {
                shards: n,
                cache_bytes,
            } => {
                let cache_pages = (cache_bytes / n / DEFAULT_PAGE_SIZE).max(2);
                let gates = EpochManager::new();
                for (i, path) in paths.iter().take(n).enumerate() {
                    let file = DirectFile::create(path, false)?;
                    if traced {
                        let mem =
                            page_cache(TracedDev::new(file), cache_pages, gates.shard_gate(i))?;
                        let cola = GCola::new(TracedMem::new(mem.clone()), G, POINTER_DENSITY);
                        shards.push(Box::new(ColaLayer::new(cola, i)));
                        stores.push(Box::new(mem));
                    } else {
                        let mem = page_cache(file, cache_pages, gates.shard_gate(i))?;
                        shards.push(Box::new(GCola::new(mem.clone(), G, POINTER_DENSITY)));
                        stores.push(Box::new(mem));
                    }
                }
            }
            Store::Mem if traced => {
                let cola = GCola::new(TracedMem::new(PlainMem::new()), G, POINTER_DENSITY);
                shards.push(Box::new(ColaLayer::new(cola, 0)));
            }
            Store::Mem => shards.push(Box::new(GCola::new(PlainMem::new(), G, POINTER_DENSITY))),
        }
        let dict = if shards.len() == 1 {
            StackDict::Single(shards.pop().expect("one shard"))
        } else {
            let n = shards.len();
            StackDict::Sharded(ShardRouter::new(shards, even_splitters(n), false))
        };
        let mut stack = StackTarget {
            dict,
            stores,
            paths,
            traced,
        };
        stack.commit()?;
        Ok(stack)
    }

    fn dict(&mut self) -> &mut dyn Dictionary {
        match &mut self.dict {
            StackDict::Single(s) => s.as_mut(),
            StackDict::Sharded(r) => r,
        }
    }

    /// Runs `f` as a top-level frame when traced.
    fn top<R>(traced: bool, f: impl FnOnce() -> R) -> R {
        if traced {
            trace::timed(Layer::Top, f).0
        } else {
            f()
        }
    }
}

impl Target for StackTarget {
    fn op(&mut self, op: Op) -> Option<u64> {
        let traced = self.traced;
        let dict = self.dict();
        Self::top(traced, || match op {
            Op::Get(k) => Some(get_answer(dict.get(k))),
            Op::Put(k, v) => {
                dict.insert(k, v);
                None
            }
            Op::Del(k) => {
                dict.delete(k);
                None
            }
            Op::Scan(lo) => Some(scan(&mut dict.cursor(lo, u64::MAX))),
        })
    }

    /// `Db::sync` without the cross-shard commit record: each shard's
    /// control state, then its store's shadow commit.
    fn commit(&mut self) -> io::Result<()> {
        let (traced, stores) = (self.traced, &self.stores);
        let shards: &mut [Shard] = match &mut self.dict {
            StackDict::Single(s) => std::slice::from_mut(s),
            StackDict::Sharded(r) => r.shards_mut(),
        };
        Self::top(traced, || {
            for (i, shard) in shards.iter_mut().enumerate() {
                let meta = shard.save_meta();
                match stores.get(i) {
                    Some(store) if traced => {
                        trace::timed(Layer::DamCommit, || store.commit_meta(&meta)).0?
                    }
                    Some(store) => store.commit_meta(&meta)?,
                    None => {}
                }
            }
            Ok(())
        })
    }

    fn prefill(&mut self, sorted: &[(u64, u64)]) {
        let traced = self.traced;
        let dict = self.dict();
        Self::top(traced, || dict.insert_batch(sorted));
    }

    fn warm(&mut self) {
        let mut cur = self.dict().cursor(0, u64::MAX);
        while cur.next().is_some() {}
    }

    fn finish_set_up(&mut self) -> io::Result<()> {
        self.commit()?;
        if self.traced {
            trace::mark_cola_base();
        }
        Ok(())
    }

    fn io(&self) -> IoStats {
        self.stores.iter().map(|s| s.stats()).sum()
    }

    fn stored_bytes(&self) -> u64 {
        file_bytes(&self.paths)
    }
}
