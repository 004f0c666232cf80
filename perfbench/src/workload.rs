//! The four workloads: their settings, and the seeded operation stream
//! each one drives.
//!
//! Every workload is a closed loop with one client on one thread.
//! Keys are drawn as *ranks* and mapped onto `u64` through a seeded
//! bijection, so the same seed always yields the same keys, keys spread
//! evenly over the whole `u64` range (and so over range-partitioned
//! shards), and a rank distribution (uniform or zipfian) carries over to
//! keys unchanged. Why each workload exists is recorded in `README.md`.

use cosbt::testkit::{Rng, Zipf};

/// One operation of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64, u64),
    Del(u64),
    /// The first [`SCAN_LEN`] live entries at or after the key.
    Scan(u64),
}

/// Entries one scan reads.
pub const SCAN_LEN: usize = 100;

/// Where the data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// File-backed, behind a user-space page cache of `cache_bytes` in
    /// total, range-partitioned over `shards`.
    File { shards: usize, cache_bytes: usize },
    /// Plain memory; reads are served from published snapshots.
    Mem,
}

/// How op keys are drawn from the rank space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Zipf(f64),
}

/// Settings of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub store: Store,
    /// Size of the rank space ops draw keys from.
    pub ranks: u64,
    /// Set-up inserts every `prefill_stride`-th rank.
    pub prefill_stride: u64,
    pub dist: Dist,
    /// Op mix in per mille: get, put, delete; scans take the rest.
    pub mix: [u64; 3],
    /// Writes between two commits (`Db::sync` on file workloads,
    /// `Db::snapshot` on the mem workload).
    pub commit_every: u64,
    /// Set-up ends with one full scan, so the page cache starts warm.
    pub warm: bool,
    /// Measured ops per second of `--seconds`: the op count of a run is
    /// fixed by the workload and the run length, not by how fast the
    /// program is, so every run of a workload does the same work and
    /// its counts replay exactly.
    pub ops_per_second: u64,
    /// The measured ops run as this many passes, each over the start of
    /// the stream on a fresh set-up: a workload whose data must stay
    /// small still measures for the whole run.
    pub passes: u64,
}

const MIB: usize = 1 << 20;

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "ingest_ooc",
            store: Store::File {
                shards: 2,
                cache_bytes: MIB,
            },
            ranks: 1 << 22,
            prefill_stride: 8,
            dist: Dist::Uniform,
            mix: [50, 898, 50],
            commit_every: 16_384,
            warm: false,
            ops_per_second: 80_000,
            passes: 1,
        },
        Spec {
            name: "get_cached",
            store: Store::File {
                shards: 1,
                cache_bytes: 128 * MIB,
            },
            ranks: 1 << 18,
            prefill_stride: 1,
            dist: Dist::Zipf(0.99),
            mix: [948, 46, 4],
            commit_every: 1_024,
            warm: true,
            ops_per_second: 250_000,
            passes: 2,
        },
        Spec {
            name: "scan_ooc",
            store: Store::File {
                shards: 1,
                cache_bytes: MIB,
            },
            ranks: 2_400_000,
            prefill_stride: 2,
            dist: Dist::Uniform,
            mix: [955, 40, 0],
            commit_every: 1_024,
            warm: false,
            ops_per_second: 80_000,
            passes: 1,
        },
        Spec {
            name: "snapshot_mem",
            store: Store::Mem,
            ranks: 1 << 19,
            prefill_stride: 2,
            dist: Dist::Uniform,
            mix: [500, 440, 50],
            commit_every: 1_024,
            warm: false,
            ops_per_second: 321_000,
            passes: 3,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The seeded bijection from ranks to keys.
#[derive(Debug, Clone, Copy)]
pub struct Keys {
    salt: u64,
}

impl Keys {
    pub fn new(seed: u64) -> Keys {
        Keys {
            salt: mix64(seed ^ 0x5EED_0F4B_E4C4),
        }
    }

    #[inline]
    pub fn key(&self, rank: u64) -> u64 {
        mix64(rank.wrapping_add(self.salt))
    }
}

/// The splitmix64 finalizer: a bijection on `u64`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Spec {
    /// The sorted pairs set-up inserts.
    pub fn prefill(&self, seed: u64) -> Vec<(u64, u64)> {
        let keys = Keys::new(seed);
        let mut pairs: Vec<(u64, u64)> = (0..self.ranks)
            .step_by(self.prefill_stride as usize)
            .map(|r| (keys.key(r), r))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Measured ops of a run of `seconds`.
    pub fn ops(&self, seconds: f64) -> u64 {
        self.pass_ops(seconds) * self.passes
    }

    /// Measured ops of one pass of a run of `seconds`.
    pub fn pass_ops(&self, seconds: f64) -> u64 {
        ((self.ops_per_second as f64 * seconds) as u64 / self.passes).max(1)
    }

    /// The op stream of a run.
    pub fn stream(&self, seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0x0B5),
            keys: Keys::new(seed),
            zipf: match self.dist {
                Dist::Uniform => None,
                Dist::Zipf(theta) => Some(Zipf::new(self.ranks, theta)),
            },
            ranks: self.ranks,
            mix: self.mix,
            commit_every: self.commit_every,
            writes: 0,
        }
    }
}

/// A seeded op stream; regenerated identically for the model replay.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    keys: Keys,
    zipf: Option<Zipf>,
    ranks: u64,
    mix: [u64; 3],
    commit_every: u64,
    writes: u64,
}

impl Stream {
    #[inline]
    fn key(&mut self) -> u64 {
        let rank = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.ranks),
        };
        self.keys.key(rank)
    }

    /// The next op, and whether a commit follows it.
    #[inline]
    pub fn next_op(&mut self) -> (Op, bool) {
        let dice = self.rng.below(1000);
        let key = self.key();
        let [get, put, del] = self.mix;
        let op = if dice < get {
            Op::Get(key)
        } else if dice < get + put {
            Op::Put(key, self.rng.next_u64())
        } else if dice < get + put + del {
            Op::Del(key)
        } else {
            Op::Scan(key)
        };
        if matches!(op, Op::Put(..) | Op::Del(_)) {
            self.writes += 1;
            return (op, self.writes.is_multiple_of(self.commit_every));
        }
        (op, false)
    }
}
