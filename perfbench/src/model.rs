//! The answer check: every read answer of a run is folded into per-chunk
//! digests, and a `BTreeMap` replay of the same seeded stream, run after
//! the measured phase, must produce the same digests.

use std::collections::BTreeMap;

use crate::stack::{get_answer, scan_digest};
use crate::workload::{mix64, Op, Spec, Store, SCAN_LEN};

/// Ops per answer digest: a wrong answer is located to within this many
/// ops while the record of a run stays a few bytes per chunk.
const CHUNK: u64 = 64;

/// The answers of one run, one digest per [`CHUNK`] ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answers {
    chunks: Vec<u64>,
    cur: u64,
    ops: u64,
}

impl Answers {
    /// Records op `ops`'s answer (`None` for writes).
    #[inline]
    pub fn push(&mut self, answer: Option<u64>) {
        if let Some(a) = answer {
            self.cur = mix64(self.cur ^ a).wrapping_add(self.ops);
        }
        self.ops += 1;
        if self.ops.is_multiple_of(CHUNK) {
            self.chunks.push(self.cur);
            self.cur = 0;
        }
    }

    fn digests(&self) -> Vec<u64> {
        let mut d = self.chunks.clone();
        if !self.ops.is_multiple_of(CHUNK) {
            d.push(self.cur);
        }
        d
    }

    /// Chunks whose answers differ from `expected`'s (a lower bound on
    /// the number of wrong answers); a different op count counts whole.
    pub fn mismatches(&self, expected: &Answers) -> u64 {
        let (a, b) = (self.digests(), expected.digests());
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        (differing + a.len().abs_diff(b.len())) as u64
    }
}

/// What the model expects of a run.
#[derive(Debug, Clone)]
pub struct Expected {
    pub answers: Answers,
    /// Live keys at the end of the run.
    pub live: u64,
}

/// Replays `ops` ops of `spec`'s stream for `seed`. On the mem workload
/// reads see the state as of the last publish.
pub fn replay(spec: &Spec, seed: u64, ops: u64) -> Expected {
    replay_corrupting(spec, seed, ops, None)
}

/// [`replay`], with the model's answer to op `corrupt` (if any) made
/// deliberately wrong, so the check itself can be tested.
pub fn replay_corrupting(spec: &Spec, seed: u64, ops: u64, corrupt: Option<u64>) -> Expected {
    let mut current: BTreeMap<u64, u64> = spec.prefill(seed).into_iter().collect();
    let snapshots = spec.store == Store::Mem;
    let mut published = if snapshots {
        current.clone()
    } else {
        BTreeMap::new()
    };
    let mut pending: Vec<(u64, Option<u64>)> = Vec::new();
    let mut answers = Answers::default();
    let mut stream = spec.stream(seed);
    for i in 0..ops {
        let (op, commit) = stream.next_op();
        let view = if snapshots { &published } else { &current };
        let answer = match op {
            Op::Get(k) => Some(get_answer(view.get(&k).copied())),
            Op::Scan(lo) => Some(scan_digest(
                view.range(lo..).take(SCAN_LEN).map(|(&k, &v)| (k, v)),
            )),
            Op::Put(k, v) => {
                current.insert(k, v);
                if snapshots {
                    pending.push((k, Some(v)));
                }
                None
            }
            Op::Del(k) => {
                current.remove(&k);
                if snapshots {
                    pending.push((k, None));
                }
                None
            }
        };
        let answer = match corrupt {
            Some(c) if c == i => Some(answer.unwrap_or(0) ^ 0xBAD),
            _ => answer,
        };
        answers.push(answer);
        if commit && snapshots {
            for (k, v) in pending.drain(..) {
                match v {
                    Some(v) => published.insert(k, v),
                    None => published.remove(&k),
                };
            }
        }
    }
    Expected {
        answers,
        live: current.len() as u64,
    }
}
