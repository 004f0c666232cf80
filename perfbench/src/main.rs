//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workload.rs` and `README.md`) against the
//! public `cosbt` API and checks every answer against a model. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! the same ops through a hand-built copy of the stack with timing
//! wrappers at each layer boundary and prints per-layer metrics. The last
//! line of standard output is one JSON object; a human-readable summary
//! goes to standard error. The exit code is nonzero when any answer was
//! wrong or any operation failed.

mod model;
mod stack;
mod stats;
mod trace;
mod workload;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use crate::model::{replay, Answers};
use crate::stack::{set_up, DbTarget, StackTarget, Target};
use crate::stats::{peak_rss_mib, Latency, PARTS};
use crate::trace::{Calib, Kind, Layer, Totals, USER_KINDS};
use crate::workload::{Op, Spec, Store, Stream};

/// Set-ups per end-to-end run, `setup_s` being their median: at least
/// [`SETUPS_MIN`], and more while they have taken less than
/// [`SETUP_BUDGET_S`] in all, up to [`SETUPS_MAX`]. A workload whose
/// set-up is short sets up more often, so its median rests on more than
/// a few tens of milliseconds of the run.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 1.0;

/// Bytes of one user entry (a `u64` key and a `u64` value).
const ENTRY_BYTES: f64 = 16.0;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::all().iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// The result of one invocation.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let dir = match std::env::current_dir() {
        Ok(cwd) => {
            cwd.join(".bench_data")
                .join(format!("{}-{}", args.workload.name, std::process::id()))
        }
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = std::panic::catch_unwind(|| run(&args, &dir));
    // Best effort: the data directory is scratch, and a failure to remove
    // it must not mask the run's own result. Its parent goes too once no
    // other run is using it.
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            failed_outcome(&args)
        }
        Err(_) => {
            eprintln!("perfbench: {}: panicked", args.workload.name);
            failed_outcome(&args)
        }
    };
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn failed_outcome(args: &Args) -> Outcome {
    let ops = args.workload.ops(args.seconds);
    Outcome {
        attempted: ops,
        failed: ops,
        metrics: Vec::new(),
    }
}

fn run(args: &Args, dir: &Path) -> io::Result<Outcome> {
    std::fs::create_dir_all(dir)?;
    let outcome = if args.trace {
        traced(&args.workload, args.seed, args.seconds, dir)?
    } else {
        end_to_end(&args.workload, args.seed, args.seconds, dir)?
    };
    eprintln!(
        "{} seed {}: {} ops attempted, {} failed, error_rate {}",
        args.workload.name,
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
    Ok(outcome)
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// What one lane of the benchmark loop measured.
#[derive(Default)]
struct Pass {
    /// Latencies (ns) by kind: get, put (and delete), scan, commit.
    latencies: [Latency; 4],
    elapsed_s: f64,
    answers: Answers,
    errors: u64,
    ops: u64,
}

impl Pass {
    fn latency(&self, k: Kind) -> &Latency {
        &self.latencies[k as usize]
    }

    fn count(&self, k: Kind) -> u64 {
        self.latency(k).len()
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    /// Time spent in ops of `kinds`, each op's timing overhead `d0`
    /// removed.
    fn time_ns(&self, kinds: &[Kind], d0: f64) -> f64 {
        kinds
            .iter()
            .map(|&k| self.latency(k).total() - self.count(k) as f64 * d0)
            .sum()
    }
}

fn kind_of(op: Op) -> Kind {
    match op {
        Op::Get(_) => Kind::Get,
        Op::Put(..) | Op::Del(_) => Kind::Put,
        Op::Scan(_) => Kind::Scan,
    }
}

/// One target driven through the seeded stream: a closed loop, each op
/// timed, with a commit after every `commit_every` writes.
struct Lane<'a> {
    target: &'a mut dyn Target,
    stream: Stream,
    pass: Pass,
    /// Skip reads and commits (the mem workload's shadow structures).
    writes_only: bool,
    /// Ops of the stream consumed so far, and per stretch of latencies.
    consumed: u64,
    part_ops: u64,
}

impl<'a> Lane<'a> {
    /// A lane through `ops` ops of `spec`'s stream for `seed`.
    fn new(
        target: &'a mut dyn Target,
        spec: &Spec,
        seed: u64,
        ops: u64,
        writes_only: bool,
    ) -> Lane<'a> {
        Lane {
            target,
            stream: spec.stream(seed),
            pass: Pass::default(),
            writes_only,
            consumed: 0,
            part_ops: ops.div_ceil(PARTS as u64).max(1),
        }
    }

    /// Runs the next `n` ops of the stream.
    fn run(&mut self, n: u64) {
        let p = &mut self.pass;
        let start = Instant::now();
        for _ in 0..n {
            let (op, commit) = self.stream.next_op();
            let part = (self.consumed / self.part_ops) as usize;
            self.consumed += 1;
            let kind = kind_of(op);
            if self.writes_only && kind != Kind::Put {
                continue;
            }
            trace::set_kind(kind);
            let t0 = Instant::now();
            let answer = self.target.op(op);
            let ns = t0.elapsed().as_nanos() as u64;
            p.latencies[kind as usize].record(part, ns);
            p.answers.push(answer);
            p.ops += 1;
            if commit && !self.writes_only {
                trace::set_kind(Kind::Commit);
                let t0 = Instant::now();
                if let Err(e) = self.target.commit() {
                    eprintln!("perfbench: commit failed: {e}");
                    p.errors += 1;
                }
                let ns = t0.elapsed().as_nanos() as u64;
                p.latencies[Kind::Commit as usize].record(part, ns);
            }
        }
        p.elapsed_s += start.elapsed().as_secs_f64();
    }
}

/// Ops each lane runs before the next takes its turn in a traced run:
/// short enough that a noisy neighbour on the machine hits every lane
/// alike, long enough that lanes do not evict each other's working set
/// from the CPU caches op by op.
const TURN_OPS: u64 = 4096;

/// Drives `lanes` through `ops` ops each, taking turns.
fn interleave(lanes: &mut [Lane], ops: u64) {
    let mut done = 0;
    let mut round = 0;
    while done < ops {
        let n = TURN_OPS.min(ops - done);
        // Rotate who goes first, so no lane always follows the same one.
        for i in 0..lanes.len() {
            lanes[(i + round) % lanes.len()].run(n);
        }
        done += n;
        round += 1;
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Builds and sets up a fresh `Db` in `dir`.
fn fresh_db(spec: &Spec, seed: u64, dir: &Path) -> io::Result<DbTarget> {
    std::fs::create_dir_all(dir)?;
    let mut db = DbTarget::build(spec, dir)?;
    set_up(&mut db, spec, seed)?;
    Ok(db)
}

/// Builds and sets up a fresh hand-built stack in `dir`.
fn fresh_stack(spec: &Spec, seed: u64, dir: &Path, traced: bool) -> io::Result<StackTarget> {
    std::fs::create_dir_all(dir)?;
    let mut stack = StackTarget::build(spec, dir, traced)?;
    set_up(&mut stack, spec, seed)?;
    Ok(stack)
}

fn end_to_end(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> io::Result<Outcome> {
    let ops = spec.ops(seconds);
    let mut setup_s = Vec::new();
    let mut last: Option<(DbTarget, PathBuf)> = None;
    while setup_s.len() < SETUPS_MIN
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUPS_MAX)
    {
        if let Some((db, d)) = last.take() {
            drop(db);
            std::fs::remove_dir_all(d)?;
        }
        let d = dir.join(format!("setup{}", setup_s.len()));
        let t0 = Instant::now();
        let db = fresh_db(spec, seed, &d)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((db, d));
    }
    // Each pass replays the stream's first `pass_ops` ops on a fresh
    // set-up; latencies and time accumulate over all passes, answers are
    // checked pass by pass.
    let (mut db, mut d) = last.expect("at least one set-up");
    let pass_ops = spec.pass_ops(seconds);
    let mut pass = Pass::default();
    let mut answers = Vec::new();
    for p in 0..spec.passes {
        if p > 0 {
            db.db.discard_on_drop();
            drop(db);
            std::fs::remove_dir_all(&d)?;
            d = dir.join(format!("pass{p}"));
            db = fresh_db(spec, seed, &d)?;
        }
        let mut lane = Lane::new(&mut db, spec, seed, ops, false);
        lane.consumed = p * pass_ops;
        lane.pass = pass;
        lane.run(pass_ops);
        pass = lane.pass;
        answers.push(std::mem::take(&mut pass.answers));
    }
    let peak_rss = peak_rss_mib();
    let stored = db.stored_bytes();
    db.db.discard_on_drop();
    drop(db);

    let expected = replay(spec, seed, pass_ops);
    let failed = answers
        .iter()
        .map(|a| a.mismatches(&expected.answers))
        .sum::<u64>()
        + pass.errors;
    let commits = pass.count(Kind::Commit);
    let q = |k: Kind, p: f64| pass.latency(k).quantile(p);
    let metrics = vec![
        ("setup_s".into(), median(&mut setup_s), "s"),
        ("ops_per_s".into(), pass.ops_per_s(), "1/s"),
        ("get_p50_ns".into(), q(Kind::Get, 0.5), "ns"),
        ("get_p99_ns".into(), q(Kind::Get, 0.99), "ns"),
        ("insert_p999_ns".into(), q(Kind::Put, 0.999), "ns"),
        ("scan_p99_ns".into(), q(Kind::Scan, 0.99), "ns"),
        (
            "space_amp".into(),
            stored as f64 / (expected.live as f64 * ENTRY_BYTES),
            "ratio",
        ),
        ("peak_rss_mib".into(), peak_rss, "MiB"),
    ];
    eprintln!(
        "  samples: {} gets, {} writes, {} scans, {} commits; {} live keys",
        pass.count(Kind::Get),
        pass.count(Kind::Put),
        pass.count(Kind::Scan),
        commits,
        expected.live
    );
    Ok(Outcome {
        attempted: pass.ops + commits,
        failed,
        metrics,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const ALL_KINDS: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Scan, Kind::Commit];

/// The traced run. Three lanes take turns through the same ops: the
/// `Db` as users build it, the same stack built by hand, and that stack
/// again with timing wrappers at every boundary. On the mem workload the
/// two hand-built lanes are bare structures fed only the writes, since
/// the snapshot mirror lives inside `Db`.
fn traced(spec: &Spec, seed: u64, seconds: f64, dir: &Path) -> io::Result<Outcome> {
    let ops = spec.pass_ops(seconds);
    trace::forget_cola_stats();
    let calib = Calib::measure();
    eprintln!(
        "  clock: {:.1} ns inside a timed frame, {:.1} ns added to its parent",
        calib.d0, calib.w
    );
    let file = matches!(spec.store, Store::File { .. });
    let mut db = fresh_db(spec, seed, &dir.join("db"))?;
    let mut plain = fresh_stack(spec, seed, &dir.join("plain"), false)?;
    let mut stack = fresh_stack(spec, seed, &dir.join("traced"), true)?;
    let epochs0 = db.db.snapshot_stats();
    let io0 = stack.io();
    trace::reset();
    let mut lanes = [
        Lane::new(&mut db, spec, seed, ops, false),
        Lane::new(&mut plain, spec, seed, ops, !file),
        Lane::new(&mut stack, spec, seed, ops, !file),
    ];
    interleave(&mut lanes, ops);
    let [db_lane, plain_lane, traced_lane] = lanes.map(|l| l.pass);
    let shards = match spec.store {
        Store::File { shards, .. } => shards,
        Store::Mem => 1,
    };
    let totals = Totals::read(calib, shards);
    let (db_io, stack_io) = (db.io(), stack.io());
    let epochs1 = db.db.snapshot_stats();
    let runs_published = db.runs_published;
    db.db.discard_on_drop();
    drop((db, plain, stack));

    let expected = replay(spec, seed, ops);
    let mut failed = db_lane.errors + plain_lane.errors + traced_lane.errors;
    failed += db_lane.answers.mismatches(&expected.answers);
    if file {
        // Same program: the hand-built stacks answer exactly as the `Db`
        // does and move exactly the same pages.
        failed += plain_lane.answers.mismatches(&expected.answers)
            + traced_lane.answers.mismatches(&expected.answers);
        let same_io = stack_io.fetches == db_io.fetches && stack_io.writebacks == db_io.writebacks;
        eprintln!(
            "  same-program check: fetches {} vs {}, writebacks {} vs {}",
            stack_io.fetches, db_io.fetches, stack_io.writebacks, db_io.writebacks
        );
        if !same_io {
            failed += 1;
        }
    }

    // `Db` self time: the facade lane minus the bare hand-built lane,
    // both timed the same way, over the ops both ran.
    let db_self = if file {
        ratio(
            db_lane.time_ns(&ALL_KINDS, calib.d0) - plain_lane.time_ns(&ALL_KINDS, calib.d0),
            ops as f64,
        )
    } else {
        ratio(
            db_lane.time_ns(&[Kind::Put], calib.d0) - plain_lane.time_ns(&[Kind::Put], calib.d0),
            plain_lane.ops as f64,
        )
    };
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.into(), v, unit));
    push("db.self_ns_per_op", db_self, "ns/op");
    push("db.ops", db_lane.ops as f64, "count");
    let user_bytes = db_lane.count(Kind::Put) as f64 * ENTRY_BYTES;
    push("db.user_bytes_written", user_bytes, "bytes");
    push(
        "db.commit_p50_us",
        db_lane.latency(Kind::Commit).quantile(0.5) / 1e3,
        "us",
    );
    push(
        "db.scan_p50_ns",
        db_lane.latency(Kind::Scan).quantile(0.5),
        "ns",
    );

    shard_metrics(&totals, &traced_lane, &mut push);

    // The snapshot layer is timed on the `Db` lane, around `Db::snapshot`
    // and `DbReader` calls; file workloads never activate it.
    let only_mem = |v: f64| if file { 0.0 } else { v };
    let publishes = only_mem(db_lane.count(Kind::Commit) as f64);
    push("snapshot.publishes", publishes, "count");
    push(
        "snapshot.publish_ns",
        only_mem(ratio(db_lane.time_ns(&[Kind::Commit], calib.d0), publishes)),
        "ns/publish",
    );
    push(
        "snapshot.pending_per_publish",
        ratio(db_lane.count(Kind::Put) as f64, publishes),
        "writes/publish",
    );
    push(
        "snapshot.runs_per_epoch",
        ratio(runs_published as f64, publishes),
        "runs",
    );
    push(
        "snapshot.runs_reclaimed",
        (epochs1.reclaimed_runs - epochs0.reclaimed_runs) as f64,
        "count",
    );
    push(
        "snapshot.reader_get_ns",
        only_mem(ratio(
            db_lane.time_ns(&[Kind::Get], calib.d0),
            db_lane.count(Kind::Get) as f64,
        )),
        "ns/get",
    );

    cola_metrics(&totals, &traced_lane, &mut push);
    dam_metrics(&totals, &stack_io.since(&io0), &traced_lane, &mut push);
    dev_metrics(&totals, user_bytes, &mut push);

    push(
        "trace.overhead",
        ratio(plain_lane.ops_per_s(), traced_lane.ops_per_s()),
        "ratio",
    );
    push("trace.traced_ops_per_s", traced_lane.ops_per_s(), "1/s");
    push("trace.untraced_ops_per_s", plain_lane.ops_per_s(), "1/s");
    Ok(Outcome {
        attempted: ops + db_lane.count(Kind::Commit),
        failed,
        metrics: m,
    })
}

/// Router self time and balance, from the traced lane.
fn shard_metrics(t: &Totals, p: &Pass, push: &mut impl FnMut(&str, f64, &'static str)) {
    let calls: u64 = t.shard_calls.iter().sum();
    let max = t.shard_calls.iter().copied().max().unwrap_or(0) as f64;
    let mean = calls as f64 / t.shard_calls.len().max(1) as f64;
    let top: f64 = USER_KINDS.iter().map(|&k| t.self_ns(Layer::Top, k)).sum();
    let user_ops: f64 = USER_KINDS.iter().map(|&k| p.count(k) as f64).sum();
    push("shard.calls", calls as f64, "count");
    push("shard.self_ns_per_op", ratio(top, user_ops), "ns/op");
    push("shard.imbalance", ratio(max, mean), "ratio");
    push("shard.max_ops", max, "count");
    push("shard.mean_ops", mean, "count");
}

/// `GCola` self times and work counts, from the traced lane.
fn cola_metrics(t: &Totals, p: &Pass, push: &mut impl FnMut(&str, f64, &'static str)) {
    let n = |k: Kind| p.count(k) as f64;
    let d = trace::cola_delta();
    push(
        "cola.get_self_ns",
        ratio(t.cola_self(Kind::Get), n(Kind::Get)),
        "ns/get",
    );
    push("cola.searches", d.searches as f64, "count");
    push(
        "cola.cells_scanned_per_get",
        ratio(d.cells_scanned as f64, d.searches as f64),
        "cells/get",
    );
    push("cola.filter_skips", d.filter_skips as f64, "count");
    push(
        "cola.filter_skip_ratio",
        ratio(d.filter_skips as f64, d.searches as f64),
        "ratio",
    );
    push(
        "cola.mem_accesses_per_get",
        ratio(t.calls(Layer::Dam, Kind::Get) as f64, n(Kind::Get)),
        "calls/get",
    );
    push(
        "cola.insert_self_ns",
        ratio(t.cola_self(Kind::Put), n(Kind::Put)),
        "ns/insert",
    );
    push("cola.inserts", d.inserts as f64, "count");
    push("cola.merges", d.merges as f64, "count");
    push(
        "cola.cells_written_per_insert",
        ratio(d.cells_written as f64, d.inserts as f64),
        "cells/insert",
    );
    push(
        "cola.mem_accesses_per_insert",
        ratio(t.calls(Layer::Dam, Kind::Put) as f64, n(Kind::Put)),
        "calls/insert",
    );
    push(
        "cola.scan_self_ns",
        ratio(t.cola_self(Kind::Scan), n(Kind::Scan)),
        "ns/scan",
    );
}

/// Page-cache self time, accesses and traffic, from the traced lane.
fn dam_metrics(
    t: &Totals,
    io: &cosbt::dam::IoStats,
    p: &Pass,
    push: &mut impl FnMut(&str, f64, &'static str),
) {
    let calls: f64 = ALL_KINDS
        .iter()
        .map(|&k| (t.calls(Layer::Dam, k) + t.calls(Layer::DamBulk, k)) as f64)
        .sum();
    let self_ns: f64 = ALL_KINDS.iter().map(|&k| t.dam_self(k)).sum();
    let commits = p.count(Kind::Commit) as f64;
    push("dam.get_calls", t.dam_gets as f64, "count");
    push("dam.set_calls", t.dam_sets as f64, "count");
    push("dam.self_ns_per_call", ratio(self_ns, calls), "ns/call");
    push("dam.accesses", io.accesses as f64, "count");
    push("dam.hits", io.hits as f64, "count");
    push(
        "dam.hit_rate",
        ratio(io.hits as f64, io.accesses as f64),
        "ratio",
    );
    push("dam.fetches", io.fetches as f64, "count");
    push("dam.evictions", io.evictions as f64, "count");
    push("dam.writebacks", io.writebacks as f64, "count");
    push(
        "dam.fetches_per_op",
        ratio(io.fetches as f64, p.ops as f64),
        "ratio",
    );
    push(
        "dam.commit_self_ns",
        ratio(t.self_ns(Layer::DamCommit, Kind::Commit), commits),
        "ns/commit",
    );
}

/// Device calls of the traced lane.
fn dev_metrics(t: &Totals, user_bytes: f64, push: &mut impl FnMut(&str, f64, &'static str)) {
    let d0 = t.calib.d0;
    let mut sync = t.dev_sync_ns.clone();
    sync.sort_unstable();
    let pct = |q: f64| {
        if sync.is_empty() {
            0.0
        } else {
            sync[((sync.len() - 1) as f64 * q).round() as usize] as f64 - d0
        }
    };
    let reads = t.dev_reads as f64;
    let writes = t.dev_writes as f64;
    push("dev.reads", reads, "count");
    push("dev.read_bytes", t.dev_read_bytes as f64, "bytes");
    push(
        "dev.read_ns",
        ratio(t.dev_read_ns as f64 - reads * d0, reads),
        "ns/read",
    );
    push("dev.writes", writes, "count");
    push("dev.write_bytes", t.dev_write_bytes as f64, "bytes");
    push(
        "dev.write_ns",
        ratio(t.dev_write_ns as f64 - writes * d0, writes),
        "ns/write",
    );
    push("dev.syncs", sync.len() as f64, "count");
    push("dev.sync_ns_p50", pct(0.5), "ns");
    push("dev.sync_ns_p90", pct(0.9), "ns");
    push(
        "dev.write_amp",
        ratio(t.dev_write_bytes as f64, user_bytes),
        "ratio",
    );
}

#[cfg(test)]
mod tests;
