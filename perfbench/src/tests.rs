//! Self-tests of the benchmark at tiny sizes.

use std::sync::Mutex;

use super::*;
use crate::model::replay_corrupting;

/// The trace counters are process-global: tests that drive a stack take
/// turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every workload shrunk to a few thousand keys and ops, with caches
/// small enough that the file workloads still evict.
fn tiny(spec: Spec) -> Spec {
    let store = match spec.store {
        Store::File {
            shards,
            cache_bytes,
        } => Store::File {
            shards,
            cache_bytes: if cache_bytes > 1 << 20 {
                1 << 20
            } else {
                shards * 2 * cosbt::dam::DEFAULT_PAGE_SIZE
            },
        },
        Store::Mem => Store::Mem,
    };
    Spec {
        store,
        ranks: 4096,
        commit_every: 64,
        ops_per_second: 4000,
        ..spec
    }
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_data")
        .join(format!("test-{name}-{}", std::process::id()))
}

fn with_dir<T>(name: &str, f: impl FnOnce(&Path) -> T) -> T {
    let dir = scratch(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = f(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn tiny_runs_of_every_workload_pass_the_answer_check() {
    let _g = serial();
    for spec in workload::all().into_iter().map(tiny) {
        let o = with_dir(spec.name, |d| end_to_end(&spec, 7, 1.0, d)).expect("run");
        assert_eq!(o.failed, 0, "{}", spec.name);
        assert!(o.attempted >= 4000, "{}", spec.name);
        for (name, v, _) in &o.metrics {
            assert!(*v > 0.0, "{}: {name} is {v}", spec.name);
        }
    }
}

#[test]
fn a_corrupted_model_answer_is_caught() {
    let _g = serial();
    for spec in workload::all().into_iter().map(tiny) {
        let ops = spec.ops(1.0);
        let pass = with_dir(spec.name, |d| {
            let mut db = fresh_db(&spec, 3, d).expect("set-up");
            let mut lane = Lane::new(&mut db, &spec, 3, ops, false);
            lane.run(ops);
            let pass = lane.pass;
            db.db.discard_on_drop();
            pass
        });
        assert_eq!(pass.answers.mismatches(&replay(&spec, 3, ops).answers), 0);
        // The first op's answer, and one in the middle, deliberately wrong.
        for wrong in [0, ops / 2] {
            let bad = replay_corrupting(&spec, 3, ops, Some(wrong));
            assert!(pass.answers.mismatches(&bad.answers) > 0, "{}", spec.name);
        }
    }
}

#[test]
fn traced_and_untraced_stacks_agree_at_small_n() {
    let _g = serial();
    for spec in workload::all().into_iter().map(tiny) {
        let o = with_dir(spec.name, |d| traced(&spec, 11, 1.0, d)).expect("run");
        assert_eq!(o.failed, 0, "{}", spec.name);
        assert!(metric(&o, "trace.overhead") > 0.0);
        if matches!(spec.store, Store::File { .. }) {
            assert!(metric(&o, "dam.accesses") > 0.0, "{}", spec.name);
            assert!(metric(&o, "dev.syncs") > 0.0, "{}", spec.name);
        } else {
            assert!(metric(&o, "snapshot.publishes") > 0.0);
        }
        assert!(metric(&o, "cola.inserts") > 0.0, "{}", spec.name);
    }
}

#[test]
fn the_same_seed_gives_the_same_stream() {
    for spec in workload::all() {
        let (mut a, mut b, mut c) = (spec.stream(5), spec.stream(5), spec.stream(6));
        let ops_a: Vec<_> = (0..1000).map(|_| a.next_op()).collect();
        let ops_b: Vec<_> = (0..1000).map(|_| b.next_op()).collect();
        let ops_c: Vec<_> = (0..1000).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c);
        assert_eq!(spec.prefill(5), spec.prefill(5));
    }
}

/// The names of the entries of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let _g = serial();
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    let workloads: Vec<String> = workload::all().iter().map(|s| s.name.to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);

    let spec = tiny(workload::by_name("ingest_ooc").expect("exists"));
    let printed = |trace: bool| -> Vec<String> {
        let o = with_dir("names", |d| {
            if trace {
                traced(&spec, 1, 0.5, d)
            } else {
                end_to_end(&spec, 1, 0.5, d)
            }
        })
        .expect("run");
        o.metrics.iter().map(|(n, _, _)| n.clone()).collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), printed(false));
    assert_eq!(names_in(&json, "per_layer"), printed(true));
}

#[test]
fn metric_names_are_well_formed() {
    let ok = |s: &str| {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let _g = serial();
    let spec = tiny(workload::by_name("snapshot_mem").expect("exists"));
    let o = with_dir("wellformed", |d| traced(&spec, 2, 0.5, d)).expect("run");
    for (name, _, unit) in &o.metrics {
        assert!(ok(name), "{name}");
        assert!(unit.len() <= 16, "{unit}");
    }
}
