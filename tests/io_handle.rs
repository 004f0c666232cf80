//! An [`cosbt::IoHandle`] that outlives its `Db` reads the counters
//! without keeping the stores open. This test has its own binary because
//! it counts the process's open file descriptors, which tests running
//! beside it would disturb.

#[cfg(target_os = "linux")]
#[test]
fn io_handle_does_not_pin_the_store_files() {
    use cosbt::{Backend, DbBuilder, Structure};

    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let path = std::env::temp_dir().join(format!("cosbt-iohandle-{}", std::process::id()));
    let before = open_fds();
    let mut db = DbBuilder::new()
        .structure(Structure::GCola { g: 4 })
        .backend(Backend::file(path.clone()))
        .cache_bytes(1 << 20)
        .build()
        .unwrap();
    for k in 0..1000u64 {
        db.insert(k, k);
    }
    let io = db.io();
    assert!(
        open_fds() > before,
        "the database holds its store file open"
    );
    drop(db);
    assert_eq!(
        open_fds(),
        before,
        "a live IoHandle keeps a store file open"
    );
    assert!(
        io.snapshot().accesses > 0,
        "the handle still reads the counters"
    );
    drop(io);
    std::fs::remove_file(path).ok();
}
