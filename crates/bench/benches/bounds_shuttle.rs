//! **E10** — shuttle tree (Section 2): search transfers under the
//! van Emde Boas/Fibonacci layout stay O(log_{B+1} N) (Lemma 4) and beat a random
//! (pointer-machine) placement of the same tree; the buffer hierarchy
//! keeps amortized insert work per element far below a root-to-leaf
//! rewrite (Theorem 17's regime).

use cosbt_bench::measure::results_dir;
use cosbt_bench::{random_keys, scaled, search_probes};
use cosbt_dam::CacheConfig;
use cosbt_shuttle::layout::measure_searches;
use cosbt_shuttle::{LayoutImage, ShuttleTree};
use std::io::Write as _;

const BLOCK: usize = 4096;
const MEM_BLOCKS: usize = 16;

fn main() {
    let max_n = scaled(1 << 16, 1 << 19);
    let csv_path = results_dir().join("bounds_shuttle.csv");
    std::fs::create_dir_all(results_dir()).ok();
    let mut csv = std::fs::File::create(&csv_path).unwrap();
    writeln!(
        csv,
        "n,layout_tps,random_tps,height,shuttled_per_insert,splits"
    )
    .unwrap();

    println!("== E10: shuttle tree layout & insert shape (B = {BLOCK} B) ==");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "N", "height", "layout tps", "random tps", "shuttled/ins", "splits"
    );
    let mut n = 1u64 << 13;
    while n <= max_n {
        let keys = random_keys(n, 0xE10);
        let mut t = ShuttleTree::new(4);
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u64);
        }
        let shuttled = t.stats().msgs_shuttled as f64 / n as f64;
        let splits = t.stats().splits;
        let probes = search_probes(&keys, 400, 0xE101);
        let cfg = CacheConfig::new(BLOCK, MEM_BLOCKS);

        LayoutImage::assign(&mut t);
        let packed = measure_searches(&t, &probes, cfg);
        let layout_tps = packed.fetches as f64 / probes.len() as f64;

        LayoutImage::assign_random(&mut t, 0xBADC0DE);
        let rnd = measure_searches(&t, &probes, cfg);
        let rnd_tps = rnd.fetches as f64 / probes.len() as f64;

        println!(
            "{:>10} {:>10} {:>12.2} {:>12.2} {:>14.2} {:>10}",
            n,
            t.height(),
            layout_tps,
            rnd_tps,
            shuttled,
            splits
        );
        writeln!(
            csv,
            "{n},{layout_tps:.4},{rnd_tps:.4},{},{shuttled:.3},{splits}",
            t.height()
        )
        .unwrap();
        n *= 4;
    }
    println!(
        "\nshape check: layout transfers grow ~log_B N and stay below the\n\
         random layout's (which pays ~1 block per tree node on the path)."
    );
    println!("csv: {}", csv_path.display());
}
