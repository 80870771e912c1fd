//! The seed drives every generated input: the same seed gives the same
//! query streams and the same dataset bytes, another seed does not.

use crate::common::Ctx;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn ctx(seed: u64, work: &Path) -> Ctx {
    Ctx {
        workload: "analysis-remote",
        seed,
        seconds: 1.0,
        work: work.to_path_buf(),
        trace_out: work.join("trace.tsv"),
    }
}

/// Every file of a written dataset, by name.
fn dataset_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("dataset dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read dataset file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// Query streams and written bytes of a small cosmology timestep.
fn inputs(seed: u64, work: &Path) -> (String, BTreeMap<String, Vec<u8>>) {
    let ctx = ctx(seed, work);
    let (_, _, sessions) = crate::viewer::generate(&ctx, 5_000.0);
    let (sets, grid, queries) = crate::analysis::generate(&ctx, 5_000);
    let dir = work.join(format!("seed{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    crate::analysis::write_measured(sets, &grid, &dir, 1).expect("write test dataset");
    let bytes = dataset_bytes(&dir);
    std::fs::remove_dir_all(&dir).expect("remove test dataset");
    (format!("{sessions:?}{queries:?}"), bytes)
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let work: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_work")
        .join(format!("seeded-test-{}", std::process::id()));
    let (streams_a, bytes_a) = inputs(7, &work.join("a"));
    let (streams_b, bytes_b) = inputs(7, &work.join("b"));
    let (streams_c, bytes_c) = inputs(8, &work.join("c"));
    std::fs::remove_dir_all(&work).ok();

    assert!(!bytes_a.is_empty());
    assert_eq!(streams_a, streams_b, "same seed, different query streams");
    assert!(bytes_a == bytes_b, "same seed, different dataset bytes");
    assert_ne!(streams_a, streams_c, "another seed, same query streams");
    assert!(bytes_a != bytes_c, "another seed, same dataset bytes");
}
