//! Crash-point exploration of the MatchStats sidecar's append path,
//! mirroring `crates/repo/tests/crashsim.rs` for the repository proper.
//!
//! The sidecar's durability contract is weaker than the repository's —
//! frames are appended with a single fsync, no in-progress flag — so
//! its invariants are correspondingly simpler:
//!
//! 1. Every crash image reopens without error, recovering a frame
//!    prefix of what was recorded (a torn tail is tolerated, reported,
//!    and never decoded as data).
//! 2. Opening a sidecar whose header is whole never writes: a
//!    kill-and-reopen cycle leaves the file byte-identical.
//! 3. Acked ⇒ durable: once `record` returns `Ok`, a power cut cannot
//!    lose the batch.
//! 4. A creation cut anywhere reopens empty: a missing file, an empty
//!    one or one holding part of the header is created again.
//!
//! The mutation check turns off the append fsync via
//! `skip_sync_for_tests` and proves invariant 3 then *fails* — the
//! invariant really does rest on that fsync.

use std::path::PathBuf;
use std::sync::Arc;

use optimatch_core::stats::MatchStatsStore;
use optimatch_core::vfs::{crash_images, SimFs, Vfs};
use optimatch_core::MatchSample;

fn sample(entry: &str) -> MatchSample {
    MatchSample {
        entry: entry.to_string(),
        qep_id: "q-crash".to_string(),
        confidence: 0.75,
        cost_share: 0.5,
    }
}

/// A sidecar with one durable batch on a fresh simulated disk, plus the
/// base snapshot for the explorer.
fn seeded() -> (SimFs, SimFs, PathBuf) {
    let fs = SimFs::new();
    let path = PathBuf::from("/sim/workload.optirepo.stats");
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let store = MatchStatsStore::open_on(vfs, &path).expect("creates");
    store
        .record(&[sample("seed-entry")], 1)
        .expect("seed batch");
    let base = fs.deep_clone();
    fs.clear_trace();
    (fs, base, path)
}

fn entries(store: &MatchStatsStore) -> Vec<String> {
    store.records().iter().map(|r| r.entry.clone()).collect()
}

/// Invariant 1: every cut, tear, and reorder of one `record` call
/// reopens cleanly with a frame prefix — the already-durable batch
/// intact, the new batch whole, partial, or absent, never garbled.
#[test]
fn every_crash_point_of_a_record_reopens_to_a_frame_prefix() {
    let (fs, base, path) = seeded();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let store = MatchStatsStore::open_on(vfs, &path).expect("reopens");
        store
            .record(&[sample("new-a"), sample("new-b")], 2)
            .expect("record acks");
    }

    let images = crash_images(&base, &fs.trace());
    assert!(images.len() > 2, "explorer too shallow: {}", images.len());
    for image in &images {
        let vfs: Arc<dyn Vfs> = Arc::new(image.fs.clone());
        let store = MatchStatsStore::open_on(vfs, &path)
            .unwrap_or_else(|e| panic!("open on `{}`: {e}", image.label));
        let got = entries(&store);
        let ok = matches!(
            got.iter().map(String::as_str).collect::<Vec<_>>()[..],
            ["seed-entry"] | ["seed-entry", "new-a"] | ["seed-entry", "new-a", "new-b"]
        );
        assert!(ok, "`{}` recovered {got:?}", image.label);
    }

    // The full-trace image (last prefix cut) holds the acked batch.
    let last = &images[images.len() - 1];
    let vfs: Arc<dyn Vfs> = Arc::new(last.fs.clone());
    let store = MatchStatsStore::open_on(vfs, &path).expect("full image opens");
    assert_eq!(entries(&store), ["seed-entry", "new-a", "new-b"]);
    assert_eq!(store.torn_tail_bytes(), 0);
}

/// Invariant 4: every cut, tear and reorder of a sidecar's creation
/// opens with zero records, and the reopened store records again.
#[test]
fn every_crash_point_of_a_creation_reopens_empty() {
    let fs = SimFs::new();
    let path = PathBuf::from("/sim/workload.optirepo.stats");
    let base = fs.deep_clone();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        MatchStatsStore::open_on(vfs, &path).expect("creates");
    }

    let images = crash_images(&base, &fs.trace());
    assert!(images.len() > 2, "explorer too shallow: {}", images.len());
    for image in &images {
        let vfs: Arc<dyn Vfs> = Arc::new(image.fs.clone());
        let store = MatchStatsStore::open_on(vfs.clone(), &path)
            .unwrap_or_else(|e| panic!("open on `{}`: {e}", image.label));
        assert!(store.is_empty(), "`{}` recovered records", image.label);
        store
            .record(&[sample("after-crash")], 1)
            .unwrap_or_else(|e| panic!("record on `{}`: {e}", image.label));
        let again = MatchStatsStore::open_on(vfs, &path).expect("reopens");
        assert_eq!(entries(&again), ["after-crash"], "`{}`", image.label);
    }
}

/// Invariant 2: opening a crash image writes nothing — the bytes before
/// and after a reopen are identical, torn tail and all. (The repository
/// proper repairs on open; the sidecar deliberately does not, so kill
/// loops cannot mutate it.)
#[test]
fn reopening_any_crash_image_is_byte_identical() {
    let (fs, base, path) = seeded();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let store = MatchStatsStore::open_on(vfs, &path).expect("reopens");
        store.record(&[sample("new-a")], 2).expect("record acks");
    }

    for image in crash_images(&base, &fs.trace()) {
        let before = image.fs.image(&path);
        image.fs.clear_trace();
        let vfs: Arc<dyn Vfs> = Arc::new(image.fs.clone());
        let _store = MatchStatsStore::open_on(vfs, &path)
            .unwrap_or_else(|e| panic!("open on `{}`: {e}", image.label));
        assert!(
            image.fs.trace().is_empty(),
            "open wrote to `{}`: {:?}",
            image.label,
            image.fs.trace()
        );
        assert_eq!(
            image.fs.image(&path),
            before,
            "`{}` changed on reopen",
            image.label
        );
    }
}

/// Invariant 3: an acked batch survives a power cut that drops every
/// un-fsync'd byte.
#[test]
fn an_acked_record_survives_a_power_cut() {
    let (fs, _base, path) = seeded();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let store = MatchStatsStore::open_on(vfs, &path).expect("reopens");
        store.record(&[sample("new-a")], 2).expect("record acks");
    }
    fs.power_cut();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let store = MatchStatsStore::open_on(vfs, &path).expect("opens after power cut");
    assert_eq!(entries(&store), ["seed-entry", "new-a"]);
    assert_eq!(store.torn_tail_bytes(), 0);
}

/// The mutation check: with the append fsync skipped, the acked batch
/// *is* lost to a power cut — caught deterministically, proving the
/// invariant above actually depends on the fsync it claims to test.
#[test]
fn skipping_the_append_fsync_is_caught_by_the_power_cut() {
    let (fs, _base, path) = seeded();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let mut store = MatchStatsStore::open_on(vfs, &path).expect("reopens");
        store.skip_sync_for_tests();
        store
            .record(&[sample("new-a")], 2)
            .expect("the weakened record still acks — that is the bug");
    }
    fs.power_cut();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let store = MatchStatsStore::open_on(vfs, &path).expect("opens after power cut");
    assert_eq!(
        entries(&store),
        ["seed-entry"],
        "without the fsync the acked batch must not have persisted — \
         if it did, the power-cut model lost its teeth"
    );
}
