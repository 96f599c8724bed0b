//! Exhaustive crash-point exploration of the durable append protocol.
//!
//! One `Repository::append_on` runs against a `SimFs` with tracing on;
//! `crash_images` then enumerates every filesystem image a power loss
//! during that append could leave behind — a prefix cut between any two
//! syscalls, a torn write inside any syscall, and (for windows not
//! closed by an fsync) the device persisting a later write while an
//! earlier one was still in cache. Every image must satisfy the
//! durability invariants:
//!
//! 1. The strict open succeeds — no crash point yields a file the
//!    reader rejects.
//! 2. `recovered` fires exactly per the flag protocol: `Some` iff the
//!    append-in-progress byte persisted as set.
//! 3. The records are the old set plus a *prefix* of the appended
//!    batch (old records first, always intact) — the frame is the
//!    commit unit, so a torn batch may keep its leading frames, but a
//!    gap or a torn frame is never visible at the record level.
//! 4. The strict open's repair converges: a second open reports
//!    nothing, and `verify` is clean.
//! 5. The lenient open agrees on the surviving records and never
//!    writes, whatever it finds.
//!
//! The suite then reruns the exploration against the deliberately
//! weakened `append_on_skipping_frame_sync` and asserts the explorer
//! *catches* it — a missing fsync must produce at least one image that
//! violates the invariants, deterministically. That is the mutation
//! check that proves the exploration has teeth.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use optimatch_qep::fixtures;
use optimatch_rdf::{GraphBuilder, Term};
use optimatch_repo::vfs::{crash_images, SimFs, TraceOp};
use optimatch_repo::{RepoRecord, Repository};

fn record(id: &str, qep: optimatch_qep::Qep) -> RepoRecord {
    let mut qep = qep;
    qep.id = id.to_string();
    let mut graph = GraphBuilder::new();
    graph.insert(
        Term::iri(format!("http://optimatch/qep/{id}")),
        Term::iri("http://optimatch/hasPopType"),
        Term::lit_str("HSJOIN"),
    );
    RepoRecord {
        id: id.to_string(),
        source_file: format!("{id}.qep"),
        labels: Vec::new(),
        qep,
        graph: graph.build(),
    }
}

/// A two-record repository on a fresh simulated disk, plus the base
/// snapshot `crash_images` replays from.
fn seeded() -> (SimFs, SimFs, PathBuf) {
    let fs = SimFs::new();
    let path = PathBuf::from("/sim/crash.optirepo");
    let old = vec![
        record("q-old-1", fixtures::fig1()),
        record("q-old-2", fixtures::fig7()),
    ];
    Repository::save_on(&fs, &path, &old).expect("seed save");
    let base = fs.deep_clone();
    fs.clear_trace();
    (fs, base, path)
}

fn ids(repo: &Repository) -> Vec<String> {
    repo.records.iter().map(|r| r.id.clone()).collect()
}

/// Check invariants 1–5 on one crash image; returns a violation message
/// instead of panicking so the mutation test can count failures.
fn check_image(fs: &SimFs, path: &Path, old: &[&str], new: &[&str]) -> Result<(), String> {
    let label_err = |what: &str| Err(what.to_string());

    let bytes = fs
        .image(path)
        .ok_or_else(|| "image lost the file entirely".to_string())?;
    let flag_set = bytes.len() > 9 && bytes[9] != 0;

    // 1. Strict open succeeds on every image.
    let repo = match Repository::open_on(fs, path) {
        Ok(r) => r,
        Err(e) => return label_err(&format!("strict open failed: {e}")),
    };

    // 2. Recovery reporting tracks the persisted flag byte exactly.
    if repo.recovered.is_some() != flag_set {
        return label_err(&format!(
            "recovered={:?} but append-in-progress flag persisted as {}",
            repo.recovered, flag_set as u8
        ));
    }

    // 3. Old records always intact and first; the batch survives only
    //    as a frame prefix (the frame is the commit unit).
    let got = ids(&repo);
    let acceptable = (0..=new.len()).any(|k| {
        let want: Vec<String> = old.iter().chain(&new[..k]).map(|s| s.to_string()).collect();
        got == want
    });
    if !acceptable {
        return label_err(&format!(
            "records {got:?}, want {old:?} plus a prefix of {new:?}"
        ));
    }

    // 4. The repair converged: reopen quiescent, verify clean.
    let again = match Repository::open_on(fs, path) {
        Ok(r) => r,
        Err(e) => return label_err(&format!("second open failed: {e}")),
    };
    if again.recovered.is_some() {
        return label_err("second open still reports a recovery");
    }
    if ids(&again) != got {
        return label_err("repair changed the surviving records");
    }
    match Repository::verify_on(fs, path) {
        Ok(report) if report.is_ok() => {}
        Ok(report) => return label_err(&format!("verify after repair: {:?}", report.problems)),
        Err(e) => return label_err(&format!("verify after repair failed: {e}")),
    }

    Ok(())
}

/// The main exploration: every cut, tear, and reorder of one correct
/// append recovers cleanly. ~`O(trace × bytes)` images, all checked.
#[test]
fn every_crash_point_of_an_append_recovers_cleanly() {
    let (fs, base, path) = seeded();
    Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig8())]).expect("append acks");
    let trace = fs.trace();
    assert!(
        trace.iter().any(|op| matches!(op, TraceOp::Sync { .. })),
        "the protocol must fsync: {trace:?}"
    );

    let images = crash_images(&base, &trace);
    // Prefix cuts alone give trace.len()+1 images; tears multiply that.
    assert!(images.len() > trace.len() + 1, "explorer too shallow");

    let mut flags_seen = BTreeSet::new();
    for image in &images {
        // Read the flag before the check — the strict open inside it
        // repairs the file, clearing the very byte being sampled.
        let flag = image.fs.image(&path).map(|b| b[9]).unwrap_or(0);
        flags_seen.insert(flag);
        if let Err(why) = check_image(&image.fs, &path, &["q-old-1", "q-old-2"], &["q-new"]) {
            panic!("crash image `{}`: {why}", image.label);
        }
    }
    // The exploration must actually cross the crash window: both
    // flag states (quiescent and append-in-progress) occur.
    assert_eq!(
        flags_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "exploration never entered (or never left) the append window"
    );

    // A correct protocol syncs after every write: no reordering window,
    // so no `drop` images exist.
    assert!(
        images.iter().all(|i| !i.label.contains("drop")),
        "a sync-after-every-write protocol should leave no reorder window"
    );

    // The full trace (the last prefix cut) holds the acked batch.
    let last = &images[images.len() - 1];
    let repo = Repository::open_on(&last.fs, &path).expect("full image opens");
    assert_eq!(ids(&repo), ["q-old-1", "q-old-2", "q-new"]);
}

/// Multi-record appends tear only at frame boundaries: a crash during a
/// two-record batch leaves zero, one, or both new records — in batch
/// order — and never a gap or half a frame. The exploration must
/// actually hit the interesting middle case (exactly one survivor) for
/// the prefix invariant to mean anything.
#[test]
fn a_two_record_batch_tears_only_at_frame_boundaries() {
    let (fs, base, path) = seeded();
    Repository::append_on(
        &fs,
        &path,
        &[
            record("q-new-a", fixtures::fig8()),
            record("q-new-b", fixtures::fig1()),
        ],
    )
    .expect("append acks");

    let mut survivor_counts = BTreeSet::new();
    for image in crash_images(&base, &fs.trace()) {
        if let Err(why) = check_image(
            &image.fs,
            &path,
            &["q-old-1", "q-old-2"],
            &["q-new-a", "q-new-b"],
        ) {
            panic!("crash image `{}`: {why}", image.label);
        }
        let repo = Repository::open_on(&image.fs, &path).expect("already checked");
        survivor_counts.insert(repo.records.len() - 2);
    }
    assert_eq!(
        survivor_counts.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "exploration must cover every frame-prefix length"
    );
}

/// An acked append survives an immediate power cut: once `append_on`
/// returns `Ok`, dropping every un-fsync'd byte must not lose the batch.
#[test]
fn an_acked_append_survives_a_power_cut() {
    let (fs, _base, path) = seeded();
    Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig8())]).expect("append acks");
    fs.power_cut();
    let repo = Repository::open_on(&fs, &path).expect("opens after power cut");
    assert_eq!(ids(&repo), ["q-old-1", "q-old-2", "q-new"]);
    assert!(
        repo.recovered.is_none(),
        "a completed append needs no repair"
    );
}

/// The lenient open agrees with the strict open on every crash image and
/// never writes — it is safe to point diagnostics at a damaged file.
#[test]
fn lenient_open_agrees_and_never_writes_on_any_crash_image() {
    let (fs, base, path) = seeded();
    Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig8())]).expect("append acks");

    for image in crash_images(&base, &fs.trace()) {
        // Lenient first — on an un-repaired image — then prove it wrote
        // nothing by strict-opening an untouched clone and comparing.
        let pristine = image.fs.deep_clone();
        image.fs.clear_trace();
        let lenient = Repository::open_lenient_on(&image.fs, &path)
            .unwrap_or_else(|e| panic!("lenient open on `{}`: {e}", image.label));
        assert!(
            image.fs.trace().is_empty(),
            "lenient open wrote to `{}`: {:?}",
            image.label,
            image.fs.trace()
        );
        let strict = Repository::open_on(&pristine, &path)
            .unwrap_or_else(|e| panic!("strict open on `{}`: {e}", image.label));
        assert_eq!(
            ids(&lenient.repository),
            ids(&strict),
            "strict and lenient disagree on `{}`",
            image.label
        );
    }
}

/// The mutation check: skip the frame/index fsyncs and the explorer must
/// catch the protocol violation. With the syncs gone, the device may
/// persist the index (and the flag clear) while the frames it points at
/// are still in cache — an image the invariants reject. If this test
/// ever finds zero violations, the explorer has lost its teeth.
#[test]
fn the_weakened_append_protocol_is_caught_deterministically() {
    let (fs, base, path) = seeded();
    Repository::append_on_skipping_frame_sync(&fs, &path, &[record("q-new", fixtures::fig8())])
        .expect("the weakened append still acks — that is the bug");
    let trace = fs.trace();

    let images = crash_images(&base, &trace);
    // The missing fsyncs open a reordering window; the explorer must
    // model it.
    assert!(
        images.iter().any(|i| i.label.contains("drop")),
        "no reorder window found — the weakened protocol was not weakened"
    );

    let violations: Vec<String> = images
        .iter()
        .filter_map(|image| {
            check_image(&image.fs, &path, &["q-old-1", "q-old-2"], &["q-new"])
                .err()
                .map(|why| format!("`{}`: {why}", image.label))
        })
        .collect();
    assert!(
        !violations.is_empty(),
        "the explorer failed to catch the missing fsync"
    );
}
