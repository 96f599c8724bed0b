//! Integrity checks against deliberately damaged repository files:
//! single flipped bytes, truncation, and mangled structures. The strict
//! open must fail naming the damaged record; the lenient open must
//! recover everything else; `verify` must report every problem.
//!
//! Pure byte-damage tests run on a [`SimFs`] (no temp files); the
//! torn-append crash-window tests deliberately stay on the real
//! filesystem — one raw on-disk test per window — so the `StdFs` path
//! keeps coverage too. Exhaustive window enumeration lives in
//! `tests/crashsim.rs`.

use std::path::PathBuf;

use optimatch_qep::fixtures;
use optimatch_rdf::{GraphBuilder, Term};
use optimatch_repo::vfs::SimFs;
use optimatch_repo::{RepoError, RepoRecord, Repository};

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

fn fresh_repo(tag: &str) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join("optimatch-repo-corruption");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.repo"));
    let records = vec![
        record("q-first", fixtures::fig1()),
        record("q-middle", fixtures::fig7()),
        record("q-last", fixtures::fig8()),
    ];
    Repository::save(&path, &records).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

/// The same three-record repository on a simulated disk: the bytes plus
/// a `SimFs` to damage them on. No temp files, no cleanup.
fn fresh_sim_repo() -> (SimFs, PathBuf, Vec<u8>) {
    let fs = SimFs::new();
    let path = PathBuf::from("/sim/corruption.optirepo");
    let records = vec![
        record("q-first", fixtures::fig1()),
        record("q-middle", fixtures::fig7()),
        record("q-last", fixtures::fig8()),
    ];
    Repository::save_on(&fs, &path, &records).expect("save");
    let bytes = fs.image(&path).expect("image");
    (fs, path, bytes)
}

/// File offset of the i-th record's payload start, straight from the
/// on-disk layout (16-byte header, 10-byte frames).
fn payload_offset(bytes: &[u8], index: usize) -> (usize, usize) {
    let mut pos = 16;
    for _ in 0..index {
        let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
        pos += 10 + len;
    }
    let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
    (pos + 10, len)
}

#[test]
fn one_flipped_byte_fails_strict_open_naming_the_record() {
    let (fs, path, bytes) = fresh_sim_repo();
    let (start, len) = payload_offset(&bytes, 1);
    let mut bad = bytes.clone();
    bad[start + len / 2] ^= 0x01;
    fs.install(&path, &bad);

    let err = Repository::open_on(&fs, &path).unwrap_err();
    match &err {
        RepoError::Checksum { index, id, .. } => {
            assert_eq!(*index, 1);
            assert_eq!(id, "q-middle");
        }
        other => panic!("expected a checksum error, got {other}"),
    }
    assert!(err.to_string().contains("q-middle"), "{err}");
}

#[test]
fn lenient_open_skips_the_damaged_record_and_keeps_the_rest() {
    let (fs, path, bytes) = fresh_sim_repo();
    let (start, _) = payload_offset(&bytes, 1);
    let mut bad = bytes.clone();
    bad[start] ^= 0x80;
    fs.install(&path, &bad);

    let loaded = Repository::open_lenient_on(&fs, &path).unwrap();
    let ids: Vec<&str> = loaded
        .repository
        .records
        .iter()
        .map(|r| r.id.as_str())
        .collect();
    assert_eq!(ids, vec!["q-first", "q-last"]);
    assert_eq!(loaded.skipped.len(), 1);
    let skip = &loaded.skipped[0];
    assert_eq!(skip.index, Some(1));
    assert_eq!(skip.id.as_deref(), Some("q-middle"));
    assert!(skip.to_string().contains("q-middle"), "{skip}");
}

#[test]
fn truncated_final_segment_recovers_earlier_records_leniently() {
    let (fs, path, bytes) = fresh_sim_repo();
    // Cut the file somewhere inside the last record's payload — the
    // footer and trailer are gone with it.
    let (last_start, last_len) = payload_offset(&bytes, 2);
    let cut = last_start + last_len / 2;
    fs.install(&path, &bytes[..cut]);

    // Strict open fails: no trailer.
    let err = Repository::open_on(&fs, &path).unwrap_err();
    assert!(matches!(err, RepoError::Corrupt { .. }), "{err}");

    // Lenient open falls back to a sequential scan and recovers the
    // first two records.
    let loaded = Repository::open_lenient_on(&fs, &path).unwrap();
    let ids: Vec<&str> = loaded
        .repository
        .records
        .iter()
        .map(|r| r.id.as_str())
        .collect();
    assert_eq!(ids, vec!["q-first", "q-middle"]);
    assert!(
        loaded
            .skipped
            .iter()
            .any(|s| s.reason.contains("truncated")),
        "skips: {:?}",
        loaded.skipped
    );
}

#[test]
fn verify_reports_every_problem_without_stopping() {
    let (fs, path, bytes) = fresh_sim_repo();
    let ok = Repository::verify_on(&fs, &path).unwrap();
    assert!(ok.is_ok());
    assert_eq!(ok.records, 3);
    assert_eq!(ok.bytes, bytes.len() as u64);

    // Damage two records at once.
    let mut bad = bytes.clone();
    let (s0, _) = payload_offset(&bytes, 0);
    let (s2, _) = payload_offset(&bytes, 2);
    bad[s0] ^= 0x40;
    bad[s2] ^= 0x40;
    fs.install(&path, &bad);

    let report = Repository::verify_on(&fs, &path).unwrap();
    assert!(!report.is_ok());
    assert_eq!(report.records, 1);
    assert_eq!(report.problems.len(), 2);
    assert!(
        report.problems[0].contains("q-first"),
        "{:?}",
        report.problems
    );
    assert!(
        report.problems[1].contains("q-last"),
        "{:?}",
        report.problems
    );
}

#[test]
fn damaged_footer_crc_triggers_sequential_recovery() {
    let (fs, path, bytes) = fresh_sim_repo();
    // The footer body sits between the last record and the 16-byte
    // trailer; flip a byte in it so its CRC no longer matches.
    let trailer_start = bytes.len() - 16;
    let footer_offset =
        u64::from_le_bytes(bytes[trailer_start..trailer_start + 8].try_into().unwrap()) as usize;
    let mut bad = bytes.clone();
    bad[footer_offset + 10] ^= 0xFF; // first byte of the footer body
    fs.install(&path, &bad);

    let err = Repository::open_on(&fs, &path).unwrap_err();
    assert!(err.to_string().contains("footer"), "{err}");

    // All three records are still intact; the sequential scan finds them.
    let loaded = Repository::open_lenient_on(&fs, &path).unwrap();
    assert_eq!(loaded.repository.records.len(), 3);
    assert!(
        loaded
            .skipped
            .iter()
            .any(|s| s.reason.contains("sequential")),
        "skips: {:?}",
        loaded.skipped
    );

    // Appending to a repository with a broken footer must refuse.
    assert!(Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig1())]).is_err());
}

#[test]
fn append_grows_the_repository_incrementally() {
    let (path, _) = fresh_repo("append-inc");
    Repository::append(&path, &[record("q-extra", fixtures::fig1())]).unwrap();
    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.records.len(), 4);
    assert_eq!(repo.records[3].id, "q-extra");
    assert!(Repository::verify(&path).unwrap().is_ok());
    std::fs::remove_file(&path).ok();
}

/// The header's append-in-progress flag (byte 9) — the commit protocol's
/// crash marker. These tests simulate each crash window by hand-editing
/// the file the way an interrupted `append` would have left it.
fn set_append_flag(bytes: &mut [u8]) {
    bytes[9] = 1;
}

fn footer_offset_of(bytes: &[u8]) -> usize {
    let trailer_start = bytes.len() - 16;
    u64::from_le_bytes(bytes[trailer_start..trailer_start + 8].try_into().unwrap()) as usize
}

#[test]
fn torn_append_before_any_frame_byte_recovers_everything() {
    // Crash window 1: the flag was set and fsync'd, but no new frame
    // byte reached the disk. The old footer is intact, so a strict open
    // keeps all records, drops nothing, and just clears the flag.
    let (path, bytes) = fresh_repo("torn-early");
    let mut torn = bytes.clone();
    set_append_flag(&mut torn);
    std::fs::write(&path, &torn).unwrap();

    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.records.len(), 3);
    let recovered = repo.recovered.expect("torn append reported");
    assert_eq!(recovered.records, 3);
    assert_eq!(recovered.dropped_bytes, 0);

    // The repair quiesced the file: the next open is ordinary.
    let again = Repository::open(&path).unwrap();
    assert!(again.recovered.is_none());
    assert!(Repository::verify(&path).unwrap().is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_append_mid_frame_drops_only_the_torn_tail() {
    // Crash window 2: the tear lands inside a new record's frame. The
    // committed prefix (every complete checksum-valid frame) survives;
    // the partial frame is discarded and the index rebuilt over it.
    let (path, bytes) = fresh_repo("torn-mid");
    let old_footer = footer_offset_of(&bytes);
    Repository::append(&path, &[record("q-torn", fixtures::fig1())]).unwrap();
    let appended = std::fs::read(&path).unwrap();

    let cut = old_footer + 7; // partway into the new frame's header
    let mut torn = appended[..cut].to_vec();
    set_append_flag(&mut torn);
    std::fs::write(&path, &torn).unwrap();

    let repo = Repository::open(&path).unwrap();
    assert_eq!(
        repo.records
            .iter()
            .map(|r| r.id.as_str())
            .collect::<Vec<_>>(),
        vec!["q-first", "q-middle", "q-last"]
    );
    let recovered = repo.recovered.expect("torn append reported");
    assert_eq!(recovered.records, 3);
    assert_eq!(recovered.dropped_bytes, 7);

    // The repair rewrote a valid index and cleared the flag, so the file
    // verifies clean and accepts new appends.
    assert!(Repository::verify(&path).unwrap().is_ok());
    assert_eq!(
        Repository::append(&path, &[record("q-after", fixtures::fig7())]).unwrap(),
        4
    );
    assert!(Repository::open(&path).unwrap().recovered.is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_append_after_index_write_loses_nothing() {
    // Crash window 3: frames and index are durable, only the flag clear
    // was lost. Every record — including the appended one — survives.
    let (path, _) = fresh_repo("torn-late");
    Repository::append(&path, &[record("q-new", fixtures::fig8())]).unwrap();
    let mut torn = std::fs::read(&path).unwrap();
    set_append_flag(&mut torn);
    std::fs::write(&path, &torn).unwrap();

    let repo = Repository::open(&path).unwrap();
    assert_eq!(repo.records.len(), 4);
    assert_eq!(repo.records[3].id, "q-new");
    let recovered = repo.recovered.expect("torn append reported");
    assert_eq!(recovered.records, 4);
    assert_eq!(recovered.dropped_bytes, 0);
    assert!(Repository::verify(&path).unwrap().is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn dirty_file_refuses_appends_and_opens_leniently_read_only() {
    let (path, bytes) = fresh_repo("torn-dirty");
    let mut torn = bytes.clone();
    set_append_flag(&mut torn);
    std::fs::write(&path, &torn).unwrap();

    // Appending to a dirty file must refuse: the tear has to be repaired
    // (by a strict open) before new records can commit.
    let err = Repository::append(&path, &[record("q-nope", fixtures::fig1())]).unwrap_err();
    assert!(err.to_string().contains("append-in-progress"), "{err}");

    // verify names the flag as a problem.
    let report = Repository::verify(&path).unwrap();
    assert!(report
        .problems
        .iter()
        .any(|p| p.contains("append-in-progress")));

    // The lenient open recovers the records but never writes: the flag
    // stays set afterwards.
    let loaded = Repository::open_lenient(&path).unwrap();
    assert_eq!(loaded.repository.records.len(), 3);
    assert!(loaded
        .skipped
        .iter()
        .any(|s| s.reason.contains("append-in-progress")));
    assert_eq!(std::fs::read(&path).unwrap()[9], 1);
    std::fs::remove_file(&path).ok();
}

/// Overwrite the trailer's footer offset, as a hostile or garbled file
/// would.
fn with_footer_offset(bytes: &[u8], offset: u64) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let trailer_start = bad.len() - 16;
    bad[trailer_start..trailer_start + 8].copy_from_slice(&offset.to_le_bytes());
    bad
}

/// Overwrite index entry 0's segment offset and recompute the footer
/// CRC, so the damage gets past the footer check and reaches the
/// per-record reads.
fn with_entry0_offset(bytes: &[u8], offset: u64) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let footer = footer_offset_of(&bad);
    // Footer frame: "IX" · len u32 · crc u32, then the body: count u32,
    // then entry 0's offset u64.
    let body = footer + 10..bad.len() - 16;
    bad[body.start + 4..body.start + 12].copy_from_slice(&offset.to_le_bytes());
    let crc = optimatch_repo::crc::crc32(&bad[body]);
    bad[footer + 6..footer + 10].copy_from_slice(&crc.to_le_bytes());
    bad
}

#[test]
fn out_of_range_footer_offsets_are_typed_errors() {
    let (fs, path, bytes) = fresh_sim_repo();
    for offset in [u64::MAX, u64::MAX - 4] {
        fs.install(&path, &with_footer_offset(&bytes, offset));

        let err = Repository::open_on(&fs, &path).unwrap_err();
        assert!(
            matches!(&err, RepoError::Corrupt { detail } if detail.contains("out of bounds")),
            "offset {offset}: {err}"
        );

        // The records themselves are intact: the lenient open notes the
        // bad footer and recovers all three by sequential scan.
        let loaded = Repository::open_lenient_on(&fs, &path).unwrap();
        assert_eq!(loaded.repository.records.len(), 3, "offset {offset}");
        assert!(
            loaded
                .skipped
                .iter()
                .any(|s| s.reason.contains("out of bounds") && s.reason.contains("sequential")),
            "offset {offset}: {:?}",
            loaded.skipped
        );

        let report = Repository::verify_on(&fs, &path).unwrap();
        assert!(
            report.problems.iter().any(|p| p.contains("out of bounds")),
            "offset {offset}: {:?}",
            report.problems
        );

        assert!(
            Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig1())]).is_err(),
            "offset {offset}: append onto a bad footer must refuse"
        );
    }
}

#[test]
fn out_of_range_index_entry_offsets_are_typed_errors() {
    let (fs, path, bytes) = fresh_sim_repo();
    for offset in [u64::MAX, u64::MAX - 9] {
        fs.install(&path, &with_entry0_offset(&bytes, offset));

        let err = Repository::open_on(&fs, &path).unwrap_err();
        assert!(
            matches!(&err, RepoError::Corrupt { detail } if detail.contains("q-first")),
            "offset {offset}: {err}"
        );

        // The footer is sound, so the damage stays localized to record 0.
        let loaded = Repository::open_lenient_on(&fs, &path).unwrap();
        let ids: Vec<&str> = loaded
            .repository
            .records
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(ids, ["q-middle", "q-last"], "offset {offset}");
        assert_eq!(loaded.skipped.len(), 1, "offset {offset}");
        assert_eq!(loaded.skipped[0].id.as_deref(), Some("q-first"));

        let report = Repository::verify_on(&fs, &path).unwrap();
        assert_eq!(report.records, 2, "offset {offset}");
        assert!(
            report.problems.iter().any(|p| p.contains("q-first")),
            "offset {offset}: {:?}",
            report.problems
        );

        assert!(
            Repository::append_on(&fs, &path, &[record("q-new", fixtures::fig1())]).is_err(),
            "offset {offset}: append onto a bad index must refuse"
        );
    }
}
