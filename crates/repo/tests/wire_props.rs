//! Property tests over the repository's wire format and its readers:
//! arbitrary truncation and single-byte corruption of a valid file (or
//! a lone record payload) must never panic the decoder, and no record
//! ever comes back without surviving its CRC — a corrupted payload is
//! skipped, not silently returned mutated. Hostile 8-byte values
//! (offsets and lengths near the file size or near `u64::MAX`) written
//! anywhere in the file, with the footer CRC made to match again or
//! not, must never panic any reader either.

use std::path::PathBuf;

use proptest::prelude::*;

use optimatch_qep::fixtures;
use optimatch_rdf::{GraphBuilder, Term};
use optimatch_repo::vfs::SimFs;
use optimatch_repo::wire::Cursor;
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
        labels: vec!["label-a".to_string()],
        qep,
        graph: graph.build(),
    }
}

/// A valid three-record repository image, built once per process.
fn repo_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let fs = SimFs::new();
        let path = PathBuf::from("/sim/props.optirepo");
        let records = vec![
            record("q-1", fixtures::fig1()),
            record("q-2", fixtures::fig7()),
            record("q-3", fixtures::fig8()),
        ];
        Repository::save_on(&fs, &path, &records).expect("save");
        fs.image(&path).expect("image")
    })
}

/// The ids the undamaged image decodes to.
const ORIGINAL_IDS: [&str; 3] = ["q-1", "q-2", "q-3"];

/// The footer CRC recomputed over whatever the footer body now holds, so
/// damage inside the index gets past the footer check and reaches the
/// per-record reads. The footer is located from the undamaged image.
fn recompute_footer_crc(bytes: &mut [u8]) {
    let original = repo_bytes();
    let trailer = original.len() - 16;
    let footer = u64::from_le_bytes(original[trailer..trailer + 8].try_into().unwrap()) as usize;
    let crc = optimatch_repo::crc::crc32(&bytes[footer + 10..trailer]);
    bytes[footer + 6..footer + 10].copy_from_slice(&crc.to_le_bytes());
}

/// Run every reader (strict open, lenient open, verify, append) over
/// `bytes`, each on a fresh SimFs. Errors are fine; panics are bugs, and
/// whatever strict or lenient open returns must be original records.
fn run_every_reader(bytes: &[u8]) {
    let path = PathBuf::from("/sim/hostile.optirepo");
    let fresh = || {
        let fs = SimFs::new();
        fs.install(&path, bytes);
        fs
    };
    if let Ok(repo) = Repository::open_on(&fresh(), &path) {
        assert_survivors_are_originals(&repo.records);
    }
    if let Ok(loaded) = Repository::open_lenient_on(&fresh(), &path) {
        assert_survivors_are_originals(&loaded.repository.records);
    }
    let _ = Repository::verify_on(&fresh(), &path);
    let _ = Repository::append_on(&fresh(), &path, &[record("q-4", fixtures::fig1())]);
}

/// The values a hostile 8-byte window holds: zero, values around the
/// file length, `u32::MAX`, `u64::MAX - k`, and random bits.
fn hostile_value() -> impl Strategy<Value = u64> {
    let len = repo_bytes().len() as u64;
    prop_oneof![
        Just(0u64),
        (0u64..48).prop_map(move |d| len + 24 - d),
        Just(u64::from(u32::MAX)),
        (0u64..16).prop_map(|k| u64::MAX - k),
        any::<u64>(),
    ]
}

/// Where the window starts: anywhere in the file, or inside the footer
/// and trailer, where every offset the readers follow is stored.
fn window_start() -> impl Strategy<Value = usize> {
    let bytes = repo_bytes();
    let trailer = bytes.len() - 16;
    let footer = u64::from_le_bytes(bytes[trailer..trailer + 8].try_into().unwrap()) as usize;
    prop_oneof![0..bytes.len() - 7, footer..bytes.len() - 7]
}

/// Open `bytes` leniently via a fresh SimFs; returns `None` when the
/// open itself errors (acceptable — only panics are bugs).
fn lenient(bytes: &[u8]) -> Option<Vec<RepoRecord>> {
    let fs = SimFs::new();
    let path = PathBuf::from("/sim/damaged.optirepo");
    fs.install(&path, bytes);
    Repository::open_lenient_on(&fs, &path)
        .ok()
        .map(|l| l.repository.records)
}

/// Every surviving record must be byte-for-byte one of the originals:
/// its payload re-encodes to exactly what was stored, so nothing came
/// back without its CRC (over those same bytes) having been verified.
fn assert_survivors_are_originals(records: &[RepoRecord]) {
    let originals = [
        record("q-1", fixtures::fig1()),
        record("q-2", fixtures::fig7()),
        record("q-3", fixtures::fig8()),
    ];
    for r in records {
        let Some(i) = ORIGINAL_IDS.iter().position(|id| *id == r.id) else {
            panic!("recovered a record with an invented id {:?}", r.id);
        };
        assert_eq!(
            r.encode(),
            originals[i].encode(),
            "recovered record {:?} differs from the original",
            r.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating the file anywhere never panics the lenient reader,
    /// and whatever it salvages is a subset of the original records,
    /// unmodified.
    #[test]
    fn lenient_open_survives_any_truncation(cut in 0usize..4096) {
        let bytes = repo_bytes();
        let cut = cut % (bytes.len() + 1);
        if let Some(records) = lenient(&bytes[..cut]) {
            assert_survivors_are_originals(&records);
        }
    }

    /// Flipping any single bit never panics the lenient reader and
    /// never lets a mutated payload through: survivors are always
    /// byte-identical to originals (the CRC catches every single-bit
    /// payload flip by construction).
    #[test]
    fn lenient_open_survives_any_single_bit_flip(pos in 0usize..65536, bit in 0u8..8) {
        let mut bytes = repo_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Some(records) = lenient(&bytes) {
            assert_survivors_are_originals(&records);
        }
    }

    /// Truncation plus a flip in the remaining prefix — the compound
    /// damage a torn write followed by media rot would leave.
    #[test]
    fn lenient_open_survives_truncation_plus_corruption(
        cut in 64usize..4096,
        pos in 0usize..65536,
        bit in 0u8..8,
    ) {
        let bytes = repo_bytes();
        let cut = 64 + cut % (bytes.len() - 63);
        let mut damaged = bytes[..cut].to_vec();
        let pos = pos % damaged.len();
        damaged[pos] ^= 1 << bit;
        if let Some(records) = lenient(&damaged) {
            assert_survivors_are_originals(&records);
        }
    }

    /// The record decoder is total over arbitrary bytes: garbage in,
    /// `Err` (never a panic) out. A successful decode of random bytes
    /// would be suspicious but is not unsound — the store only feeds it
    /// CRC-verified payloads.
    #[test]
    fn record_decode_is_total(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        for version in 1..=optimatch_repo::FORMAT_VERSION {
            let _ = RepoRecord::decode(&payload, version);
        }
    }

    /// Why the store checks the CRC *before* decoding: a flipped bit in
    /// a count field can reinterpret the stream into a different but
    /// well-formed record, so decode alone is not self-authenticating.
    /// CRC32 detects every single-bit error by construction — this is
    /// the property the "no unverified frame" guarantee rests on.
    #[test]
    fn the_crc_catches_every_single_bit_flip(pos in 0usize..65536, bit in 0u8..8) {
        let original = record("q-flip", fixtures::fig1());
        let mut payload = original.encode();
        let pos = pos % payload.len();
        payload[pos] ^= 1 << bit;
        assert_ne!(
            optimatch_repo::crc::crc32(&payload),
            optimatch_repo::crc::crc32(&record("q-flip", fixtures::fig1()).encode()),
            "a single-bit flip slipped past the CRC"
        );
    }

    /// An 8-byte window overwritten with a hostile value, anywhere in the
    /// file, never panics a reader — with the footer CRC left stale (the
    /// footer check catches index damage) and recomputed (the damage
    /// reaches the per-record reads).
    #[test]
    fn no_reader_panics_on_hostile_values(start in window_start(), value in hostile_value()) {
        let mut damaged = repo_bytes().to_vec();
        damaged[start..start + 8].copy_from_slice(&value.to_le_bytes());
        run_every_reader(&damaged);
        recompute_footer_crc(&mut damaged);
        run_every_reader(&damaged);
    }

    /// The wire cursor primitives are total over arbitrary bytes.
    #[test]
    fn cursor_primitives_are_total(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut c = Cursor::new(&data);
        let _ = c.u8("x");
        let _ = c.u32("x");
        let _ = c.u64("x");
        let _ = c.f64("x");
        let _ = c.str("x");
        let _ = c.strs("x");
    }
}
