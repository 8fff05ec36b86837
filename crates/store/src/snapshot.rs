//! Generational session snapshots.
//!
//! A snapshot is one file inside the session directory, named by its
//! generation — `snapshot-00000007.json` — holding exactly one record
//! in the WAL's framing ([`crate::wal`]):
//!
//! ```text
//! [seq: varint u64] [len: varint u64] [crc: 4 bytes LE] [payload: len bytes]
//! ```
//!
//! `seq` is the last WAL sequence number the payload covers — recovery
//! replays only WAL records *after* it, which is what makes a crash
//! between "snapshot renamed into place" and "WAL compacted" harmless.
//! The CRC-32 covers `seq` and the payload together, and the record
//! must span the whole file, so a flipped bit anywhere — header or
//! body — is detected rather than replayed or trusted as a position.
//! The header is at most 24 bytes on top of the payload.
//!
//! The name keeps its historical `.json` suffix on purpose: a
//! generation left by a build that wrote JSON envelopes is still
//! listed, fails to decode, and is skipped and reported like any other
//! corrupt generation instead of being ignored while the WAL it
//! compacted is replayed as if it were the whole history.
//!
//! Each install is atomic: the framed bytes go to `snapshot.tmp`, are
//! fsynced, renamed into the generation's name (POSIX rename
//! atomicity), and the directory is fsynced so the rename survives a
//! power cut — the same install step log rewrites use. At every
//! instant the directory holds only complete snapshot files.
//!
//! **Why generations instead of one file:** a checksummed single
//! snapshot detects its own corruption but has nowhere to fall back
//! to — a lying fsync on the tmp file, followed by a crash, or plain
//! bit rot at rest, would strand the session. So the newest
//! [`KEEP_GENERATIONS`] files are retained, and [`read_best`] walks
//! them newest-first, skipping (and reporting) corrupt ones. The WAL
//! compaction in [`crate::store`] keeps every record *after the
//! previous generation's seq*, so falling back one generation just
//! means a longer — but complete — replay.

use crate::io::Fs;
use crate::wal::{decode_record, encode_record, install};
use std::path::{Path, PathBuf};

/// Snapshot generations retained on disk (newest N).
pub const KEEP_GENERATIONS: usize = 2;
/// Scratch name every install writes before its rename.
pub const TMP_FILE: &str = "snapshot.tmp";
const PREFIX: &str = "snapshot-";
const SUFFIX: &str = ".json";

/// A checkpoint: an opaque payload plus the WAL position it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Last WAL sequence number folded into the payload (0 = none).
    pub seq: u64,
    /// The serialized session (opaque to this crate).
    pub payload: String,
}

/// What walking the generations found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The newest snapshot that verified, if any.
    pub snapshot: Option<Snapshot>,
    /// Generation number of the chosen snapshot (0 = none chosen).
    pub generation: u64,
    /// Newer generations skipped because they failed verification.
    pub skipped: u64,
    /// Files that failed verification (recovery quarantines these so
    /// they stop occupying retention slots).
    pub corrupt: Vec<PathBuf>,
}

/// File name for generation `g`.
pub fn generation_file(g: u64) -> String {
    format!("{PREFIX}{g:08}{SUFFIX}")
}

fn parse_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
    digits.parse().ok()
}

/// Generation numbers present in `dir`, ascending.
pub fn list_generations(fs: &Fs, dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut gens: Vec<u64> = fs
        .list_files(dir)?
        .iter()
        .filter_map(|p| parse_generation(p))
        .collect();
    gens.sort_unstable();
    Ok(gens)
}

/// Atomically install `payload`, covering WAL records up to `seq`, as
/// generation `generation`, then prune generations older than the
/// newest [`KEEP_GENERATIONS`] (prune failures are tolerated — an extra
/// old file costs space, not correctness).
pub fn write(fs: &Fs, dir: &Path, seq: u64, payload: &str, generation: u64) -> std::io::Result<()> {
    let mut image = Vec::new();
    encode_record(seq, payload.as_bytes(), &mut image);
    install(fs, &dir.join(generation_file(generation)), TMP_FILE, &image)?;
    if let Ok(gens) = list_generations(fs, dir) {
        for g in gens.iter().rev().skip(KEEP_GENERATIONS) {
            let _ = fs.remove_file(&dir.join(generation_file(*g)));
        }
    }
    Ok(())
}

/// Verify one generation file: `Ok(None)` when it is missing or
/// corrupt (fall-back-able), `Err` only for an I/O error (not).
fn try_read(fs: &Fs, path: &Path) -> std::io::Result<Option<Snapshot>> {
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(match decode_record(&bytes) {
        Some((seq, payload, consumed)) if consumed == bytes.len() => Some(Snapshot { seq, payload }),
        _ => None,
    })
}

/// Load the newest snapshot that verifies, walking generations
/// newest-first and skipping corrupt ones. No generations at all is a
/// clean `None`; generations present but all corrupt is also `None`
/// with `skipped` accounting — the caller's recovery report turns that
/// into explicit loss, never a silent one.
pub fn read_best(fs: &Fs, dir: &Path) -> std::io::Result<ReadOutcome> {
    let mut out = ReadOutcome { snapshot: None, generation: 0, skipped: 0, corrupt: Vec::new() };
    for g in list_generations(fs, dir)?.into_iter().rev() {
        let path = dir.join(generation_file(g));
        match try_read(fs, &path)? {
            Some(snap) => {
                out.snapshot = Some(snap);
                out.generation = g;
                break;
            }
            None => {
                out.skipped += 1;
                out.corrupt.push(path);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimFs;
    use std::sync::Arc;

    fn sim() -> (Arc<SimFs>, Fs, PathBuf) {
        let sim = Arc::new(SimFs::new(0x5EED));
        let fs = Fs::sim(Arc::clone(&sim));
        let dir = PathBuf::from("/snap-test");
        fs.create_dir_all(&dir).unwrap();
        (sim, fs, dir)
    }

    #[test]
    fn write_read_round_trips_and_newest_wins() {
        let (_sim, fs, dir) = sim();
        assert_eq!(read_best(&fs, &dir).unwrap().snapshot, None);
        let first = Snapshot { seq: 7, payload: "[\"line one\"]".into() };
        write(&fs, &dir, first.seq, &first.payload, 1).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(first));
        assert_eq!(out.generation, 1);
        let second = Snapshot { seq: 19, payload: "[\"line one\",\"línea dos\"]".into() };
        write(&fs, &dir, second.seq, &second.payload, 2).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(second));
        assert_eq!(out.generation, 2);
        assert_eq!(out.skipped, 0);
        // No tmp residue after a clean install.
        assert!(!fs.exists(&dir.join(TMP_FILE)));
    }

    #[test]
    fn retention_keeps_the_newest_two_generations() {
        let (_sim, fs, dir) = sim();
        for g in 1..=5u64 {
            let snap = Snapshot { seq: g * 10, payload: format!("gen-{g}") };
            write(&fs, &dir, snap.seq, &snap.payload, g).unwrap();
        }
        assert_eq!(list_generations(&fs, &dir).unwrap(), vec![4, 5]);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let (sim, fs, dir) = sim();
        write(&fs, &dir, 10, "older-good", 1).unwrap();
        write(&fs, &dir, 20, "newer-doomed", 2).unwrap();
        assert!(sim.corrupt_file(&dir.join(generation_file(2))));
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, Some(Snapshot { seq: 10, payload: "older-good".into() }));
        assert_eq!(out.generation, 1);
        assert_eq!(out.skipped, 1);
        assert_eq!(out.corrupt, vec![dir.join(generation_file(2))]);
    }

    #[test]
    fn all_generations_corrupt_reports_rather_than_lies() {
        let (sim, fs, dir) = sim();
        write(&fs, &dir, 10, "one", 1).unwrap();
        write(&fs, &dir, 20, "two", 2).unwrap();
        assert!(sim.corrupt_file(&dir.join(generation_file(1))));
        assert!(sim.corrupt_file(&dir.join(generation_file(2))));
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, None);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.corrupt.len(), 2);
    }

    #[test]
    fn generation_file_is_payload_plus_at_most_24_header_bytes() {
        let (_sim, fs, dir) = sim();
        for (g, payload) in [(1u64, String::new()), (2, "x".repeat(300)), (3, "y".repeat(70_000))] {
            let snap = Snapshot { seq: u64::MAX - g, payload };
            write(&fs, &dir, snap.seq, &snap.payload, g).unwrap();
            let len = fs.file_len(&dir.join(generation_file(g))).unwrap();
            let header = len - snap.payload.len() as u64;
            assert!(header <= 24, "generation {g}: {header} header bytes");
            assert_eq!(read_best(&fs, &dir).unwrap().snapshot, Some(snap));
        }
    }

    #[test]
    fn trailing_bytes_after_the_record_are_corruption() {
        let (_sim, fs, dir) = sim();
        write(&fs, &dir, 3, "p", 1).unwrap();
        let path = dir.join(generation_file(1));
        let mut bytes = fs.read(&path).unwrap();
        bytes.push(0);
        fs.write(&path, &bytes).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, None);
        assert_eq!(out.skipped, 1);
    }

    #[test]
    fn leftover_json_envelope_generation_is_refused_as_corrupt_and_reported() {
        // The envelope older builds wrote: a JSON object whose `crc`
        // covered only the payload.
        let (_sim, fs, dir) = sim();
        let payload = r#"["a","b"]"#;
        let crc = copycat_util::checksum::crc32(payload.as_bytes());
        let envelope =
            format!(r#"{{"version":1,"seq":2,"crc":{crc},"payload":"[\"a\",\"b\"]"}}"#);
        let path = dir.join(generation_file(1));
        fs.write(&path, envelope.as_bytes()).unwrap();
        let out = read_best(&fs, &dir).unwrap();
        assert_eq!(out.snapshot, None, "never misread as a checkpoint");
        assert_eq!(out.generation, 0);
        assert_eq!(out.skipped, 1);
        assert_eq!(out.corrupt, vec![path]);
    }
}
