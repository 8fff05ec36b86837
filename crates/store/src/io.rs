//! The storage I/O layer: every byte the store reads or writes goes
//! through a [`StoreFs`], so the *same* WAL/snapshot/recovery code runs
//! against the real filesystem in production and against a seeded,
//! fault-injecting simulation in tests and benches.
//!
//! Two implementations:
//!
//! - [`RealFs`] — a passthrough to `std::fs`. Every method is a single
//!   delegated call; the indirection is one vtable hop on operations
//!   that end in a syscall (µs–ms), so the production path costs
//!   nothing measurable (the `recovery_under_fault` bench sweep pins
//!   this with a raw-`std::fs` comparison).
//! - [`SimFs`] — a deterministic in-memory filesystem with a seeded
//!   fault plan. It models the failure surface a disk actually has:
//!   **short writes** (a `write` persists only a prefix and errors),
//!   **torn appends** (the process dies mid-`write`; a prefix of the
//!   batch lands), **failed fsyncs** (`fsync` errors, durability does
//!   not advance), **lying fsyncs** (`fsync` reports success but the
//!   data never becomes durable — the firmware-cache lie), **post-fsync
//!   bit flips** (durable bytes rot), **partial reads**, and **ENOSPC**.
//!   [`SimFs::crash`] replaces every file's contents with its *crash
//!   image*: the durable prefix plus a seeded partial retention of the
//!   unsynced suffix (real disks persist un-fsynced pages at their
//!   whim — recovery may not rely on either outcome).
//!
//! Determinism model: a `SimFs` is a pure function of its seed, its
//! fault plan, and the sequence of operations issued against it.
//! Mutating and reading operations are numbered (the *op index*); a
//! [`FaultPlan`] arms a fault at an index, and the fault fires at the
//! first *eligible* operation at or after that index (a fsync fault
//! waits for the next fsync, and so on). Every random draw — torn-cut
//! points, flipped bits, crash retention — comes from the seeded
//! generator, so a failing injection point replays exactly.
//!
//! Rename durability is modeled as immediate (a journaling filesystem's
//! metadata guarantee); what the simulation *does* exercise is the
//! window where a renamed file's **contents** were never fsynced — a
//! lying or failed fsync on `snapshot.tmp` leaves the renamed-in
//! generation corrupt after a crash, which is exactly the case the
//! generational fallback in [`crate::snapshot`] exists for.
//!
//! The `fs-discipline` lint rule pins the boundary: outside this module
//! (and the lint/bench tooling), nothing in the workspace may touch
//! `std::fs` directly, so no future code can bypass fault injection.

use copycat_util::rng::{Rng, SeedableRng, StdRng};
use copycat_util::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open, append-only file handle.
pub trait StoreFile: Send + fmt::Debug {
    /// Append `bytes` at the end of the file.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Flush file contents to durable storage.
    fn sync_data(&mut self) -> io::Result<()>;}

/// The filesystem surface the store is allowed to use.
pub trait StoreFs: Send + Sync + fmt::Debug {
    /// Open (creating if absent) `path` for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;
    /// Read the whole file. Missing files are `ErrorKind::NotFound`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create/overwrite `path` with `bytes`, no fsync (sidecar files
    /// whose loss is tolerable).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Create/overwrite `path` with `bytes` and fsync it (the tmp half
    /// of every write-temp-rename).
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsync the directory so renames inside it survive a power cut.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Remove one file; missing is an error (callers decide tolerance).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create `dir` and any missing ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Remove `dir` and everything under it; missing is `NotFound`.
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Size of the file at `path` in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Immediate subdirectories of `dir`, sorted. Missing dir = empty.
    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Files directly inside `dir`, sorted. Missing dir = empty.
    fn list_files(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// A cheap-to-clone handle to one [`StoreFs`] implementation — the
/// value threaded through `Wal`, `SessionStore`, and the serve router.
#[derive(Clone)]
pub struct Fs(Arc<dyn StoreFs>);

impl fmt::Debug for Fs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fs({:?})", self.0)
    }
}

impl Fs {
    /// The production filesystem.
    pub fn real() -> Fs {
        Fs(Arc::new(RealFs))
    }

    /// Wrap a simulation (keep your own `Arc<SimFs>` to drive faults
    /// and crashes).
    pub fn sim(sim: Arc<SimFs>) -> Fs {
        // `StoreFs` is implemented on `Arc<SimFs>` (handles need a way
        // back to shared state), so the trait object wraps the Arc.
        Fs(Arc::new(sim))
    }

    /// The underlying implementation.
    pub fn inner(&self) -> &dyn StoreFs {
        &*self.0
    }
}

impl std::ops::Deref for Fs {
    type Target = dyn StoreFs;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

// ---------------------------------------------------------------------------
// RealFs: the std::fs passthrough.
// ---------------------------------------------------------------------------

/// The production implementation: every method is one `std::fs` call.
#[derive(Debug)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl StoreFile for RealFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl StoreFs for RealFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }

    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        list_real(dir, true)
    }

    fn list_files(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        list_real(dir, false)
    }
}

fn list_real(dir: &Path, dirs: bool) -> io::Result<Vec<PathBuf>> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out: Vec<PathBuf> = rd
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| if dirs { p.is_dir() } else { p.is_file() })
        .collect();
    out.sort();
    Ok(out)
}

// ---------------------------------------------------------------------------
// SimFs: the deterministic fault-injecting simulation.
// ---------------------------------------------------------------------------

/// The injectable fault taxonomy. Each fault fires **once**, at the
/// first eligible operation at or after its armed op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A `write` persists only a seeded prefix and reports an error.
    ShortWrite,
    /// The process dies mid-`write`: a seeded prefix of the batch
    /// lands, the call errors, and every later operation fails — the
    /// harness must [`crash`](SimFs::crash) and recover.
    TornAppend,
    /// `fsync` reports an error; durability does not advance.
    FailedFsync,
    /// `fsync` reports success but durability does not advance — the
    /// ack-then-drop lie. Only a later honest fsync (or nothing)
    /// persists the data.
    LyingFsync,
    /// `fsync` succeeds, then one seeded bit of the durable image rots.
    BitFlip,
    /// A read returns only a seeded prefix of the file.
    PartialRead,
    /// A `write` fails with "no space left on device"; nothing lands.
    Enospc,
}

impl FaultKind {
    /// Every kind, in a stable order (the sweep iterates this).
    pub const ALL: [FaultKind; 7] = [
        FaultKind::ShortWrite,
        FaultKind::TornAppend,
        FaultKind::FailedFsync,
        FaultKind::LyingFsync,
        FaultKind::BitFlip,
        FaultKind::PartialRead,
        FaultKind::Enospc,
    ];

    /// Stable lower-case name (bench tables, smoke output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ShortWrite => "short_write",
            FaultKind::TornAppend => "torn_append",
            FaultKind::FailedFsync => "failed_fsync",
            FaultKind::LyingFsync => "lying_fsync",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::PartialRead => "partial_read",
            FaultKind::Enospc => "enospc",
        }
    }

    /// Which operation category this fault can fire on.
    fn eligible(self, op: OpCat) -> bool {
        match self {
            FaultKind::ShortWrite | FaultKind::TornAppend | FaultKind::Enospc => {
                op == OpCat::Write
            }
            FaultKind::FailedFsync | FaultKind::LyingFsync | FaultKind::BitFlip => {
                op == OpCat::Sync
            }
            FaultKind::PartialRead => op == OpCat::Read,
        }
    }
}

/// One armed fault: fires at the first eligible operation whose index
/// is `>= at_op` (indices start at 1).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Operation index at which the fault arms.
    pub at_op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpCat {
    Write,
    Sync,
    Read,
}

#[derive(Debug, Default, Clone)]
struct SimFile {
    /// Contents as the running process observes them.
    visible: Vec<u8>,
    /// Prefix image guaranteed to survive a crash (last honest fsync).
    durable: Vec<u8>,
}

#[derive(Debug)]
struct SimState {
    rng: StdRng,
    files: BTreeMap<PathBuf, SimFile>,
    dirs: std::collections::BTreeSet<PathBuf>,
    plan: Vec<FaultPlan>,
    /// Names of faults that actually fired, in order.
    fired: Vec<FaultKind>,
    /// Operation counter (writes, fsyncs, reads).
    ops: u64,
    /// Set once a [`FaultKind::TornAppend`] fires: the simulated
    /// process is dead mid-write; everything fails until `crash()`.
    dead: bool,
}

/// The deterministic fault-injecting filesystem. Wrap it in an `Arc`
/// and hand [`Fs::sim`] a clone; keep your copy to drive
/// [`crash`](SimFs::crash) and inspect [`fired`](SimFs::fired).
#[derive(Debug)]
pub struct SimFs {
    state: Mutex<SimState>,
}

fn err(msg: &str) -> io::Error {
    io::Error::other(format!("simfs: {msg}"))
}

impl SimFs {
    /// A fault-free simulation (used to count a workload's ops).
    pub fn new(seed: u64) -> SimFs {
        SimFs::with_faults(seed, Vec::new())
    }

    /// A simulation with an armed fault plan.
    pub fn with_faults(seed: u64, plan: Vec<FaultPlan>) -> SimFs {
        SimFs {
            state: Mutex::new(SimState {
                rng: StdRng::seed_from_u64(seed ^ 0x51D_FAu64),
                files: BTreeMap::new(),
                dirs: std::collections::BTreeSet::new(),
                plan,
                fired: Vec::new(),
                ops: 0,
                dead: false,
            }),
        }
    }

    /// Total countable operations issued so far (the sweep's domain).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// The faults that actually fired, in firing order.
    pub fn fired(&self) -> Vec<FaultKind> {
        self.state.lock().fired.clone()
    }

    /// Whether a torn append killed the simulated process.
    pub fn dead(&self) -> bool {
        self.state.lock().dead
    }

    /// Simulate the machine dying and rebooting: every file's contents
    /// become its crash image — the durable prefix plus a seeded
    /// partial retention of whatever was written but never fsynced.
    /// Open handles from before the crash must not be used again (drop
    /// the pre-crash store/router first).
    pub fn crash(&self) {
        let mut s = self.state.lock();
        s.dead = false;
        // The fault plan describes the pre-crash run; whatever is still
        // armed dies with the process, so recovery runs fault-free.
        s.plan.clear();
        let paths: Vec<PathBuf> = s.files.keys().cloned().collect();
        for path in paths {
            // Decide retention with split borrows: draw first, then mutate.
            let (durable, visible) = {
                let f = &s.files[&path];
                (f.durable.clone(), f.visible.clone())
            };
            let image = if visible.len() > durable.len() && visible.starts_with(&durable) {
                // The unsynced suffix survives to a seeded torn cut —
                // anywhere from nothing to all of it.
                let suffix = visible.len() - durable.len();
                let keep = s.rng.gen_range(0..suffix + 1);
                let mut img = durable.clone();
                img.extend_from_slice(&visible[durable.len()..durable.len() + keep]);
                img
            } else {
                durable.clone()
            };
            let f = s.files.get_mut(&path).expect("file existed above");
            f.visible = image.clone();
            f.durable = image;
        }
    }

    /// Arm one more fault (tests composing plans incrementally).
    pub fn arm(&self, plan: FaultPlan) {
        self.state.lock().plan.push(plan);
    }

    /// Flip one seeded bit somewhere in `path`'s durable *and* visible
    /// image — out-of-band corruption for tests that rot a file at
    /// rest rather than mid-operation.
    pub fn corrupt_file(&self, path: &Path) -> bool {
        let mut s = self.state.lock();
        let Some(f) = s.files.get(path).cloned() else { return false };
        if f.durable.is_empty() && f.visible.is_empty() {
            return false;
        }
        let len = f.visible.len().max(f.durable.len());
        let byte = s.rng.gen_range(0..len);
        let bit = 1u8 << s.rng.gen_range(0..8usize);
        let f = s.files.get_mut(path).expect("checked above");
        if byte < f.visible.len() {
            f.visible[byte] ^= bit;
        }
        if byte < f.durable.len() {
            f.durable[byte] ^= bit;
        }
        true
    }

    /// Bytes currently visible at `path` (test introspection).
    pub fn visible(&self, path: &Path) -> Option<Vec<u8>> {
        self.state.lock().files.get(path).map(|f| f.visible.clone())
    }
}

impl SimState {
    /// Count one operation and pop the armed fault if it fires here.
    fn tick(&mut self, cat: OpCat) -> io::Result<Option<FaultKind>> {
        if self.dead {
            return Err(err("process dead after torn append"));
        }
        self.ops += 1;
        let ops = self.ops;
        if let Some(i) = self
            .plan
            .iter()
            .position(|p| p.at_op <= ops && p.kind.eligible(cat))
        {
            let p = self.plan.remove(i);
            self.fired.push(p.kind);
            return Ok(Some(p.kind));
        }
        Ok(None)
    }

    fn file_mut(&mut self, path: &Path) -> &mut SimFile {
        self.files.entry(path.to_path_buf()).or_default()
    }

    /// Apply one write of `bytes` to `path` under fault `fault`.
    fn apply_write(
        &mut self,
        path: &Path,
        bytes: &[u8],
        fault: Option<FaultKind>,
        truncate: bool,
    ) -> io::Result<()> {
        if truncate {
            self.file_mut(path).visible.clear();
        }
        match fault {
            None => {
                self.file_mut(path).visible.extend_from_slice(bytes);
                Ok(())
            }
            Some(FaultKind::Enospc) => Err(err("no space left on device (ENOSPC)")),
            Some(FaultKind::ShortWrite) => {
                let keep = self.rng.gen_range(0..bytes.len().max(1));
                self.file_mut(path).visible.extend_from_slice(&bytes[..keep]);
                Err(err("short write: device error mid-transfer"))
            }
            Some(FaultKind::TornAppend) => {
                let keep = self.rng.gen_range(0..bytes.len().max(1));
                self.file_mut(path).visible.extend_from_slice(&bytes[..keep]);
                self.dead = true;
                Err(err("process killed mid-write (torn append)"))
            }
            Some(other) => {
                // An armed fault of a different category can't fire on
                // a write; tick() already filtered, so this is a bug.
                Err(err(&format!("internal: {other:?} fired on a write")))
            }
        }
    }

    /// Apply one fsync of `path` under fault `fault`.
    fn apply_sync(&mut self, path: &Path, fault: Option<FaultKind>) -> io::Result<()> {
        match fault {
            None => {
                let f = self.file_mut(path);
                f.durable = f.visible.clone();
                Ok(())
            }
            Some(FaultKind::FailedFsync) => Err(err("fsync failed (EIO)")),
            Some(FaultKind::LyingFsync) => Ok(()), // acked, never persisted
            Some(FaultKind::BitFlip) => {
                let (len, _) = {
                    let f = self.file_mut(path);
                    f.durable = f.visible.clone();
                    (f.durable.len(), ())
                };
                if len > 0 {
                    let byte = self.rng.gen_range(0..len);
                    let bit = 1u8 << self.rng.gen_range(0..8usize);
                    let f = self.file_mut(path);
                    f.durable[byte] ^= bit;
                    // The rot is on the platter: the running process
                    // keeps its clean page cache (visible unchanged),
                    // the corruption surfaces after the crash.
                }
                Ok(())
            }
            Some(other) => Err(err(&format!("internal: {other:?} fired on a sync"))),
        }
    }
}

#[derive(Debug)]
struct SimHandle {
    sim: Arc<SimFs>,
    path: PathBuf,
}

impl StoreFile for SimHandle {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.sim.state.lock();
        let fault = s.tick(OpCat::Write)?;
        s.apply_write(&self.path, bytes, fault, false)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut s = self.sim.state.lock();
        let fault = s.tick(OpCat::Sync)?;
        s.apply_sync(&self.path, fault)
    }
}

/// `impl StoreFs` glue: `Fs::sim` hands out `Arc<SimFs>` directly, so
/// the trait is implemented on the `Arc` (handles need a way back to
/// the shared state).
impl StoreFs for Arc<SimFs> {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let mut s = self.state.lock();
        if s.dead {
            return Err(err("process dead after torn append"));
        }
        s.file_mut(path);
        Ok(Box::new(SimHandle { sim: Arc::clone(self), path: path.to_path_buf() }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        let fault = s.tick(OpCat::Read)?;
        let Some(f) = s.files.get(path) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "simfs: no such file"));
        };
        let content = f.visible.clone();
        match fault {
            Some(FaultKind::PartialRead) => {
                let keep = s.rng.gen_range(0..content.len().max(1));
                Ok(content[..keep].to_vec())
            }
            _ => Ok(content),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = s.tick(OpCat::Write)?;
        s.apply_write(path, bytes, fault, true)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        {
            let mut s = self.state.lock();
            let fault = s.tick(OpCat::Write)?;
            s.apply_write(path, bytes, fault, true)?;
        }
        let mut s = self.state.lock();
        let fault = s.tick(OpCat::Sync)?;
        s.apply_sync(path, fault)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.dead {
            return Err(err("process dead after torn append"));
        }
        let Some(f) = s.files.remove(from) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "simfs: rename source missing"));
        };
        s.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        // Renames are modeled metadata-durable (see module docs); the
        // directory fsync is a no-op that must still fail once dead.
        if self.state.lock().dead {
            return Err(err("process dead after torn append"));
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.dead {
            return Err(err("process dead after torn append"));
        }
        if s.files.remove(path).is_none() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "simfs: no such file"));
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.dead {
            return Err(err("process dead after torn append"));
        }
        let mut d = dir.to_path_buf();
        loop {
            s.dirs.insert(d.clone());
            match d.parent() {
                Some(p) if p != Path::new("") => d = p.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        if s.dead {
            return Err(err("process dead after torn append"));
        }
        let existed = s.dirs.contains(dir)
            || s.files.keys().any(|p| p.starts_with(dir))
            || s.dirs.iter().any(|d| d.starts_with(dir));
        if !existed {
            return Err(io::Error::new(io::ErrorKind::NotFound, "simfs: no such directory"));
        }
        s.files.retain(|p, _| !p.starts_with(dir));
        s.dirs.retain(|d| !d.starts_with(dir));
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock();
        s.files.contains_key(path) || s.dirs.contains(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        let s = self.state.lock();
        s.files
            .get(path)
            .map(|f| f.visible.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "simfs: no such file"))
    }

    fn list_dirs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock();
        let mut out: Vec<PathBuf> = s
            .dirs
            .iter()
            .filter(|d| d.parent() == Some(dir))
            .cloned()
            .collect();
        out.sort();
        Ok(out)
    }

    fn list_files(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock();
        let mut out: Vec<PathBuf> = s
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_and_sync(fs: &Fs, path: &Path, chunks: &[&[u8]], sync_after: usize) -> Vec<u8> {
        let mut f = fs.open_append(path).unwrap();
        let mut all = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            f.write_all(c).unwrap();
            all.extend_from_slice(c);
            if i + 1 == sync_after {
                f.sync_data().unwrap();
            }
        }
        all
    }

    #[test]
    fn sim_round_trips_and_crash_drops_unsynced_suffix_prefixwise() {
        let sim = Arc::new(SimFs::new(7));
        let fs = Fs::sim(Arc::clone(&sim));
        let all = write_and_sync(&fs, &p("/d/wal"), &[b"aaaa", b"bbbb", b"cccc"], 2);
        assert_eq!(fs.read(&p("/d/wal")).unwrap(), all);
        sim.crash();
        let after = fs.read(&p("/d/wal")).unwrap();
        // The synced 8 bytes survive; the torn tail is a prefix of the
        // unsynced 4.
        assert!(after.len() >= 8 && after.len() <= 12, "{}", after.len());
        assert_eq!(&after[..8], b"aaaabbbb");
        assert!(all.starts_with(&after));
    }

    #[test]
    fn sim_is_deterministic_for_a_seed() {
        let run = |seed| {
            let sim = Arc::new(SimFs::with_faults(
                seed,
                vec![FaultPlan { at_op: 2, kind: FaultKind::ShortWrite }],
            ));
            let fs = Fs::sim(Arc::clone(&sim));
            let mut f = fs.open_append(&p("/w")).unwrap();
            f.write_all(b"first-record").unwrap();
            let e = f.write_all(b"second-record").unwrap_err().to_string();
            sim.crash();
            (fs.read(&p("/w")).unwrap(), e, sim.op_count())
        };
        assert_eq!(run(41), run(41));
        // Different seed, different torn cut (with overwhelming
        // probability for these lengths; pinned seeds avoid flakes).
        assert_ne!(run(41).0, run(43).0);
    }

    #[test]
    fn lying_fsync_acks_then_drops_on_crash() {
        let sim = Arc::new(SimFs::with_faults(
            9,
            vec![FaultPlan { at_op: 1, kind: FaultKind::LyingFsync }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        f.write_all(b"doomed").unwrap();
        f.sync_data().unwrap(); // the lie: Ok, but nothing persisted
        assert_eq!(sim.fired(), vec![FaultKind::LyingFsync]);
        sim.crash();
        // Crash retention may keep a prefix (unsynced pages), but the
        // bytes were never durable — rerun crash images across seeds
        // must be allowed to be empty. With seed 9 the cut is partial.
        let img = fs.read(&p("/w")).unwrap();
        assert!(b"doomed".starts_with(img.as_slice()));
    }

    #[test]
    fn failed_fsync_errors_and_does_not_advance_durability() {
        let sim = Arc::new(SimFs::with_faults(
            5,
            vec![FaultPlan { at_op: 1, kind: FaultKind::FailedFsync }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        f.write_all(b"data").unwrap();
        assert!(f.sync_data().is_err());
        // A later honest fsync persists everything.
        f.sync_data().unwrap();
        sim.crash();
        assert_eq!(fs.read(&p("/w")).unwrap(), b"data");
    }

    #[test]
    fn bit_flip_rots_the_durable_image_only() {
        let sim = Arc::new(SimFs::with_faults(
            11,
            vec![FaultPlan { at_op: 2, kind: FaultKind::BitFlip }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        f.write_all(b"pristine-bytes").unwrap();
        f.sync_data().unwrap();
        // Pre-crash reads see the clean page cache.
        assert_eq!(fs.read(&p("/w")).unwrap(), b"pristine-bytes");
        sim.crash();
        let rotten = fs.read(&p("/w")).unwrap();
        assert_eq!(rotten.len(), b"pristine-bytes".len());
        assert_ne!(rotten, b"pristine-bytes");
        let diff: usize = rotten
            .iter()
            .zip(b"pristine-bytes".iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
    }

    #[test]
    fn torn_append_kills_the_process_until_crash() {
        let sim = Arc::new(SimFs::with_faults(
            3,
            vec![FaultPlan { at_op: 1, kind: FaultKind::TornAppend }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        assert!(f.write_all(b"abcdef").is_err());
        assert!(sim.dead());
        assert!(f.write_all(b"more").is_err());
        assert!(fs.read(&p("/w")).is_err());
        sim.crash();
        let img = fs.read(&p("/w")).unwrap();
        assert!(b"abcdef".starts_with(img.as_slice()));
    }

    #[test]
    fn enospc_persists_nothing_and_is_transient() {
        let sim = Arc::new(SimFs::with_faults(
            13,
            vec![FaultPlan { at_op: 1, kind: FaultKind::Enospc }],
        ));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        let e = f.write_all(b"wont-fit").unwrap_err();
        assert!(e.to_string().contains("ENOSPC"), "{e}");
        assert_eq!(fs.read(&p("/w")).unwrap(), b"");
        f.write_all(b"fits-now").unwrap();
        f.sync_data().unwrap();
        assert_eq!(fs.read(&p("/w")).unwrap(), b"fits-now");
    }

    #[test]
    fn partial_read_returns_a_prefix() {
        let sim = Arc::new(SimFs::new(17));
        let fs = Fs::sim(Arc::clone(&sim));
        let mut f = fs.open_append(&p("/w")).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync_data().unwrap();
        sim.arm(FaultPlan { at_op: 0, kind: FaultKind::PartialRead });
        let short = fs.read(&p("/w")).unwrap();
        assert!(short.len() < 10);
        assert!(b"0123456789".starts_with(short.as_slice()));
        // Single-shot: the next read is whole.
        assert_eq!(fs.read(&p("/w")).unwrap(), b"0123456789");
    }

    #[test]
    fn rename_and_namespace_ops_work() {
        let sim = Arc::new(SimFs::new(1));
        let fs = Fs::sim(Arc::clone(&sim));
        fs.create_dir_all(&p("/root/sess-a")).unwrap();
        fs.write(&p("/root/sess-a/name"), b"a").unwrap();
        fs.write_sync(&p("/root/sess-a/snap.tmp"), b"payload").unwrap();
        fs.rename(&p("/root/sess-a/snap.tmp"), &p("/root/sess-a/snap-1.json")).unwrap();
        fs.sync_dir(&p("/root/sess-a")).unwrap();
        assert!(fs.exists(&p("/root/sess-a/snap-1.json")));
        assert!(!fs.exists(&p("/root/sess-a/snap.tmp")));
        assert_eq!(fs.list_dirs(&p("/root")).unwrap(), vec![p("/root/sess-a")]);
        assert_eq!(
            fs.list_files(&p("/root/sess-a")).unwrap(),
            vec![p("/root/sess-a/name"), p("/root/sess-a/snap-1.json")]
        );
        assert_eq!(fs.file_len(&p("/root/sess-a/snap-1.json")).unwrap(), 7);
        sim.crash();
        // write_sync'd content survives the crash under the new name.
        assert_eq!(fs.read(&p("/root/sess-a/snap-1.json")).unwrap(), b"payload");
        fs.remove_dir_all(&p("/root/sess-a")).unwrap();
        assert!(!fs.exists(&p("/root/sess-a/name")));
        assert!(fs.remove_dir_all(&p("/root/sess-a")).is_err());
    }

    #[test]
    fn real_fs_round_trips() {
        let fs = Fs::real();
        let dir = std::env::temp_dir().join(format!(
            "copycat-io-real-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs.remove_dir_all(&dir);
        fs.create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(fs.read(&path).unwrap(), b"hello world");
        assert_eq!(fs.file_len(&path).unwrap(), 11);
        fs.write_sync(&dir.join("s.tmp"), b"snap").unwrap();
        fs.rename(&dir.join("s.tmp"), &dir.join("s.json")).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.list_files(&dir).unwrap().len(), 2);
        assert_eq!(fs.list_dirs(&dir).unwrap().len(), 0);
        assert!(fs.exists(&path));
        fs.remove_dir_all(&dir).unwrap();
        assert!(!fs.exists(&dir));
    }
}
