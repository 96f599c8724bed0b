//! Virtual filesystem behind every durable-I/O site.
//!
//! The repository append protocol (DESIGN.md §9.3) and the match-stats
//! sidecar promise crash durability, but promises about what survives a
//! power cut cannot be tested against a real disk: the interesting
//! failures live *between* syscalls. This module splits the byte-level
//! I/O the stores perform from the medium it lands on:
//!
//! - [`Vfs`] / [`VfsFile`] — the five operations durable code is
//!   allowed to perform (`read_at`, `write_all`, `sync_data`,
//!   `set_len`, `rename`, plus `open`). Devlint rule OD006 keeps
//!   `crates/repo` and the stats sidecar from reaching around it to
//!   `std::fs`.
//! - [`StdFs`] — the production passthrough onto the real filesystem.
//! - [`SimFs`] — a deterministic in-memory filesystem that records a
//!   replayable mutation trace, distinguishes written-but-unsynced data
//!   from durable data, and injects scripted faults ([`FaultPlan`]:
//!   EIO, ENOSPC, short writes, read bit-flips).
//! - [`crash_images`] — the crash-point explorer: from one recorded
//!   trace it enumerates every power-loss image a crash could leave
//!   behind (every prefix cut, every torn split of the cut write, and
//!   every reordering that drops a single still-unsynced earlier
//!   write), so a test can reopen each image and assert the durability
//!   invariants. See DESIGN.md §16.
//! - [`CappedFs`] — a passthrough that fails file growth beyond a byte
//!   budget with `ENOSPC`, for exercising disk-full degradation against
//!   the real filesystem (`optimatch serve --max-repo-bytes`).

use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// `errno` for "no space left on device", stable across the Unix
/// targets this workspace builds for. Matching the raw value (instead
/// of `io::ErrorKind`) keeps injected and genuine disk-full errors
/// classified identically.
pub const ENOSPC: i32 = 28;
/// `errno` for a generic I/O error (media failure, torn DMA, …).
pub const EIO: i32 = 5;

/// A fresh "no space left on device" error, as [`SimFs`] and
/// [`CappedFs`] inject it.
pub fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC)
}

/// A fresh "input/output error", the catch-all media failure.
pub fn eio_error() -> io::Error {
    io::Error::from_raw_os_error(EIO)
}

/// Is this error disk-full? True for both real and injected `ENOSPC`.
pub fn is_disk_full(err: &io::Error) -> bool {
    err.raw_os_error() == Some(ENOSPC)
}

/// How a file is opened through a [`Vfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Existing file, read-only.
    Read,
    /// Existing file, read-write, preserved contents.
    ReadWrite,
    /// Create (or truncate) a writable file.
    Create,
}

/// An open file handle. All offsets are explicit — there is no cursor —
/// so call sites state exactly which bytes they touch and the simulated
/// filesystem can trace them.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send {
    /// Read up to `buf.len()` bytes at `offset`; returns the count
    /// actually read (short at end-of-file).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Write all of `buf` at `offset`, extending the file if needed.
    fn write_all(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Flush written data to the durable medium. On return, everything
    /// written to this file so far must survive a power cut.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate or zero-extend to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// A filesystem namespace. Implementations must be shareable across
/// threads; stores hold them as `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Open `path` in the given mode.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>>;
    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// StdFs — production passthrough
// ---------------------------------------------------------------------------

/// The real filesystem. This is the only production code in the
/// workspace allowed to touch `std::fs` for durable data (OD006).
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

/// The default `Arc`'d [`StdFs`], for call sites that want a shared
/// handle without naming the concrete type.
pub fn std_fs() -> Arc<dyn Vfs> {
    Arc::new(StdFs)
}

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.0.seek(SeekFrom::Start(offset))?;
        let mut total = 0;
        while total < buf.len() {
            match self.0.read(&mut buf[total..]) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    fn write_all(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(offset))?;
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for StdFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let file = match mode {
            OpenMode::Read => std::fs::File::open(path)?,
            OpenMode::ReadWrite => std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)?,
            OpenMode::Create => std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        };
        Ok(Box::new(StdFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// What a scripted fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with `EIO`, applying nothing.
    Eio,
    /// Fail with `ENOSPC`, applying nothing.
    Enospc,
    /// Apply only the first `k` bytes of the write, then fail with
    /// `EIO` — a torn write the caller learns about.
    ShortWrite(usize),
    /// Flip bit `i` (modulo the buffer size) of the data a read
    /// returns. The call still succeeds: silent media corruption.
    FlipBit(usize),
}

/// A deterministic fault script: each entry names the n-th operation of
/// a class (1-based, counted from the moment the plan is installed) and
/// the fault it suffers. Faults are one-shot — after firing, the entry
/// is consumed, so recovery code retrying the same operation succeeds.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Keyed by global operation index (every [`Vfs`]/[`VfsFile`] call).
    ops: BTreeMap<u64, FaultKind>,
    /// Keyed by write-class index (`write_all` + `set_len`).
    writes: BTreeMap<u64, FaultKind>,
    /// Keyed by read-class index (`read_at` + whole-file `read`).
    reads: BTreeMap<u64, FaultKind>,
    /// Keyed by sync-class index (`sync_data`).
    syncs: BTreeMap<u64, FaultKind>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fail the n-th operation of any kind (1-based).
    // A fault hook of the simulated disk, kept with `fail_write` so a
    // test can fault every operation class. devlint: allow(OD008)
    pub fn fail_op(mut self, n: u64, kind: FaultKind) -> FaultPlan {
        self.ops.insert(n, kind);
        self
    }

    /// Fail the n-th mutating operation (`write_all` or `set_len`).
    pub fn fail_write(mut self, n: u64, kind: FaultKind) -> FaultPlan {
        self.writes.insert(n, kind);
        self
    }

    /// Fault the n-th read (`read_at` or whole-file `read`).
    // A fault hook of the simulated disk. devlint: allow(OD008)
    pub fn fail_read(mut self, n: u64, kind: FaultKind) -> FaultPlan {
        self.reads.insert(n, kind);
        self
    }

    /// Fail the n-th `sync_data`.
    // A fault hook of the simulated disk. devlint: allow(OD008)
    pub fn fail_sync(mut self, n: u64, kind: FaultKind) -> FaultPlan {
        self.syncs.insert(n, kind);
        self
    }

    fn is_empty(&self) -> bool {
        self.ops.is_empty()
            && self.writes.is_empty()
            && self.reads.is_empty()
            && self.syncs.is_empty()
    }
}

// ---------------------------------------------------------------------------
// SimFs — deterministic in-memory filesystem
// ---------------------------------------------------------------------------

/// One recorded mutation, replayable onto a fresh [`SimFs`] to
/// reconstruct any crash image. Reads are not mutations and are not
/// traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `open(Create)` truncated or created the file.
    Create { path: PathBuf },
    /// `write_all` put `bytes` at `offset`.
    Write {
        path: PathBuf,
        offset: u64,
        bytes: Vec<u8>,
    },
    /// `set_len` truncated or zero-extended the file.
    SetLen { path: PathBuf, len: u64 },
    /// `sync_data` made everything written to the file durable.
    Sync { path: PathBuf },
    /// `rename` replaced `to` with `from`.
    Rename { from: PathBuf, to: PathBuf },
}

#[derive(Debug, Clone, Default)]
struct SimNode {
    /// What a reader sees now.
    data: Vec<u8>,
    /// What survives a power cut: the contents at the last
    /// `sync_data`.
    synced: Vec<u8>,
}

#[derive(Debug, Default)]
struct SimState {
    files: BTreeMap<PathBuf, SimNode>,
    trace: Vec<TraceOp>,
    plan: FaultPlan,
    /// Operation counters, reset when a plan is installed.
    ops: u64,
    writes: u64,
    reads: u64,
    syncs: u64,
}

enum OpClass {
    Read,
    Write,
    Sync,
    Other,
}

impl SimState {
    /// Count the operation and return the fault scheduled for it, if
    /// any. One-shot: a returned fault is removed from the plan.
    fn fault_for(&mut self, class: OpClass) -> Option<FaultKind> {
        self.ops += 1;
        if let Some(k) = self.plan.ops.remove(&self.ops) {
            return Some(k);
        }
        match class {
            OpClass::Read => {
                self.reads += 1;
                self.plan.reads.remove(&self.reads)
            }
            OpClass::Write => {
                self.writes += 1;
                self.plan.writes.remove(&self.writes)
            }
            OpClass::Sync => {
                self.syncs += 1;
                self.plan.syncs.remove(&self.syncs)
            }
            OpClass::Other => None,
        }
    }

    fn apply(&mut self, op: &TraceOp) {
        match op {
            TraceOp::Create { path } => {
                self.files.insert(path.clone(), SimNode::default());
            }
            TraceOp::Write {
                path,
                offset,
                bytes,
            } => {
                let node = self.files.entry(path.clone()).or_default();
                let end = *offset as usize + bytes.len();
                if node.data.len() < end {
                    node.data.resize(end, 0);
                }
                node.data[*offset as usize..end].copy_from_slice(bytes);
            }
            TraceOp::SetLen { path, len } => {
                if let Some(node) = self.files.get_mut(path) {
                    node.data.resize(*len as usize, 0);
                }
            }
            TraceOp::Sync { path } => {
                if let Some(node) = self.files.get_mut(path) {
                    node.synced = node.data.clone();
                }
            }
            TraceOp::Rename { from, to } => {
                if let Some(node) = self.files.remove(from) {
                    self.files.insert(to.clone(), node);
                }
            }
        }
    }

    fn record(&mut self, op: TraceOp) {
        self.apply(&op);
        self.trace.push(op);
    }
}

/// Deterministic in-memory filesystem. Clones share state (it is a
/// handle), so the handle a test keeps observes everything the store
/// under test does. Use [`SimFs::deep_clone`] for an independent copy.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
}

impl SimFs {
    pub fn new() -> SimFs {
        SimFs::default()
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install a fault script. Resets the operation counters so plan
    /// indices are relative to this call; replaces any previous plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.lock();
        st.plan = plan;
        st.ops = 0;
        st.writes = 0;
        st.reads = 0;
        st.syncs = 0;
    }

    /// True if every scheduled fault has fired.
    pub fn plan_exhausted(&self) -> bool {
        self.lock().plan.is_empty()
    }

    /// The mutation trace recorded since the last [`SimFs::clear_trace`].
    pub fn trace(&self) -> Vec<TraceOp> {
        self.lock().trace.clone()
    }

    pub fn clear_trace(&self) {
        self.lock().trace.clear();
    }

    /// Total operations observed since the last [`SimFs::set_plan`].
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Install a file with the given contents, already durable. Not
    /// traced — this is test setup, not store behaviour.
    pub fn install(&self, path: &Path, bytes: &[u8]) {
        self.lock().files.insert(
            path.to_path_buf(),
            SimNode {
                data: bytes.to_vec(),
                synced: bytes.to_vec(),
            },
        );
    }

    /// Delete a file out from under whoever holds the filesystem — for
    /// tests of structural-failure handling. Not traced.
    pub fn remove(&self, path: &Path) {
        self.lock().files.remove(path);
    }

    /// Current contents of `path` as a reader would see them.
    pub fn image(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|n| n.data.clone())
    }

    /// Contents of `path` that would survive a power cut right now.
    // A view of the simulated disk for fault tests: what a power cut
    // keeps, beside `image`'s what a reader sees. devlint: allow(OD008)
    pub fn durable_image(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|n| n.synced.clone())
    }

    /// Simulate power loss in place: every file reverts to its last
    /// synced contents, dropping exactly the un-fsync'd suffix of
    /// history.
    pub fn power_cut(&self) {
        let mut st = self.lock();
        for node in st.files.values_mut() {
            node.data = node.synced.clone();
        }
    }

    /// An independent copy of the current state (files and durable
    /// marks; trace and plan are not carried over).
    pub fn deep_clone(&self) -> SimFs {
        let st = self.lock();
        let fs = SimFs::new();
        fs.lock().files = st.files.clone();
        fs
    }
}

impl Vfs for SimFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        match st.fault_for(OpClass::Other) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        match mode {
            OpenMode::Read | OpenMode::ReadWrite => {
                if !st.files.contains_key(path) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("simfs: no such file: {}", path.display()),
                    ));
                }
            }
            OpenMode::Create => st.record(TraceOp::Create {
                path: path.to_path_buf(),
            }),
        }
        Ok(Box::new(SimFile {
            fs: self.clone(),
            path: path.to_path_buf(),
            writable: mode != OpenMode::Read,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.lock();
        let fault = st.fault_for(OpClass::Read);
        match fault {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        let mut data = match st.files.get(path) {
            Some(node) => node.data.clone(),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("simfs: no such file: {}", path.display()),
                ))
            }
        };
        if let Some(FaultKind::FlipBit(bit)) = fault {
            if !data.is_empty() {
                let b = bit % (data.len() * 8);
                data[b / 8] ^= 1 << (b % 8);
            }
        }
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        match st.fault_for(OpClass::Other) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        if !st.files.contains_key(from) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("simfs: no such file: {}", from.display()),
            ));
        }
        st.record(TraceOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }
}

struct SimFile {
    fs: SimFs,
    path: PathBuf,
    writable: bool,
}

impl SimFile {
    fn denied(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("simfs: read-only handle: {}", self.path.display()),
        )
    }
}

impl VfsFile for SimFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut st = self.fs.lock();
        let fault = st.fault_for(OpClass::Read);
        match fault {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        let node = match st.files.get(&self.path) {
            Some(n) => n,
            None => return Err(io::Error::new(io::ErrorKind::NotFound, "simfs: unlinked")),
        };
        let start = (offset as usize).min(node.data.len());
        let n = buf.len().min(node.data.len() - start);
        buf[..n].copy_from_slice(&node.data[start..start + n]);
        if let Some(FaultKind::FlipBit(bit)) = fault {
            if n > 0 {
                let b = bit % (n * 8);
                buf[b / 8] ^= 1 << (b % 8);
            }
        }
        Ok(n)
    }

    fn write_all(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        if !self.writable {
            return Err(self.denied());
        }
        let mut st = self.fs.lock();
        match st.fault_for(OpClass::Write) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            Some(FaultKind::ShortWrite(k)) => {
                let k = k.min(buf.len());
                if k > 0 {
                    st.record(TraceOp::Write {
                        path: self.path.clone(),
                        offset,
                        bytes: buf[..k].to_vec(),
                    });
                }
                return Err(eio_error());
            }
            _ => {}
        }
        st.record(TraceOp::Write {
            path: self.path.clone(),
            offset,
            bytes: buf.to_vec(),
        });
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut st = self.fs.lock();
        match st.fault_for(OpClass::Sync) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        st.record(TraceOp::Sync {
            path: self.path.clone(),
        });
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if !self.writable {
            return Err(self.denied());
        }
        let mut st = self.fs.lock();
        match st.fault_for(OpClass::Write) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        st.record(TraceOp::SetLen {
            path: self.path.clone(),
            len,
        });
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        let mut st = self.fs.lock();
        match st.fault_for(OpClass::Other) {
            Some(FaultKind::Eio) => return Err(eio_error()),
            Some(FaultKind::Enospc) => return Err(enospc_error()),
            _ => {}
        }
        match st.files.get(&self.path) {
            Some(n) => Ok(n.data.len() as u64),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "simfs: unlinked")),
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-point explorer
// ---------------------------------------------------------------------------

/// One possible post-crash filesystem image, with a label describing
/// which cut/tear/reorder produced it (for assertion messages).
pub struct CrashImage {
    pub label: String,
    pub fs: SimFs,
}

/// Enumerate every filesystem image a power loss during `trace` could
/// leave behind, starting from `base` (the durable state when the trace
/// began).
///
/// Three families, mirroring what real storage stacks do:
///
/// 1. **Prefix cuts** — the crash lands between operations `cut-1` and
///    `cut`; everything before persisted, nothing after did.
/// 2. **Torn writes** — the crash lands *inside* the write at the cut:
///    only its first `k` bytes persisted, for every `k`.
/// 3. **Reordering drops** — within a window not closed by
///    `sync_data`, the device may persist a later write while an
///    earlier one is still in the cache; for each cut, each single
///    earlier write with no intervening sync on its file is dropped.
///    A protocol that syncs after every write has no such window, so
///    these variants only exist when a sync is (incorrectly) skipped —
///    exactly the images that expose a missing fsync.
pub fn crash_images(base: &SimFs, trace: &[TraceOp]) -> Vec<CrashImage> {
    let replay = |upto: usize, skip: Option<usize>, partial: Option<&TraceOp>| {
        let fs = base.deep_clone();
        {
            let mut st = fs.lock();
            for (i, op) in trace[..upto].iter().enumerate() {
                if Some(i) != skip {
                    st.apply(op);
                }
            }
            if let Some(op) = partial {
                st.apply(op);
            }
            // The crash makes whatever persisted the new durable truth.
            for node in st.files.values_mut() {
                node.synced = node.data.clone();
            }
        }
        fs
    };

    let mut out = Vec::new();
    for cut in 0..=trace.len() {
        out.push(CrashImage {
            label: format!("cut {cut}/{}", trace.len()),
            fs: replay(cut, None, None),
        });
        if let Some(TraceOp::Write {
            path,
            offset,
            bytes,
        }) = trace.get(cut)
        {
            for k in 1..bytes.len() {
                let torn = TraceOp::Write {
                    path: path.clone(),
                    offset: *offset,
                    bytes: bytes[..k].to_vec(),
                };
                out.push(CrashImage {
                    label: format!("cut {cut} torn {k}/{}", bytes.len()),
                    fs: replay(cut, None, Some(&torn)),
                });
            }
        }
        for j in 0..cut.saturating_sub(1) {
            if let TraceOp::Write { path, .. } = &trace[j] {
                let synced_since = trace[j + 1..cut]
                    .iter()
                    .any(|op| matches!(op, TraceOp::Sync { path: p } if p == path));
                if !synced_since {
                    out.push(CrashImage {
                        label: format!("cut {cut} drop {j}"),
                        fs: replay(cut, Some(j), None),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// CappedFs — disk-full injection against any backing filesystem
// ---------------------------------------------------------------------------

/// Passthrough [`Vfs`] that refuses to let any file grow past
/// `cap` bytes, failing with `ENOSPC` — a deterministic stand-in for a
/// full disk that works over the real filesystem. Powers
/// `optimatch serve --max-repo-bytes`.
#[derive(Debug)]
pub struct CappedFs {
    inner: Arc<dyn Vfs>,
    cap: u64,
}

impl CappedFs {
    pub fn new(inner: Arc<dyn Vfs>, cap: u64) -> CappedFs {
        CappedFs { inner, cap }
    }
}

impl Vfs for CappedFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let file = self.inner.open(path, mode)?;
        Ok(Box::new(CappedFile {
            inner: file,
            cap: self.cap,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
}

struct CappedFile {
    inner: Box<dyn VfsFile>,
    cap: u64,
}

impl VfsFile for CappedFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_at(offset, buf)
    }

    fn write_all(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let end = offset + buf.len() as u64;
        if end > self.cap && end > self.inner.len()? {
            return Err(enospc_error());
        }
        self.inner.write_all(offset, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if len > self.cap && len > self.inner.len()? {
            return Err(enospc_error());
        }
        self.inner.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_file(fs: &SimFs, path: &Path, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs.open(path, OpenMode::ReadWrite)?;
        f.write_all(offset, bytes)
    }

    #[test]
    fn simfs_roundtrip_and_read_at() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_all(0, b"hello world").unwrap();
        assert_eq!(f.len().unwrap(), 11);
        let mut buf = [0u8; 5];
        assert_eq!(f.read_at(6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        assert_eq!(fs.read(&p("/a")).unwrap(), b"hello world");
        // Reads past the end are short, not errors.
        assert_eq!(f.read_at(100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn simfs_power_cut_drops_exactly_the_unsynced_suffix() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_all(0, b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(7, b"+volatile").unwrap();
        assert_eq!(fs.image(&p("/a")).unwrap(), b"durable+volatile");
        assert_eq!(fs.durable_image(&p("/a")).unwrap(), b"durable");
        fs.power_cut();
        // Exactly the un-fsync'd suffix is gone; the synced prefix is
        // byte-identical.
        assert_eq!(fs.image(&p("/a")).unwrap(), b"durable");
    }

    #[test]
    fn fault_plans_fire_deterministically() {
        for _ in 0..3 {
            let fs = SimFs::new();
            fs.install(&p("/a"), b"0123456789");
            fs.set_plan(
                FaultPlan::new()
                    .fail_write(2, FaultKind::Enospc)
                    .fail_sync(1, FaultKind::Eio),
            );
            // Write 1 succeeds, write 2 hits ENOSPC, write 3 succeeds
            // (faults are one-shot), sync 1 hits EIO.
            assert!(write_file(&fs, &p("/a"), 0, b"x").is_ok());
            let err = write_file(&fs, &p("/a"), 1, b"y").unwrap_err();
            assert!(is_disk_full(&err), "want ENOSPC, got {err}");
            assert!(write_file(&fs, &p("/a"), 1, b"y").is_ok());
            let mut f = fs.open(&p("/a"), OpenMode::ReadWrite).unwrap();
            let err = f.sync_data().unwrap_err();
            assert_eq!(err.raw_os_error(), Some(EIO));
            assert!(f.sync_data().is_ok());
            assert!(fs.plan_exhausted());
            // The failed write applied nothing.
            assert_eq!(fs.image(&p("/a")).unwrap(), b"xy23456789");
        }
    }

    #[test]
    fn short_write_applies_a_prefix_then_fails() {
        let fs = SimFs::new();
        fs.install(&p("/a"), b"");
        fs.set_plan(FaultPlan::new().fail_write(1, FaultKind::ShortWrite(3)));
        let err = write_file(&fs, &p("/a"), 0, b"abcdef").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert_eq!(fs.image(&p("/a")).unwrap(), b"abc");
    }

    #[test]
    fn bit_flip_corrupts_reads_silently() {
        let fs = SimFs::new();
        fs.install(&p("/a"), &[0u8; 4]);
        fs.set_plan(FaultPlan::new().fail_read(1, FaultKind::FlipBit(9)));
        let got = fs.read(&p("/a")).unwrap();
        assert_eq!(got, [0, 2, 0, 0]);
        // One-shot: the next read is clean, and the file was never
        // modified.
        assert_eq!(fs.read(&p("/a")).unwrap(), [0u8; 4]);
    }

    #[test]
    fn global_op_faults_hit_any_operation_class() {
        let fs = SimFs::new();
        fs.install(&p("/a"), b"x");
        fs.set_plan(FaultPlan::new().fail_op(2, FaultKind::Eio));
        assert!(fs.read(&p("/a")).is_ok()); // op 1
        assert!(fs.open(&p("/a"), OpenMode::Read).is_err()); // op 2
        assert!(fs.open(&p("/a"), OpenMode::Read).is_ok());
    }

    #[test]
    fn trace_records_mutations_and_replays() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a"), OpenMode::Create).unwrap();
        f.write_all(0, b"ab").unwrap();
        f.sync_data().unwrap();
        let trace = fs.trace();
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace[0], TraceOp::Create { .. }));
        assert!(matches!(trace[1], TraceOp::Write { .. }));
        assert!(matches!(trace[2], TraceOp::Sync { .. }));
        let images = crash_images(&SimFs::new(), &trace);
        // Cuts 0..=3, plus torn splits of the 2-byte write (k=1).
        assert_eq!(images.len(), 5);
        let full = &images[images.len() - 1];
        assert_eq!(full.fs.image(&p("/a")).unwrap(), b"ab");
    }

    #[test]
    fn crash_images_include_reordering_drops_only_in_unsynced_windows() {
        let path = p("/a");
        let synced = vec![
            TraceOp::Write {
                path: path.clone(),
                offset: 0,
                bytes: vec![1],
            },
            TraceOp::Sync { path: path.clone() },
            TraceOp::Write {
                path: path.clone(),
                offset: 1,
                bytes: vec![2],
            },
            TraceOp::Sync { path: path.clone() },
        ];
        let base = SimFs::new();
        base.install(&path, b"");
        let drops = |trace: &[TraceOp]| {
            crash_images(&base, trace)
                .into_iter()
                .filter(|i| i.label.contains("drop"))
                .count()
        };
        // Sync-after-every-write leaves no reordering window.
        assert_eq!(drops(&synced), 0);
        // Removing the first sync opens one: the later write can land
        // while the earlier one is dropped.
        let unsynced: Vec<TraceOp> = vec![synced[0].clone(), synced[2].clone(), synced[3].clone()];
        assert!(drops(&unsynced) > 0);
    }

    #[test]
    fn capped_fs_fails_growth_with_enospc_but_allows_rewrites() {
        let fs = SimFs::new();
        fs.install(&p("/a"), b"0123456789");
        let capped = CappedFs::new(Arc::new(fs.clone()), 10);
        let mut f = capped.open(&p("/a"), OpenMode::ReadWrite).unwrap();
        // Rewriting in place is fine even at the cap.
        assert!(f.write_all(0, b"X").is_ok());
        // Growth past the cap is disk-full.
        let err = f.write_all(8, b"abc").unwrap_err();
        assert!(is_disk_full(&err));
        assert!(f.set_len(11).is_err());
        assert!(f.set_len(4).is_ok());
        assert_eq!(fs.image(&p("/a")).unwrap(), b"X123");
    }
}
