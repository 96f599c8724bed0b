//! A counting, timing [`Vfs`] over the real filesystem. Every durable
//! byte the repository layer reads or writes, every fsync, and the time
//! spent inside those calls are tallied; with a tracer attached each
//! call is also recorded as a `repo.io` span under the caller's current
//! span, so a layer's self time can exclude its storage I/O.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optimatch_repo::vfs::{OpenMode, StdFs, Vfs, VfsFile};

use crate::trace::Tracer;

/// Totals since construction (or the last [`CountingFs::take`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes passed to writes.
    pub bytes_written: u64,
    /// `sync_data` calls.
    pub syncs: u64,
    /// Nanoseconds spent inside VFS calls.
    pub io_ns: u64,
}

#[derive(Debug, Default)]
struct Shared {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
    io_ns: AtomicU64,
    parent: AtomicU64,
    request: AtomicU64,
    tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// Time one call, tally its duration, and record it as a span.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = match &self.tracer {
            Some(tracer) => tracer.span(
                "repo.io",
                Some(self.parent.load(Ordering::SeqCst)),
                self.request.load(Ordering::SeqCst),
                |_| f(),
            ),
            None => f(),
        };
        self.io_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
        out
    }
}

/// The counting filesystem. Clones share one set of counters.
#[derive(Debug, Clone, Default)]
pub struct CountingFs {
    shared: Arc<Shared>,
}

impl CountingFs {
    /// A counting filesystem; `tracer` (if any) receives `repo.io` spans.
    pub fn new(tracer: Option<Arc<Tracer>>) -> CountingFs {
        CountingFs {
            shared: Arc::new(Shared {
                tracer,
                ..Shared::default()
            }),
        }
    }

    /// Parent later `repo.io` spans under span `parent` of `request`.
    pub fn set_parent(&self, parent: u64, request: u64) {
        self.shared.parent.store(parent, Ordering::SeqCst);
        self.shared.request.store(request, Ordering::SeqCst);
    }

    /// Read and reset the counters.
    pub fn take(&self) -> IoCounts {
        let s = &self.shared;
        IoCounts {
            bytes_read: s.bytes_read.swap(0, Ordering::SeqCst),
            bytes_written: s.bytes_written.swap(0, Ordering::SeqCst),
            syncs: s.syncs.swap(0, Ordering::SeqCst),
            io_ns: s.io_ns.swap(0, Ordering::SeqCst),
        }
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    shared: Arc<Shared>,
}

impl VfsFile for CountingFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.shared.timed(|| self.inner.read_at(offset, buf))?;
        self.shared.bytes_read.fetch_add(n as u64, Ordering::SeqCst);
        Ok(n)
    }

    fn write_all(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.shared.timed(|| self.inner.write_all(offset, buf))?;
        self.shared
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.shared.timed(|| self.inner.sync_data())?;
        self.shared.syncs.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.shared.timed(|| self.inner.set_len(len))
    }

    fn len(&mut self) -> io::Result<u64> {
        self.shared.timed(|| self.inner.len())
    }
}

impl Vfs for CountingFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.shared.timed(|| StdFs.open(path, mode))?;
        Ok(Box::new(CountingFile {
            inner,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.shared.timed(|| StdFs.read(path))?;
        self.shared
            .bytes_read
            .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.timed(|| StdFs.rename(from, to))
    }
}
