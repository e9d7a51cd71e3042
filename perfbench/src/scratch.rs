//! A scratch directory unique to one benchmark invocation, removed on drop.
//!
//! The name joins the process id, the wall-clock start in nanoseconds and a
//! per-process counter, so two invocations never share a directory even
//! when they run back to back with a recycled pid, and two directories
//! made by one process never collide either.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Owns a fresh directory under a base directory and deletes it (and the
/// base, once empty) when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    base: PathBuf,
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<base>/run-<pid>-<nanos>-<n>`. Fails if it already exists.
    pub fn new(base: &Path) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("run-{}-{nanos}-{n}", std::process::id()));
        std::fs::create_dir_all(base)?;
        std::fs::create_dir(&path)?;
        Ok(ScratchDir {
            base: base.to_path_buf(),
            path,
        })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only when no other invocation still uses the base.
        let _ = std::fs::remove_dir(&self.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed() {
        let base = Path::new(".bench_scratch").join(format!("unit-{}", std::process::id()));
        let a = ScratchDir::new(&base).unwrap();
        let b = ScratchDir::new(&base).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists());
        assert!(pb.exists());
        drop(b);
        assert!(!pb.exists());
        assert!(!base.exists());
    }
}
