//! Scratch directories that do not outlive their test.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A fresh, empty directory under the system's temporary directory,
/// removed with everything in it when the guard is dropped — also while a
/// failing test unwinds. A test that reopens a store keeps the guard alive
/// across the reopen.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// `xmlord-<tag>-<process id>-<n>`, `n` counting this process's
    /// directories, so tests running side by side never share one.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "xmlord-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Relaxed)
        ));
        // A directory an earlier process with the same id left behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn the_directory_is_gone_after_a_panic() {
        let mut seen = None;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let dir = TempDir::new("testkit-unwind");
            std::fs::write(dir.join("wal.log"), b"bytes").unwrap();
            seen = Some(dir.to_path_buf());
            panic!("a test failing with its directory in use");
        }));
        assert!(outcome.is_err());
        let path = seen.unwrap();
        assert!(!path.exists(), "{} outlived its test", path.display());
    }

    #[test]
    fn each_guard_has_a_directory_of_its_own() {
        let (a, b) = (TempDir::new("testkit-two"), TempDir::new("testkit-two"));
        assert_ne!(&*a, &*b);
        assert!(a.is_dir() && b.is_dir());
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists() && b.is_dir());
    }
}
