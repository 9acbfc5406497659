//! Scratch directories and on-disk sizes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::report::out_dir;

/// A fresh directory under `out/tmp/`, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{}-{n}-{label}", std::process::id()));
        // A leftover of a killed run with the same process id.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of the regular files directly in `dir` (the WAL and the snapshot).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The number after `key` on the first `key number` line.
pub fn counter<'a>(lines: impl IntoIterator<Item = &'a str>, key: &str) -> Option<u64> {
    lines.into_iter().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(key))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}
