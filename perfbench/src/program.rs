//! Building the program under test from the checkout's sources.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The checkout's root: the working directory when it holds the
/// benchmark, else the parent of this package.
pub fn checkout_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("perfbench").join("Cargo.toml").is_file() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Build the `mempersp` binary in release mode into the target
/// directory this executable was built in, and return its path.
pub fn build() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut profile_dir = exe
        .parent()
        .ok_or_else(|| io::Error::other("no exe dir"))?
        .to_path_buf();
    if profile_dir.ends_with("deps") {
        // A test binary: <target>/<profile>/deps/perfbench-<hash>.
        profile_dir.pop();
    }
    let target = profile_dir
        .parent()
        .ok_or_else(|| io::Error::other("no target dir"))?;
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "mempersp-core",
            "--bin",
            "mempersp",
        ])
        .arg("--manifest-path")
        .arg(checkout_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "cargo build of mempersp failed: {status}"
        )));
    }
    Ok(target.join("release").join("mempersp"))
}
