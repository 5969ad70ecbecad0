//! Child processes, timed from spawn to reap, with their peak RSS.
//!
//! `std::process::Child::wait` does not return resource usage, so
//! children are reaped with `wait4(2)`, whose `rusage.ru_maxrss` is the
//! child's own peak resident set (unlike `RUSAGE_CHILDREN`, which would
//! also count the `cargo` build this benchmark runs first).

use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then `ru_maxrss`
/// (KiB) and thirteen more longs — eighteen 8-byte words in all.
#[repr(C)]
struct RUsage {
    words: [i64; 18],
}

const RU_MAXRSS_WORD: usize = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set in bytes.
    pub maxrss_bytes: u64,
}

/// Reap `child` (which must not have been waited for) and collect its
/// peak RSS.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage { words: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the sizes wait4 writes (`int` and the
        // 144-byte `struct rusage` of 64-bit Linux).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let maxrss_bytes = u64::try_from(usage.words[RU_MAXRSS_WORD]).unwrap_or(0) * 1024;
    Ok(Reaped { code, maxrss_bytes })
}

/// One finished command.
#[derive(Debug)]
pub struct Outcome {
    pub code: Option<i32>,
    /// Standard output, when captured.
    pub stdout: Vec<u8>,
    pub stderr: String,
    /// Wall time from spawn to reap.
    pub secs: f64,
    pub maxrss_bytes: u64,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    pub fn stdout_text(&self) -> String {
        String::from_utf8_lossy(&self.stdout).into_owned()
    }
}

/// Where a command's standard output goes.
#[derive(Debug, Clone, Copy)]
pub enum Stdout<'a> {
    /// A pipe this process reads into memory while the command runs.
    Capture,
    /// A file, for outputs of tens of megabytes: the command then
    /// writes into the page cache at its own pace, and its time does
    /// not depend on how a concurrent reader gets scheduled.
    File(&'a Path),
}

/// FNV-1a hash and line count of a byte string.
pub fn fnv(bytes: &[u8]) -> (u64, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (hash, bytes.iter().filter(|&&b| b == b'\n').count())
}

/// Run `cmd` to completion, its standard output going where `out`
/// says.
pub fn run(cmd: &mut Command, out: Stdout) -> io::Result<Outcome> {
    match out {
        Stdout::Capture => cmd.stdout(Stdio::piped()),
        Stdout::File(p) => cmd.stdout(Stdio::from(std::fs::File::create(p)?)),
    };
    cmd.stdin(Stdio::null()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = Vec::new();
    let read = match child.stdout.take() {
        Some(mut pipe) => pipe.read_to_end(&mut stdout).map(drop),
        None => Ok(()),
    };
    let reaped = reap(&child);
    let secs = start.elapsed().as_secs_f64();
    let stderr = err_reader.join().unwrap_or_default();
    read?;
    let reaped = reaped?;
    Ok(Outcome {
        code: reaped.code,
        stdout,
        stderr,
        secs,
        maxrss_bytes: reaped.maxrss_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_exit_code_and_rss() {
        let out = run(
            Command::new("sh").args(["-c", "echo hi; echo oops >&2; exit 3"]),
            Stdout::Capture,
        )
        .unwrap();
        assert_eq!(out.code, Some(3));
        assert_eq!(out.stdout_text(), "hi\n");
        assert_eq!(out.stderr, "oops\n");
        assert!(out.maxrss_bytes > 0);
        assert!(out.secs > 0.0);
    }

    #[test]
    fn writes_output_to_a_file() {
        let path = std::env::temp_dir().join(format!("perfbench-proc-{}", std::process::id()));
        let out = run(
            Command::new("sh").args(["-c", "echo hi; echo there"]),
            Stdout::File(&path),
        )
        .unwrap();
        assert!(out.ok() && out.stdout.is_empty());
        assert_eq!(fnv(&std::fs::read(&path).unwrap()), fnv(b"hi\nthere\n"));
        assert_eq!(fnv(b"hi\nthere\n").1, 2);
        std::fs::remove_file(path).unwrap();
    }
}
