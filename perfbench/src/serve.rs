//! The `mempersp serve` process and a minimal HTTP/1.1 client for it.

use crate::proc::{reap, Reaped};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `mempersp serve`. Dropping it without [`Server::stop`]
/// kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Start the service over `root` on an ephemeral loopback port and
    /// wait until `/healthz` answers.
    pub fn start(bin: &Path, root: &Path, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--root")
            .arg(root)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("mempersp-server listening on http://")
            .ok_or_else(|| io::Error::other(format!("unexpected serve banner {line:?}")))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match request(&server.addr, "GET", "/healthz", "") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err(io::Error::other("server never answered /healthz"))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Drain the service through `/admin/shutdown` and reap it.
    pub fn stop(mut self) -> io::Result<Reaped> {
        let asked = request(&self.addr, "POST", "/admin/shutdown", "");
        let mut child = self.child.take().expect("server still running");
        if asked.is_err() {
            // Its standard output would never end otherwise.
            let _ = child.kill();
        }
        // The server prints a last line while draining; keep reading
        // so it never writes into a closed pipe.
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        let reaped = reap(&child)?;
        match asked {
            Ok(_) => Ok(reaped),
            Err(_) => Err(io::Error::other("server refused /admin/shutdown")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(&child);
        }
    }
}

/// One HTTP response.
#[derive(Debug)]
pub struct Resp {
    pub status: u16,
    /// The `X-Memo` header of a fold response.
    pub memo: Option<String>,
    pub body: Vec<u8>,
}

/// Send one request on a fresh connection (the service answers
/// `Connection: close`) and read the whole response.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Resp> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(120)))?;
    s.set_nodelay(true)?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(msg.as_bytes())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> io::Result<Resp> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no head"))?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut chunked, mut memo) = (false, None);
    for l in lines {
        if let Some((k, v)) = l.split_once(':') {
            let v = v.trim();
            match k.to_ascii_lowercase().as_str() {
                "transfer-encoding" => chunked = v.eq_ignore_ascii_case("chunked"),
                "x-memo" => memo = Some(v.to_string()),
                _ => {}
            }
        }
    }
    let rest = &raw[end + 4..];
    let body = if chunked {
        let mut body = Vec::with_capacity(rest.len());
        let mut i = 0;
        loop {
            let eol = rest[i..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .ok_or_else(|| bad("chunk"))?;
            let size = std::str::from_utf8(&rest[i..i + eol])
                .ok()
                .and_then(|h| usize::from_str_radix(h.trim(), 16).ok())
                .ok_or_else(|| bad("chunk size"))?;
            i += eol + 2;
            if size == 0 {
                break;
            }
            body.extend_from_slice(rest.get(i..i + size).ok_or_else(|| bad("short chunk"))?);
            i += size + 2;
        }
        body
    } else {
        rest.to_vec()
    };
    Ok(Resp { status, memo, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_length_and_chunked_responses() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nX-Memo: hit\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        assert_eq!(
            (r.status, r.memo.as_deref(), r.body.as_slice()),
            (200, Some("hit"), &b"{}"[..])
        );
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body, b"abcde");
    }
}
