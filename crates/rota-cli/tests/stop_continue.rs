//! A `serve` that is stopped and continued (`kill -STOP`, `kill -CONT`)
//! keeps its connections: each connection thread blocks in a socket
//! read with a timeout, which fails with `EINTR` when the process
//! resumes, even with no signal handler installed, and a read cut short
//! that way is retried, not taken for a broken connection.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the server when the test ends, pass or fail.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sends `signal` to process `pid` with kill(1).
fn signal(pid: u32, signal: &str) {
    let status = Command::new("kill")
        .args([signal, &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {signal} {pid}");
}

/// Sends a ping on `stream` and returns the answer line.
fn ping(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("ping sent");
    let mut line = String::new();
    reader.read_line(&mut line).expect("answer read");
    line
}

#[test]
fn a_stopped_and_continued_server_keeps_its_connections() {
    let child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args(["serve", "--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut server = Server(child);
    // Held open to the end: the server must not write into a closed pipe.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner
        .split_whitespace()
        .find(|word| word.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    let mut stream = TcpStream::connect(&addr).expect("serve accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let before = ping(&mut stream, &mut reader);
    assert!(before.contains("pong"), "{before:?}");

    let pid = server.0.id();
    signal(pid, "-STOP");
    std::thread::sleep(Duration::from_millis(300));
    signal(pid, "-CONT");
    // Long enough for every connection thread's read to come back.
    std::thread::sleep(Duration::from_millis(300));

    let after = ping(&mut stream, &mut reader);
    assert!(
        after.contains("pong"),
        "same connection after CONT: {after:?}"
    );
}
