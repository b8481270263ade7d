//! A server at its file-descriptor limit must not spin: `accept` keeps
//! failing while connections wait in the backlog, and the acceptor has
//! to back off between attempts instead of retrying at once. Once the
//! connections close, the server serves again.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Descriptors the server process may hold: its standard streams, the
/// listener and a few connections.
const FD_LIMIT: u32 = 24;
/// More connections than the limit leaves room for.
const CONNECTIONS: usize = 40;

/// Kills the server when the test ends, pass or fail.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// CPU time (user + system) the process has used, from `/proc`.
fn cpu_time(pid: u32, ticks_per_second: u64) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("server stat");
    // The fields after the parenthesised command name; utime and stime
    // are the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm ends") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 1000 / ticks_per_second)
}

fn clock_ticks_per_second() -> u64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(100)
}

fn ping(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"{\"op\":\"ping\"}\n")?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line)
}

#[test]
fn serve_at_its_fd_limit_backs_off_and_recovers() {
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {FD_LIMIT} && exec \"$0\" serve --addr 127.0.0.1:0 --shards 1 --nodes 2 --horizon 32"
        ))
        .arg(env!("CARGO_BIN_EXE_rota-cli"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("shell runs");
    let mut server = Server(child);
    let pid = server.0.id();
    // Held open to the end: the server must not write into a closed pipe.
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner
        .split_whitespace()
        .find(|word| word.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .trim_end_matches([',', ':', ';'])
        .to_string();

    // The kernel completes these handshakes in the listen backlog; the
    // server can accept only the first few before `accept` fails.
    let held: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("backlog takes the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let ticks = clock_ticks_per_second();
    let before = cpu_time(pid, ticks);
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_time(pid, ticks) - before;
    assert!(
        used < Duration::from_millis(200),
        "server at its fd limit used {used:?} of CPU in 1 s"
    );

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ping(&addr) {
            Ok(line) if line.contains("\"pong\"") => break,
            other => assert!(
                Instant::now() < deadline,
                "no pong after the connections closed: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
