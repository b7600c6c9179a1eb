//! The `--listen` TCP front end: over-long and non-UTF-8 lines are
//! rejected with an error result line and counted, and the connection
//! keeps serving the lines after them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;

use ultra_serve::line::MAX_LINE_BYTES;

/// Kills the server if a test fails before its shutdown line.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ultra-serve --listen` on an ephemeral port and returns it with
/// the bound address. Stderr is drained on a thread so flight dumps never
/// block the server.
fn start() -> (Server, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ultra-serve"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ultra-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let server = Server(child);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "server exited before listening"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split(|c: char| c == '"' || c.is_whitespace())
                .next()
                .expect("address")
                .to_owned();
        }
    };
    thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = stderr.read_to_end(&mut sink);
    });
    (server, addr)
}

#[test]
fn bad_lines_get_error_results_and_the_connection_keeps_serving() {
    let (_server, addr) = start();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut out = stream;

    let mut long = vec![b'x'; MAX_LINE_BYTES + 10];
    long.push(b'\n');
    out.write_all(&long).expect("send over-long line");
    out.write_all(b"\xff\xfe{\"id\": \"bad\"}\n")
        .expect("send non-UTF-8 line");
    out.write_all(b"{\"id\": \"tcp-job\", \"pes\": 8, \"seed\": 7, \"workload\": \"ticket\", \"rounds\": 8}\n")
        .expect("send job");

    let mut next = || {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "connection closed"
        );
        line.trim_end().to_owned()
    };
    let first = next();
    assert!(
        first.contains("\"id\": \"job-1\"")
            && first.contains("\"status\": \"error\"")
            && first.contains(&format!("line exceeds {MAX_LINE_BYTES} bytes")),
        "{first}"
    );
    let second = next();
    assert!(
        second.contains("\"id\": \"job-2\"") && second.contains("not valid UTF-8"),
        "{second}"
    );
    let third = next();
    assert!(
        third.contains("\"id\": \"tcp-job\"") && third.contains("\"status\": \"completed\""),
        "{third}"
    );

    out.write_all(b"{\"metrics\"}\n").expect("send metrics");
    let mut exposition = Vec::new();
    loop {
        let line = next();
        if line == "# EOF" {
            break;
        }
        exposition.push(line);
    }
    assert!(
        exposition
            .iter()
            .any(|l| l == "ultra_serve_protocol_errors_total 2"),
        "both rejections counted"
    );
    out.write_all(b"{\"shutdown\": true}\n")
        .expect("send shutdown");
}
