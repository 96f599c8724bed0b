//! A reader that stops early (`optimatch rdf DIR | head -1`) closes the
//! binary's stdout mid-write. That must end the command quietly with the
//! status it would have returned, not with a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_not_a_panic() {
    let bin = env!("CARGO_BIN_EXE_optimatch");
    let dir = std::env::temp_dir().join(format!("optimatch-broken-pipe-{}", std::process::id()));
    let gen = Command::new(bin)
        .arg("gen")
        .arg("--out")
        .arg(&dir)
        .args(["--n", "20", "--seed", "7"])
        .output()
        .expect("run gen");
    assert!(gen.status.success(), "{gen:?}");

    // Twenty plans print megabytes of N-Triples, well past a pipe buffer,
    // so the binary is still writing when the pipe closes.
    let mut child = Command::new(bin)
        .arg("rdf")
        .arg(&dir)
        .args(["--format", "ntriples"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rdf");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read one line");
    assert!(first.ends_with(" .\n"), "{first:?}");
    drop(stdout);

    let out = child.wait_with_output().expect("wait for rdf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
