//! `dse-serve`'s command line, exercised through the real binary: an
//! option its usage text does not list exits 2 before the server binds.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn an_unknown_option_exits_2_before_binding() {
    // An ephemeral port, so a server that wrongly starts takes no fixed one.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dse-serve"))
        .args(["--wrokers", "3", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the dse-serve binary");
    // Poll for up to 30 s: a server that ignored the option would serve
    // forever, and the test must fail rather than hang.
    let mut status = None;
    for _ in 0..600 {
        status = child.try_wait().expect("poll dse-serve");
        if status.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let Some(status) = status else {
        child.kill().expect("kill dse-serve");
        child.wait().expect("reap dse-serve");
        panic!("dse-serve --wrokers 3 started serving instead of exiting");
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read dse-serve's stderr");
    assert_eq!(status.code(), Some(2), "{stderr}");
    // The whole of stderr: no `listening` line came before the error.
    assert_eq!(stderr, "error: unknown option --wrokers\n");
}
