//! The `grinch-arena` binary renders and traces; sweeps belong to
//! `grinch-campaign run`.

use std::process::Command;

#[test]
fn run_is_an_unknown_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_grinch-arena"))
        .args(["run", "--preset", "smoke"])
        .output()
        .expect("grinch-arena runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{err}");
    assert!(
        err.contains("grinch-arena: unknown subcommand \"run\""),
        "stderr:\n{err}"
    );
}
