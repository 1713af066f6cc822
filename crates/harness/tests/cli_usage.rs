//! Bad flags and flag values on the `experiments` and `trace` command
//! lines are usage errors: exit code 2 with the offending flag named on stderr,
//! never a panic.

use std::process::Command;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    let cases: [(&str, &[&str], &str); 8] = [
        (EXPERIMENTS, &["fig5", "--jobs", "x"], "--jobs"),
        (EXPERIMENTS, &["fig5", "--out"], "--out"),
        (
            EXPERIMENTS,
            &["serve", "--drain-grace-ms", "x"],
            "--drain-grace-ms",
        ),
        (EXPERIMENTS, &["fuzz", "--seeds", "x"], "--seeds"),
        (EXPERIMENTS, &["bench", "--smoke"], "--smoke"),
        (TRACE, &["crafty_like", "--cycles", "abc"], "--cycles"),
        (TRACE, &["crafty_like", "--config"], "--config"),
        (TRACE, &["crafty_like", "--every", "0"], "--every"),
    ];
    for (exe, args, flag) in cases {
        let out = Command::new(exe)
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn the binary under test");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        // The error line itself, not just the usage hint after it.
        let error = stderr.lines().next().unwrap_or_default();
        assert!(
            error.contains(flag),
            "{args:?}: error does not name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
    }
}
