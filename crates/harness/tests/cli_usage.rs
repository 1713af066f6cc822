//! Bad flag values on the `experiments` command line are usage errors:
//! exit code 2 with the offending flag named on stderr, never a panic.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    let cases: [(&[&str], &str); 3] = [
        (&["fig5", "--jobs", "x"], "--jobs"),
        (&["fig5", "--out"], "--out"),
        (&["serve", "--drain-grace-ms", "x"], "--drain-grace-ms"),
    ];
    for (args, flag) in cases {
        let out = Command::new(EXE)
            .args(args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr does not name {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
    }
}
