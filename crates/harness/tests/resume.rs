//! Kill-and-resume: a sweep SIGKILLed mid-flight, rerun with the same
//! `--checkpoint-dir`, must finish and produce byte-identical reports to
//! a sweep that was never interrupted.
//!
//! This drives the real `experiments` binary as a child process — the
//! kill lands on a live OS process mid-sweep, exactly like a cluster
//! preemption or an OOM kill would.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ss-resume-{tag}-{}", std::process::id()))
}

fn sweep_cmd(out: &Path, ckpt: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(EXE);
    cmd.args(["table2", "--smoke", "--jobs", "1", "--no-progress", "--out"])
        .arg(out)
        .arg("--checkpoint-dir")
        .arg(ckpt);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

/// Every `*.csv` under `dir`, relative path → bytes.
fn csvs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "cache") {
                    continue; // cache layout is an implementation detail
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "csv") {
                let rel = p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&p).unwrap()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn killed_sweep_resumes_to_byte_identical_reports() {
    let root = tmp("kill");
    let _ = std::fs::remove_dir_all(&root);
    let (out_a, ckpt_a) = (root.join("out-a"), root.join("ckpt-a"));
    let (out_b, ckpt_b) = (root.join("out-b"), root.join("ckpt-b"));

    // 1. Start the sweep and SIGKILL it as soon as the result store holds
    //    the first completed cell — mid-sweep by construction (table2 has
    //    many cells and a single worker completes them one at a time).
    let mut child = sweep_cmd(&out_a, &ckpt_a, false)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns experiments");
    let store = ckpt_a.join("cache");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed_mid_sweep = false;
    loop {
        // Result files are renamed into place whole; temp files carry a
        // `.tmp.*` extension.
        let stored = std::fs::read_dir(&store).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| !e.file_name().to_string_lossy().contains('.'))
                .count()
        });
        if stored >= 1 {
            // ≥1 result on record: work is durably underway
            child.kill().expect("kills child");
            killed_mid_sweep = true;
            break;
        }
        if child.try_wait().expect("waits").is_some() {
            break; // finished before we could kill it — resume still must work
        }
        assert!(Instant::now() < deadline, "sweep never stored a cell");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.wait();

    // 2. Resume with the same checkpoint dir; it must run to completion.
    let resumed = sweep_cmd(&out_a, &ckpt_a, true)
        .output()
        .expect("resumed sweep runs");
    assert!(
        resumed.status.success(),
        "resumed sweep failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    if killed_mid_sweep {
        assert!(
            resumed_err.contains("[resume: "),
            "resume did not report stored work:\n{resumed_err}"
        );
    }

    // 3. Reference: the same sweep, never interrupted, in fresh dirs.
    let fresh = sweep_cmd(&out_b, &ckpt_b, false)
        .output()
        .expect("fresh sweep runs");
    assert!(
        fresh.status.success(),
        "fresh sweep failed: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );

    // 4. Byte-identical report text and CSV artifacts.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "resumed report text differs from uninterrupted run"
    );
    let (a, b) = (csvs(&out_a), csvs(&out_b));
    assert!(!a.is_empty(), "no CSVs written under {}", out_a.display());
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "CSV {name} differs after resume");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = Command::new(EXE)
        .args(["table2", "--smoke", "--resume"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));
}
