//! The result store: one content-addressed directory of finished
//! simulation results, shared by sweeps ([`crate::Session`]) and
//! `experiments serve`.
//!
//! * **Key.** The canonical [`RunRequest`](ss_core::RunRequest) text of
//!   the run, e.g. `src=bench:fp_compute@0xb5 cfg=SpecSched_4
//!   len=w20000m150000` — the same text a client sends to the server, so
//!   a sweep's results answer served requests and vice versa.
//! * **File.** `DIR/{fnv1a64(key):016x}`, an [`ss_snapshot`] container
//!   whose fingerprint is [`STORE_FORMAT`] and whose two sections hold
//!   the key text and the [`Persist`] encoding of [`SimStats`].
//! * **Atomicity.** Writes go through [`ss_snapshot::write_atomic`], so a
//!   result file under its final name is always whole: the file *is* the
//!   completion record, and counting a killed sweep's finished cells is a
//!   directory listing.
//! * **Stale vs corrupt.** Damaged bytes fail the container checksum and
//!   are quarantined to `<name>.corrupt` ([`Rejection::Quarantined`]).
//!   A file from another store format, or one whose key section names a
//!   different request (a hash collision or a forged entry), is deleted
//!   ([`Rejection::Stale`]). Either way the caller re-simulates.

use ss_snapshot::{Section, Snapshot, SnapshotError};
use ss_types::persist::{fnv1a64, Persist, Reader, Writer};
use ss_types::SimStats;
use std::path::PathBuf;

/// Container fingerprint of every result file. Bump it whenever the
/// simulator's behaviour, the key grammar or the [`SimStats`] field set
/// changes, so results written by an older build read as stale misses.
pub const STORE_FORMAT: u64 = 0x5353_2d72_6573_0001;

/// Section holding the canonical request text.
const SEC_KEY: u32 = 1;
/// Section holding the [`Persist`]-encoded statistics.
const SEC_STATS: u32 = 2;

/// Why [`ResultStore::get`] did not serve an entry on record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// A stale entry (other store format or other key); it was deleted.
    Stale(String),
    /// Damaged bytes; the file was moved to `<name>.corrupt`.
    Quarantined(String),
}

/// A directory of results keyed by canonical request text.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens the store at `dir`, creating the directory if needed.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The file a key's result lives in.
    pub(crate) fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}", fnv1a64(key.as_bytes())))
    }

    /// Looks up the result for `key`: `Ok(None)` when none is on record.
    pub fn get(&self, key: &str) -> Result<Option<SimStats>, Rejection> {
        let path = self.path(key);
        let snap = match ss_snapshot::read_verified(&path) {
            Ok(snap) => snap,
            Err(SnapshotError::Io(_)) => return Ok(None),
            Err(e) => return Err(Rejection::Quarantined(format!("{}: {e}", path.display()))),
        };
        let why = if snap.config_fingerprint != STORE_FORMAT {
            format!("store format {:016x}", snap.config_fingerprint)
        } else if snap.section(SEC_KEY) != Some(key.as_bytes()) {
            "entry for another request".to_string()
        } else {
            let mut r = Reader::new(snap.section(SEC_STATS).unwrap_or_default());
            match SimStats::load(&mut r) {
                Ok(stats) if r.is_finished() => return Ok(Some(stats)),
                _ => "undecodable statistics".to_string(),
            }
        };
        let _ = std::fs::remove_file(&path);
        Err(Rejection::Stale(format!(
            "{}: {why} (stale entry)",
            path.display()
        )))
    }

    /// Records the result for `key`, atomically replacing any older one.
    pub fn put(&self, key: &str, stats: &SimStats) -> Result<(), SnapshotError> {
        let mut w = Writer::new();
        stats.save(&mut w);
        let sections = vec![
            Section {
                tag: SEC_KEY,
                bytes: key.as_bytes().to_vec(),
            },
            Section {
                tag: SEC_STATS,
                bytes: w.into_bytes(),
            },
        ];
        ss_snapshot::write_atomic(&self.path(key), &Snapshot::new(STORE_FORMAT, sections))
    }

    /// Results on record: files named by a bare key hash (quarantined
    /// and in-flight temp files carry an extension and are not counted).
    pub fn count(&self) -> usize {
        let entries = std::fs::read_dir(&self.dir).into_iter().flatten().flatten();
        entries.filter(|e| e.file_name().len() == 16).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{self, NamedConfig};
    use crate::serve::{stats_to_wire, ServeOptions, Server};
    use crate::session::{Session, WORKLOAD_SEED};
    use ss_core::{RunLength, RunRequest};
    use std::io::{BufRead, BufReader, Write};
    use std::path::Path;

    const LEN: RunLength = RunLength {
        warmup: 1000,
        measure: 5000,
    };

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn request(cfg: &NamedConfig) -> RunRequest {
        RunRequest::bench("fp_compute", WORKLOAD_SEED)
            .config(cfg.spec)
            .length(LEN)
    }

    /// Runs `cfg × fp_compute` in a fresh session over `dir`.
    fn run(dir: &Path, cfg: &NamedConfig) -> (Session, SimStats) {
        let mut sess = Session::new(LEN, Some(dir.to_path_buf()));
        let bench = ss_workloads::benchmark("fp_compute").unwrap();
        let stats = sess.try_run(cfg, bench).expect("runs");
        (sess, stats)
    }

    /// Runs `Baseline_0 × fp_compute` into a fresh store, lets `damage`
    /// rewrite the stored file, then reruns the cell in a new session.
    /// Returns `(simulated, rejected, quarantined)` of the rerun and the
    /// store's directory listing afterwards.
    fn rerun_after(tag: &str, damage: impl FnOnce(&Path)) -> ((u64, u64, u64), Vec<String>) {
        let dir = tmp(tag);
        let cfg = configs::baseline(0);
        let (_, first) = run(&dir, &cfg);
        damage(
            &ResultStore::open(&dir)
                .unwrap()
                .path(&request(&cfg).to_string()),
        );
        let (sess, again) = run(&dir, &cfg);
        assert_eq!(first, again, "re-simulation reproduces the result");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let _ = std::fs::remove_dir_all(dir);
        let counters = (sess.simulated, sess.cache_rejected, sess.cache_quarantined);
        (counters, names)
    }

    #[test]
    fn disk_round_trip_serves_the_second_session() {
        let (counters, names) = rerun_after("roundtrip", |_| {});
        assert_eq!(counters, (0, 0, 0), "served from disk");
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn forged_key_section_is_rejected_and_resimulated() {
        // Same file name, valid container, but the key section names
        // another request (a renamed variant or a hash collision).
        let (counters, names) = rerun_after("forged", |path| {
            let mut snap = ss_snapshot::read_verified(path).unwrap();
            snap.sections[0].bytes = request(&configs::baseline(9)).to_string().into_bytes();
            ss_snapshot::write_atomic(path, &snap).unwrap();
        });
        assert_eq!(counters, (1, 1, 0), "re-simulated, counted as stale");
        assert_eq!(names.len(), 1, "the fresh result replaced the forgery");
    }

    #[test]
    fn other_store_format_is_rejected_not_quarantined() {
        let (counters, names) = rerun_after("format", |path| {
            let mut snap = ss_snapshot::read_verified(path).unwrap();
            snap.config_fingerprint = STORE_FORMAT - 1;
            ss_snapshot::write_atomic(path, &snap).unwrap();
        });
        assert_eq!(counters, (1, 1, 0), "an older format is stale, not damage");
        assert!(!names.iter().any(|n| n.ends_with(".corrupt")));
    }

    #[test]
    fn damaged_entry_is_quarantined_and_resimulated() {
        let (counters, names) = rerun_after("damaged", |path| {
            let mut bytes = std::fs::read(path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x5A;
            std::fs::write(path, bytes).unwrap();
        });
        assert_eq!(counters, (1, 0, 1), "damage is quarantined, not stale");
        let corrupt = names.iter().filter(|n| n.ends_with(".corrupt"));
        assert_eq!(corrupt.count(), 1, "evidence kept as <name>.corrupt");
    }

    #[test]
    fn custom_config_cell_stays_in_memory() {
        let dir = tmp("custom");
        let mut custom = configs::baseline(0);
        custom.name = "Renamed".to_string();
        custom.config.rob_entries = 96;
        let (_, a) = run(&dir, &custom);
        assert_eq!(ResultStore::open(&dir).unwrap().count(), 0, "never written");
        let (sess, b) = run(&dir, &custom);
        assert_eq!(sess.simulated, 1, "a new session re-simulates it");
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_results_answer_served_requests() {
        let dir = tmp("agree");
        let cfg = configs::spec_sched(4, true);
        let (_, stats) = run(&dir.join("cache"), &cfg);
        assert_eq!(ResultStore::open(dir.join("cache")).unwrap().count(), 1);
        let server = Server::start(ServeOptions {
            socket: dir.join("s.sock"),
            jobs: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .expect("server starts");
        let mut c = std::os::unix::net::UnixStream::connect(server.socket()).unwrap();
        c.write_all(format!("run a {}\n", request(&cfg)).as_bytes())
            .unwrap();
        let mut lines = BufReader::new(c.try_clone().unwrap()).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "ack a cached");
        let done = lines.next().unwrap().unwrap();
        assert_eq!(done, format!("done a {}", stats_to_wire(&stats)));
        drop(c);
        server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
