//! The `experiments bench` subcommand: a host-independent gate on how
//! much faster the production stepper is than the reference model.
//!
//! ```text
//! experiments bench [--out FILE] [--baseline FILE]
//! ```
//!
//! Each cell of a fixed (kernel × machine shape) grid builds one
//! simulator on the production stepper (default config) and one on the
//! reference model (`legacy_scan`), warms both up untimed, then steps
//! them in turn, `SLICE` committed µ-ops at a time, through the
//! measured part of the fixed length `LEN`, timing each slice. Both
//! sides see the same host conditions to within one slice, so a
//! slowdown of the host cancels out of their ratio. A rep must
//! simulate the same cycle count on both sides. The cell runs `REPS`
//! reps; its `speedup` is the median rep's ratio of production to
//! reference throughput, in simulated cycles per second of wall time.
//! The `aggregate` row is Σ cycles / Σ wall over those same median reps
//! on each side. Results land as JSON (`BENCH_sched.json` by default;
//! schema documented in EXPERIMENTS.md).
//!
//! With `--baseline FILE`, the run fails (exit 1) if any cell's speedup,
//! or the aggregate speedup when the baseline records one, fell more
//! than `MAX_REGRESS_PCT` percent below the baseline's. Ratios, not
//! absolute throughput, are compared, so the gate holds across hosts.
//! A baseline recorded at another run length is a usage error (exit 2):
//! ratios shift with run length. A *missing* baseline file skips the
//! gate with exit 0 (a fresh branch has nothing to regress against).

use ss_core::{RunLength, Simulator};
use ss_types::SimConfig;
use ss_workloads::{kernels, KernelTrace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Warm-up and measured µ-ops of every run. Shorter runs give higher
/// ratios that spread wider, so a baseline gates only runs of this
/// length.
const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 400_000,
};

/// Committed µ-ops each side runs before the other takes its turn:
/// about 100 turns per side over `LEN.measure`, each a few
/// milliseconds long.
const SLICE: u64 = 4_000;

/// Repetitions per cell; the median rep's ratio is the cell's result.
const REPS: usize = 3;

/// How far, in percent, a speedup may fall below the baseline's.
const MAX_REGRESS_PCT: f64 = 20.0;

/// One (kernel × machine shape) grid point.
struct Cell {
    name: &'static str,
    kernel: &'static str,
    rob: u32,
    iq: u32,
}

/// The fixed grid: the paper machine (ROB 192) and a doubled window
/// (ROB 384), on a dependency-chained and a mixed-integer kernel — the
/// two shapes where per-cycle scan cost dominates — plus a streaming
/// memory-bound kernel as a low-IQ-occupancy control.
const GRID: &[Cell] = &[
    Cell {
        name: "dep_chain_l2_rob192",
        kernel: "dep_chain_l2",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "mix_int_rob192",
        kernel: "mix_int",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "stream_all_miss_rob192",
        kernel: "stream_all_miss",
        rob: 192,
        iq: 60,
    },
    Cell {
        name: "dep_chain_l2_rob384",
        kernel: "dep_chain_l2",
        rob: 384,
        iq: 120,
    },
    Cell {
        name: "mix_int_rob384",
        kernel: "mix_int",
        rob: 384,
        iq: 120,
    },
];

/// Simulated cycles and the wall time they took.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    sim_cycles: u64,
    wall_ms: f64,
}

impl Sample {
    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1_000.0 / self.wall_ms.max(1e-6)
    }
}

/// The same work timed through the production stepper and through the
/// reference model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pair {
    production: Sample,
    reference: Sample,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.production.cycles_per_sec() / self.reference.cycles_per_sec().max(1e-9)
    }
}

fn kernel_spec(name: &str) -> ss_workloads::KernelSpec {
    match name {
        "dep_chain_l2" => kernels::dep_chain_l2(1),
        "mix_int" => kernels::mix_int(1),
        "stream_all_miss" => kernels::stream_all_miss(1),
        other => panic!("bench grid names unknown kernel {other}"),
    }
}

/// Short git revision of the working tree (suffixed `-dirty` when it
/// has uncommitted changes), or `unknown` outside a repo.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one rep of `cell`: the production stepper and the reference
/// model on the same kernel, stepped in alternating `SLICE`s.
fn run_rep(cell: &Cell) -> Result<Pair, String> {
    let fail = |e: ss_types::SimError| format!("{}: run failed: {e}", cell.name);
    let mut sims = [false, true].map(|legacy| {
        let cfg = SimConfig::builder()
            .issue_to_execute_delay(4)
            .sched_policy(ss_types::SchedPolicyKind::AlwaysHit)
            .banked_l1d(true)
            .rob_entries(cell.rob)
            .iq_entries(cell.iq)
            .legacy_scan(legacy)
            .build();
        Simulator::new(cfg, KernelTrace::new(kernel_spec(cell.kernel)))
    });
    let mut warm = Vec::with_capacity(2);
    for sim in &mut sims {
        warm.push(sim.try_run_committed(LEN.warmup).map_err(fail)?);
    }
    let mut end = warm.clone();
    let mut wall = [Duration::ZERO; 2];
    loop {
        let mut stepped = false;
        for (i, sim) in sims.iter_mut().enumerate() {
            let left = (warm[i].committed_uops + LEN.measure).saturating_sub(end[i].committed_uops);
            if left > 0 {
                let start = Instant::now();
                end[i] = sim.try_run_committed(left.min(SLICE)).map_err(fail)?;
                wall[i] += start.elapsed();
                stepped = true;
            }
        }
        if !stepped {
            break;
        }
    }
    let sample = |i: usize| Sample {
        sim_cycles: end[i].cycles - warm[i].cycles,
        wall_ms: wall[i].as_secs_f64() * 1_000.0,
    };
    Ok(Pair {
        production: sample(0),
        reference: sample(1),
    })
}

/// Folds one cell's reps into its result: the rep with the median
/// speedup. Every rep must simulate the same cycles on both sides,
/// because the production stepper is bit-identical to the reference
/// model.
fn median_rep(name: &str, reps: &[Pair]) -> Result<Pair, String> {
    for (i, r) in reps.iter().enumerate() {
        if r.production.sim_cycles != r.reference.sim_cycles {
            return Err(format!(
                "{name} rep {i}: production stepper simulated {} cycles, reference model {}",
                r.production.sim_cycles, r.reference.sim_cycles
            ));
        }
    }
    let mut sorted = reps.to_vec();
    sorted.sort_by(|a, b| a.speedup().total_cmp(&b.speedup()));
    sorted
        .get(sorted.len() / 2)
        .copied()
        .ok_or_else(|| format!("{name}: no reps"))
}

/// The whole grid as one sweep: Σ cycles / Σ wall on each side, over
/// the per-cell samples.
fn aggregate(cells: &[Pair]) -> Pair {
    let sum = |side: fn(&Pair) -> Sample| Sample {
        sim_cycles: cells.iter().map(|c| side(c).sim_cycles).sum(),
        wall_ms: cells.iter().map(|c| side(c).wall_ms).sum(),
    };
    Pair {
        production: sum(|p| p.production),
        reference: sum(|p| p.reference),
    }
}

fn sample_json(s: &Sample) -> String {
    format!(
        "{{\"sim_cycles\": {}, \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.1}}}",
        s.sim_cycles,
        s.wall_ms,
        s.cycles_per_sec()
    )
}

/// Renders the report document (schema `bench_sched/v2`); `results`
/// pairs up with [`GRID`].
fn report_json(results: &[Pair], aggregate: &Pair) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"bench_sched/v2\",");
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(out, "  \"unix_time\": {unix},");
    let _ = writeln!(out, "  \"warmup\": {},", LEN.warmup);
    let _ = writeln!(out, "  \"measure\": {},", LEN.measure);
    let _ = writeln!(
        out,
        "  \"aggregate\": {{\"cells\": {}, \"production\": {}, \"reference\": {}, \"speedup\": {:.3}}},",
        results.len(),
        sample_json(&aggregate.production),
        sample_json(&aggregate.reference),
        aggregate.speedup()
    );
    let _ = writeln!(out, "  \"cells\": [");
    for (i, (cell, r)) in GRID.iter().zip(results).enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", cell.name);
        let _ = writeln!(out, "      \"kernel\": \"{}\",", cell.kernel);
        let _ = writeln!(out, "      \"rob\": {},", cell.rob);
        let _ = writeln!(out, "      \"event\": {},", sample_json(&r.production));
        let _ = writeln!(out, "      \"legacy\": {},", sample_json(&r.reference));
        let _ = writeln!(out, "      \"speedup\": {:.3}", r.speedup());
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// What the gate reads out of a committed baseline document.
struct Baseline {
    len: RunLength,
    cells: Vec<(String, f64)>,
    aggregate: Option<f64>,
}

fn read_baseline(path: &Path) -> Result<Baseline, String> {
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(&e))?;
    let doc = ss_trace::json::parse(&text).map_err(|e| at(&e))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_num())
            .map(|v| v as u64)
            .ok_or_else(|| at(&format!("no `{key}`")))
    };
    let len = RunLength {
        warmup: count("warmup")?,
        measure: count("measure")?,
    };
    let mut cells = Vec::new();
    for c in doc
        .get("cells")
        .and_then(|c| c.as_arr())
        .ok_or_else(|| at(&"no `cells` array"))?
    {
        let name = c.get("name").and_then(|n| n.as_str());
        let speedup = c.get("speedup").and_then(|s| s.as_num());
        let (Some(name), Some(speedup)) = (name, speedup) else {
            return Err(at(&"cell without name or speedup"));
        };
        cells.push((name.to_string(), speedup));
    }
    let aggregate = doc
        .get("aggregate")
        .and_then(|a| a.get("speedup"))
        .and_then(|s| s.as_num());
    Ok(Baseline {
        len,
        cells,
        aggregate,
    })
}

/// Failure lines for every ratio that regressed past `MAX_REGRESS_PCT`.
fn regressions(base: &Baseline, results: &[Pair], aggregate: &Pair) -> Vec<String> {
    let check = |name: &str, now: f64, then: f64| {
        let floor = then * (1.0 - MAX_REGRESS_PCT / 100.0);
        (now < floor).then(|| {
            format!(
                "{name}: speedup {now:.2}x fell below {floor:.2}x \
                 (baseline {then:.2}x − {MAX_REGRESS_PCT}%)"
            )
        })
    };
    let mut failed = Vec::new();
    for (name, then) in &base.cells {
        match GRID.iter().position(|c| c.name == name) {
            Some(i) => failed.extend(check(name, results[i].speedup(), *then)),
            None => eprintln!("warn: baseline cell `{name}` not in current grid; skipped"),
        }
    }
    if let Some(then) = base.aggregate {
        failed.extend(check("aggregate_grid", aggregate.speedup(), then));
    }
    failed
}

fn print_row(name: &str, p: &Pair) {
    println!(
        "  {name:<24} prod {:>10.0} c/s  ref {:>10.0} c/s  speedup {:.2}x",
        p.production.cycles_per_sec(),
        p.reference.cycles_per_sec(),
        p.speedup()
    );
}

/// Entry point for `experiments bench`; returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut out_path = PathBuf::from("BENCH_sched.json");
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--out" => out_path = crate::flag_value("--out", it.next())?,
                "--baseline" => baseline_path = Some(crate::flag_value("--baseline", it.next())?),
                other => return Err(format!("unknown bench option `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        eprintln!("usage: experiments bench [--out FILE] [--baseline FILE]");
        return 2;
    }

    // Read the baseline before the run, so a mismatched one fails fast.
    // A missing baseline is not a failure: a fresh branch has nothing to
    // gate against.
    let baseline = match baseline_path {
        None => None,
        Some(path) if !path.exists() => {
            println!(
                "bench: no baseline at {} — gate skipped (commit one to enable regression gating)",
                path.display()
            );
            None
        }
        Some(path) => match read_baseline(&path) {
            Ok(b) if b.len != LEN => {
                eprintln!(
                    "error: baseline {} was recorded at {} but bench runs {}; \
                     re-record it with `experiments bench --out {}`",
                    path.display(),
                    b.len,
                    LEN,
                    path.display()
                );
                return 2;
            }
            Ok(b) => Some((path, b)),
            Err(e) => {
                eprintln!("error: baseline: {e}");
                return 1;
            }
        },
    };

    println!(
        "bench: {} cells × {} committed µ-ops (warmup {}), {REPS} reps in {SLICE}-µ-op slices",
        GRID.len(),
        LEN.measure,
        LEN.warmup
    );
    let mut results = Vec::with_capacity(GRID.len());
    for cell in GRID {
        let measured = (0..REPS)
            .map(|_| run_rep(cell))
            .collect::<Result<Vec<_>, String>>()
            .and_then(|reps| median_rep(cell.name, &reps));
        let r = match measured {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        print_row(cell.name, &r);
        results.push(r);
    }
    let agg = aggregate(&results);
    print_row("aggregate_grid", &agg);

    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, report_json(&results, &agg)) {
        eprintln!("error: writing {}: {e}", out_path.display());
        return 1;
    }
    println!("bench: wrote {}", out_path.display());

    let Some((path, base)) = baseline else {
        return 0;
    };
    let failed = regressions(&base, &results, &agg);
    for f in &failed {
        eprintln!("FAIL: {f}");
    }
    if !failed.is_empty() {
        return 1;
    }
    println!(
        "bench: all ratios within {MAX_REGRESS_PCT}% of baseline {}",
        path.display()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sim_cycles: u64, wall_ms: f64) -> Sample {
        Sample {
            sim_cycles,
            wall_ms,
        }
    }

    fn pair(cycles: u64, production_ms: f64, reference_ms: f64) -> Pair {
        Pair {
            production: sample(cycles, production_ms),
            reference: sample(cycles, reference_ms),
        }
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn aggregate_sums_cycles_and_wall_over_the_cells() {
        let cells = [pair(1_000, 2.0, 8.0), pair(3_000, 6.0, 8.0)];
        let agg = aggregate(&cells);
        assert_eq!(agg.production, sample(4_000, 8.0));
        assert_eq!(agg.reference, sample(4_000, 16.0));
        assert_eq!(agg.production.cycles_per_sec(), 500_000.0);
        assert_eq!(agg.speedup(), 2.0);
    }

    #[test]
    fn median_rep_is_the_middle_ratio() {
        let reps = [
            pair(1_000, 4.0, 12.0),
            pair(1_000, 5.0, 5.0),
            pair(1_000, 2.0, 4.0),
        ];
        assert_eq!(median_rep("c", &reps).unwrap(), reps[2]);
        assert!(median_rep("c", &[]).is_err());
    }

    #[test]
    fn cycle_mismatch_in_any_rep_is_an_error() {
        let mut bad = pair(1_000, 4.0, 8.0);
        bad.reference.sim_cycles = 1_001;
        let err = median_rep("dep_chain_l2_rob192", &[pair(1_000, 4.0, 8.0), bad]).unwrap_err();
        assert!(err.contains("dep_chain_l2_rob192 rep 1"), "{err}");
        assert!(err.contains("1000") && err.contains("1001"), "{err}");
    }

    #[test]
    fn report_reads_back_as_a_baseline() {
        let results: Vec<Pair> = (1..=GRID.len() as u64)
            .map(|i| pair(1_000 * i, 1.0, 2.0 * i as f64))
            .collect();
        let agg = aggregate(&results);
        let path = temp_file("report.json");
        std::fs::write(&path, report_json(&results, &agg)).unwrap();
        let base = read_baseline(&path).unwrap();
        assert_eq!(base.len, LEN);
        let names: Vec<&str> = base.cells.iter().map(|(n, _)| n.as_str()).collect();
        let grid: Vec<&str> = GRID.iter().map(|c| c.name).collect();
        assert_eq!(names, grid);
        for ((_, speedup), r) in base.cells.iter().zip(&results) {
            assert_eq!(*speedup, r.speedup());
        }
        assert_eq!(base.aggregate, Some(agg.speedup()));
        assert!(regressions(&base, &results, &agg).is_empty());
        // A baseline without an aggregate row gates the cells only.
        std::fs::write(
            &path,
            "{\"warmup\": 20000, \"measure\": 400000, \"cells\": []}",
        )
        .unwrap();
        assert_eq!(read_baseline(&path).unwrap().aggregate, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn regressed_ratios_fail_the_gate() {
        let results = vec![pair(1_000, 1.0, 2.0); GRID.len()];
        let base = Baseline {
            len: LEN,
            cells: vec![("mix_int_rob192".into(), 2.6), ("gone".into(), 9.0)],
            aggregate: Some(2.4),
        };
        let failed = regressions(&base, &results, &aggregate(&results));
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("mix_int_rob192:"), "{failed:?}");
        let base = Baseline {
            aggregate: Some(2.6),
            ..base
        };
        let failed = regressions(&base, &results, &aggregate(&results));
        assert!(failed[1].starts_with("aggregate_grid:"), "{failed:?}");
    }

    #[test]
    fn baseline_at_another_length_is_rejected_before_running() {
        let path = temp_file("short_baseline.json");
        std::fs::write(
            &path,
            "{\"schema\": \"bench_sched/v1\", \"warmup\": 5000, \"measure\": 60000, \
             \"cells\": [{\"name\": \"mix_int_rob192\", \"speedup\": 1.5}]}",
        )
        .unwrap();
        let out = temp_file("unwritten.json");
        let args = [
            "--baseline".to_string(),
            path.display().to_string(),
            "--out".to_string(),
            out.display().to_string(),
        ];
        assert_eq!(run_cli(&args), 2);
        assert!(!out.exists(), "a rejected baseline must stop the run");
        let _ = std::fs::remove_file(&path);
    }
}
