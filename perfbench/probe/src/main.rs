//! Layer probes and reference runs for the `perfbench` benchmark.
//!
//! `perfbench/run.py` drives every end-to-end number through the
//! repository's own `experiments` binary. This binary covers the part
//! that needs the library: timing calls into each layer's public
//! functions for the traced run, and computing the reference outputs
//! `run.py` checks the CLI and the server against.
//!
//! ```text
//! perfbench-probe layers --dir DIR PROG...   per-layer probe suite (traced)
//! perfbench-probe reference                  stdin: request texts, one a line
//! perfbench-probe snap                       stdin: `<path> <request text>` lines
//! perfbench-probe rvrows --len L --prog P CONFIG...
//! perfbench-probe cells --exp ID --len L     solo wall time of each sweep cell
//! ```
//!
//! Output is one JSON object a line, except `reference` and `rvrows`,
//! which print exactly what `experiments run --req` and `experiments
//! rvrun` print for the same work, so `run.py` compares text.

use ss_bpred::Tage;
use ss_core::{RunLength, RunRequest, Simulator};
use ss_frontend::{ProgramSpec, RvTraceSource};
use ss_harness::serve::stats_to_wire;
use ss_harness::session::WORKLOAD_SEED;
use ss_mem::MemoryHierarchy;
use ss_sched::SchedEngine;
use ss_types::{Addr, ConfigSpec, Cycle, OpClass, Pc, PredictorConfig, SimStats};
use ss_workloads::{kernels, KernelTrace, TraceSource};
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kernels whose per-cycle cost the core probe reports: one per regime
/// the paper sweep spans (dependence chains, integer mix, streaming
/// misses, pointer chasing, branchy code).
const KERNELS: [&str; 5] = [
    "dep_chain_l2",
    "mix_int",
    "stream_all_miss",
    "ptr_chase_big",
    "crafty_like",
];

/// The `--quick` run length of `experiments`, so probe cells match the
/// paper sweep's cells.
const QUICK: RunLength = RunLength {
    warmup: 20_000,
    measure: 150_000,
};

/// Configuration every core probe runs under.
const CORE_CONFIG: &str = "SpecSched_4";

/// Timed repetitions per probe; the median is reported.
const REPS: usize = 3;

/// µ-ops drawn from each trace source by the stream probes.
const STREAM_UOPS: usize = 400_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("layers") => layers(&args[1..]),
        Some("reference") => reference(),
        Some("snap") => snap(),
        Some("rvrows") => rvrows(&args[1..]),
        Some("cells") => cells(&args[1..]),
        _ => Err("usage: perfbench-probe layers|reference|snap|rvrows|cells ...".to_string()),
    };
    if let Err(msg) = code {
        eprintln!("perfbench-probe: {msg}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and request id, kept in memory and
// written at exit.
// ---------------------------------------------------------------------

struct Span {
    name: String,
    rid: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    fn span<R>(
        &mut self,
        name: &str,
        rid: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            rid: rid.to_string(),
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = self.t0.elapsed();
        self.spans[id].end = end;
        (r, end - self.spans[id].start)
    }

    fn write(&self, out: &mut impl Write) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{},"id":{id},"parent":{parent},"rid":{},"start_ns":{},"end_ns":{}}}"#,
                json_str(&s.name),
                json_str(&s.rid),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn metric(name: &str, value: f64, unit: &str) {
    println!(
        r#"{{"metric":{},"value":{value},"unit":{}}}"#,
        json_str(name),
        json_str(unit)
    );
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn spec(name: &str) -> Result<ConfigSpec, String> {
    name.parse::<ConfigSpec>().map_err(|e| e.to_string())
}

fn run(req: RunRequest) -> Result<SimStats, String> {
    req.execute().map(|o| o.stats).map_err(|e| e.to_string())
}

fn kernel_trace(name: &str) -> Result<KernelTrace, String> {
    let b = kernels::benchmark(name).ok_or_else(|| format!("unknown kernel {name}"))?;
    Ok(KernelTrace::new((b.build)(WORKLOAD_SEED)))
}

/// Times `REPS` runs of one request, checks that they agree exactly, and
/// returns the median seconds and the statistics.
fn timed_cell(
    tr: &mut Tracer,
    span: &str,
    rid: &str,
    make: impl Fn() -> RunRequest,
) -> Result<(f64, SimStats), String> {
    let mut secs = Vec::with_capacity(REPS);
    let mut first: Option<SimStats> = None;
    for _ in 0..REPS {
        let (stats, d) = tr.span(span, rid, |_| run(make()));
        let stats = stats?;
        if let Some(f) = &first {
            if stats_to_wire(f) != stats_to_wire(&stats) {
                return Err(format!("{rid}: statistics differ between repetitions"));
            }
        } else {
            first = Some(stats);
        }
        secs.push(d.as_secs_f64());
    }
    Ok((median(secs), first.expect("REPS is nonzero")))
}

// ---------------------------------------------------------------------
// `layers`: the per-layer probe suite.
// ---------------------------------------------------------------------

fn layers(args: &[String]) -> Result<(), String> {
    let mut dir: Option<PathBuf> = None;
    let mut progs: Vec<ProgramSpec> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = it.next().map(PathBuf::from),
            p => progs.push(p.parse::<ProgramSpec>()?),
        }
    }
    let dir = dir.ok_or("layers needs --dir")?;
    if progs.is_empty() {
        return Err("layers needs at least one rv: program".to_string());
    }
    let core = spec(CORE_CONFIG)?;
    let mut tr = Tracer::new();
    let mut cells: Vec<SimStats> = Vec::new();

    // Core stepper on the paper sweep's kernels.
    for k in KERNELS {
        let rid = format!("bench:{k}@{WORKLOAD_SEED:#x}");
        let (secs, stats) = timed_cell(&mut tr, "core.execute", &rid, || {
            RunRequest::bench(k, WORKLOAD_SEED)
                .config(core)
                .length(QUICK)
        })?;
        metric(
            &format!("core.ns_per_cycle.{k}"),
            secs * 1e9 / stats.cycles.max(1) as f64,
            "ns",
        );
        println!(
            r#"{{"cell":{},"stats":{}}}"#,
            json_str(&format!("{rid} {core} {QUICK}")),
            json_str(&stats_to_wire(&stats))
        );
        cells.push(stats);
    }

    // Core stepper and oracle on the real programs.
    let rv_len = RunLength {
        warmup: 10_000,
        measure: 100_000,
    };
    let (mut plain, mut checked) = (0.0, 0.0);
    for p in &progs {
        let rid = p.to_string();
        let name = match p {
            ProgramSpec::Suite { name, .. } => name.clone(),
            other => return Err(format!("{other}: only suite programs are probed")),
        };
        let (secs, stats) = timed_cell(&mut tr, "core.execute", &rid, || {
            RunRequest::program(p.clone()).config(core).length(rv_len)
        })?;
        metric(
            &format!("core.ns_per_uop.rv.{name}"),
            secs * 1e9 / (rv_len.warmup + rv_len.measure) as f64,
            "ns",
        );
        let (csecs, cstats) = timed_cell(&mut tr, "oracle.checked_execute", &rid, || {
            RunRequest::program(p.clone())
                .config(core)
                .length(rv_len)
                .checked(true)
        })?;
        if stats_to_wire(&cstats) != stats_to_wire(&stats) {
            return Err(format!("{rid}: the oracle changed the statistics"));
        }
        plain += secs;
        checked += csecs;
        cells.push(stats);
    }
    metric("oracle.check_overhead", checked / plain - 1.0, "ratio");

    // The runner's fixed cost: a request of about a thousand µ-ops.
    let tiny = RunLength {
        warmup: 100,
        measure: 1_000,
    };
    let mut us = Vec::new();
    for _ in 0..40 {
        let (r, d) = tr.span("runner.execute", "tiny", |_| {
            run(RunRequest::bench("mix_int", WORKLOAD_SEED)
                .config(core)
                .length(tiny))
        });
        r?;
        us.push(d.as_secs_f64() * 1e6);
    }
    metric("runner.tiny_run_us", median(us), "us");

    // Trace sources, and the branch / load streams they feed the
    // predictor, the memory hierarchy and the wakeup engine.
    let mut branches: Vec<(Pc, bool)> = Vec::new();
    let mut loads: Vec<(Pc, Addr)> = Vec::new();
    let mut ns = Vec::new();
    for k in KERNELS {
        let mut t = kernel_trace(k)?;
        let (_, d) = tr.span("workloads.next_uop", k, |_| {
            for _ in 0..STREAM_UOPS {
                black_box(t.next_uop());
            }
        });
        ns.push(d.as_nanos() as f64 / STREAM_UOPS as f64);
        let mut t = kernel_trace(k)?;
        for _ in 0..STREAM_UOPS / 4 {
            let u = t.next_uop();
            if let Some(b) = u.branch {
                branches.push((u.pc, b.taken));
            }
            if u.class == OpClass::Load {
                if let Some(m) = u.mem {
                    loads.push((u.pc, m.addr));
                }
            }
        }
    }
    metric("workloads.next_uop_ns", median(ns), "ns");

    let mut ns = Vec::new();
    for p in &progs {
        let prog = p.resolve()?;
        let mut t = RvTraceSource::new(prog);
        let (_, d) = tr.span("frontend.next_uop", &p.to_string(), |_| {
            for _ in 0..STREAM_UOPS {
                black_box(t.next_uop());
            }
        });
        ns.push(d.as_nanos() as f64 / STREAM_UOPS as f64);
    }
    metric("frontend.next_uop_ns", median(ns), "ns");

    let mut ns = Vec::new();
    for _ in 0..REPS {
        let mut tage = Tage::new(&PredictorConfig::default());
        let (_, d) = tr.span("bpred.tage", "kernels", |_| {
            for &(pc, taken) in &branches {
                let (p, meta) = tage.predict(pc);
                tage.push_history(taken, pc);
                tage.update(taken, &meta);
                black_box(p);
            }
        });
        ns.push(d.as_nanos() as f64 / branches.len().max(1) as f64);
    }
    metric("bpred.tage_ns_per_branch", median(ns), "ns");

    let mut ns = Vec::new();
    let mut hits: Vec<bool> = Vec::new();
    for _ in 0..REPS {
        let mut mem = MemoryHierarchy::new(&core.config());
        hits.clear();
        let (_, d) = tr.span("mem.load", "kernels", |_| {
            for (i, &(pc, addr)) in loads.iter().enumerate() {
                let r = mem.load(pc, addr, Cycle::new(3 * i as u64), false);
                hits.push(black_box(r).l1_hit());
            }
        });
        ns.push(d.as_nanos() as f64 / loads.len().max(1) as f64);
    }
    metric("mem.load_ns", median(ns), "ns");

    // The full wakeup policy (filter + criticality) does the most work
    // per decision; it is trained with the hit/miss outcomes above.
    let combined = spec("SpecSched_4_Combined")?.config();
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let mut engine = SchedEngine::new(&combined);
        let (_, d) = tr.span("sched.decide", "kernels", |_| {
            for (&(pc, _), &hit) in loads.iter().zip(&hits) {
                black_box(engine.decide(pc));
                engine.on_load_outcome(hit);
                engine.on_load_commit(pc, hit);
            }
        });
        ns.push(d.as_nanos() as f64 / loads.len().max(1) as f64);
    }
    metric("sched.decide_ns", median(ns), "ns");

    snapshot_probe(&mut tr, &dir, core)?;

    // Simulated-machine counts over every probed cell (exact).
    let sum = |f: fn(&SimStats) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let kuops = sum(|s| s.committed_uops) / 1000.0;
    let ln_ipc: f64 = cells.iter().map(|s| s.ipc().ln()).sum();
    metric("sim.cycles", sum(|s| s.cycles), "count");
    metric("sim.ipc_gmean", (ln_ipc / cells.len() as f64).exp(), "ipc");
    metric(
        "sim.replays_per_kuop",
        sum(|s| s.replayed_total()) / kuops,
        "1/kuop",
    );
    metric(
        "sim.bank_delayed_per_kuop",
        sum(|s| s.bank_delayed_loads) / kuops,
        "1/kuop",
    );
    metric(
        "sim.branch_mpki",
        sum(|s| s.cond_mispredicts) / kuops,
        "1/kuop",
    );
    metric(
        "sim.wrong_path_per_kuop",
        sum(|s| s.wrong_path_issued) / kuops,
        "1/kuop",
    );

    let stdout = std::io::stdout();
    tr.write(&mut stdout.lock());
    Ok(())
}

/// Capture, encode, write, read and restore of one warm simulator.
fn snapshot_probe(tr: &mut Tracer, dir: &Path, core: ConfigSpec) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("probe.snap");
    let mut sim = Simulator::new(core.config(), kernel_trace("mix_int")?);
    sim.try_run_committed(QUICK.warmup)
        .map_err(|e| e.to_string())?;
    let (mut capture, mut write, mut read, mut restore) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0usize;
    for _ in 0..5 {
        let (snap, d) = tr.span("snapshot.capture", "mix_int", |_| sim.capture());
        capture.push(d.as_secs_f64() * 1e3);
        bytes = snap.to_bytes().len();
        let (r, d) = tr.span("snapshot.write", "mix_int", |_| {
            ss_snapshot::write_atomic(&path, &snap)
        });
        r.map_err(|e| e.to_string())?;
        write.push(d.as_secs_f64() * 1e3);
        let (r, d) = tr.span("snapshot.read", "mix_int", |_| {
            ss_snapshot::read_verified(&path)
        });
        let back = r.map_err(|e| e.to_string())?;
        read.push(d.as_secs_f64() * 1e3);
        let mut fresh = Simulator::new(core.config(), kernel_trace("mix_int")?);
        let (r, d) = tr.span("snapshot.restore", "mix_int", |_| fresh.restore(&back));
        r.map_err(|e| e.to_string())?;
        restore.push(d.as_secs_f64() * 1e3);
        if fresh.stats() != sim.stats() {
            return Err("restored simulator disagrees with the captured one".to_string());
        }
    }
    let _ = std::fs::remove_file(&path);
    metric("snapshot.capture_ms", median(capture), "ms");
    metric("snapshot.restore_ms", median(restore), "ms");
    metric("snapshot.bytes", bytes as f64, "bytes");
    metric("snapshot.write_ms", median(write), "ms");
    metric("snapshot.read_ms", median(read), "ms");
    Ok(())
}

// ---------------------------------------------------------------------
// References and set-up helpers.
// ---------------------------------------------------------------------

/// What `experiments run --req` prints for each request text on stdin.
fn reference() -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let req: RunRequest = line.parse().map_err(|e| format!("{e}"))?;
        let reply = match req.execute() {
            Ok(o) => format!("done offline {}", stats_to_wire(&o.stats)),
            Err(e) => format!("err offline {e}"),
        };
        writeln!(out, "{reply}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs each `<path> <request text>` line's request to the end of its
/// warmup and writes the warm snapshot to `<path>`.
fn snap() -> Result<(), String> {
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (path, text) = line
            .split_once(' ')
            .ok_or_else(|| format!("snap: `{line}` is not `<path> <request>`"))?;
        let req: RunRequest = text.parse().map_err(|e| format!("{e}"))?;
        let outcome = req.capture_warm().execute().map_err(|e| e.to_string())?;
        let snap = outcome.snapshot.ok_or("snap: run produced no snapshot")?;
        ss_snapshot::write_atomic(Path::new(path), &snap).map_err(|e| e.to_string())?;
        println!(r#"{{"snap":{}}}"#, json_str(path));
    }
    Ok(())
}

/// The result rows `experiments rvrun` prints for one program, computed
/// cell by cell with the oracle off.
fn rvrows(args: &[String]) -> Result<(), String> {
    let mut len: Option<RunLength> = None;
    let mut prog: Option<ProgramSpec> = None;
    let mut configs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--len" => len = Some(it.next().ok_or("--len needs a value")?.parse()?),
            "--prog" => prog = Some(it.next().ok_or("--prog needs a value")?.parse()?),
            c => configs.push(spec(c)?),
        }
    }
    let (len, prog) = (
        len.ok_or("rvrows needs --len")?,
        prog.ok_or("rvrows needs --prog")?,
    );
    for c in configs {
        let s = run(RunRequest::program(prog.clone()).config(c).length(len))?;
        let per_k = |n: u64| n as f64 * 1_000.0 / s.committed_uops.max(1) as f64;
        println!(
            "  {:<24} ipc {:>6.3}  repl/1k {:>7.2}  mpki {:>6.2}  committed {:>9}",
            c.to_string(),
            s.ipc(),
            per_k(s.replayed_total()),
            per_k(s.cond_mispredicts),
            s.committed_uops,
        );
    }
    Ok(())
}

/// Solo wall time of every (configuration × kernel) cell one experiment
/// sweeps, each run alone on this thread.
fn cells(args: &[String]) -> Result<(), String> {
    let mut exp: Option<String> = None;
    let mut len: Option<RunLength> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp = it.next().cloned(),
            "--len" => len = Some(it.next().ok_or("--len needs a value")?.parse()?),
            other => return Err(format!("cells: unknown argument `{other}`")),
        }
    }
    let (exp, len) = (
        exp.ok_or("cells needs --exp")?,
        len.ok_or("cells needs --len")?,
    );
    let e =
        ss_harness::experiments::find(&exp).ok_or_else(|| format!("unknown experiment {exp}"))?;
    let mut tr = Tracer::new();
    for cfg in (e.plan)() {
        for b in &kernels::BENCHMARKS {
            let rid = format!("{} {}", cfg.name, b.name);
            let (r, d) = tr.span("exec.solo_cell", &rid, |_| {
                run(RunRequest::kernel((b.build)(WORKLOAD_SEED))
                    .custom_config(cfg.config.clone())
                    .length(len))
            });
            r?;
            println!(
                r#"{{"cell":{},"seconds":{}}}"#,
                json_str(&rid),
                d.as_secs_f64()
            );
        }
    }
    let stdout = std::io::stdout();
    tr.write(&mut stdout.lock());
    Ok(())
}
