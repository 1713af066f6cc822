"""The three workloads, each driven through a surface users drive: the
`experiments` command line or the `experiments serve` wire protocol.

Each workload object runs set-ups and passes, checks every output it
sees, and reports its end-to-end metrics as medians over passes.
"""

import os
import random
import re
import shutil
import socket
import statistics
import threading
import time

import procs

PROGRAMS = ["sort", "hashjoin", "alloc", "lz"]

# `experiments rvrun`'s default ladder: the baseline plus the six
# speculative-wakeup policies at delay 4. rvrun must print one row each.
LADDER = ["Baseline_4", "SpecSched_4", "SpecSched_4_Shift", "SpecSched_4_Ctr",
          "SpecSched_4_Filter", "SpecSched_4_Combined", "SpecSched_4_Crit"]

KERNELS = ["stream_hi_ilp", "grid_stencil", "ptr_chase_big", "stream_all_miss", "mix_int",
           "crafty_like", "xalanc_like", "rand_medium", "fp_compute", "hash_probe",
           "branchy_int", "stencil_conflict", "hot_cold_mix", "dep_chain_l2", "store_stream",
           "call_ret_mix", "matrix_fp", "equake_like", "rmw_hazard", "list_walk"]

SWEEP = ["fig5", "fig7", "fig8"]
SWEEP_CELLS = 140  # 7 distinct configurations x 20 kernels

# Set-ups timed per run; the median is reported.
SETUP_REPS = 5

_SUMMARY = re.compile(r"\[(\d+) simulations run,.* (\d+) cell failures,.*run length (\d+)\+(\d+) ")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Ctx:
    """What every workload shares: binaries, the work directory, the
    seed and seconds, the tracer, and the attempted / failed tally."""

    def __init__(self, root, work, experiments, probe, seed, seconds, tracer):
        self.root, self.work = root, work
        self.experiments, self.probe = experiments, probe
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._n = 0

    def log(self, tag):
        self._n += 1
        return os.path.join(self.work, f"{self._n:04d}-{tag}")

    def fresh_dir(self, tag):
        d = self.log(tag)
        os.makedirs(d)
        return d

    def fail(self, n, msg):
        self.failed += n
        self.problems.append(msg)

    def exp(self, args, tag):
        return procs.run([self.experiments] + args, self.log(tag))

    def run_passes(self, one_pass, min_passes):
        """Runs passes until `seconds` have gone by, and at least
        `min_passes`."""
        t0, n = time.perf_counter(), 0
        while n < min_passes or time.perf_counter() - t0 < self.seconds:
            one_pass(n)
            n += 1
        return n


class Workload:
    """Per-pass samples of the end-to-end metrics; subclasses add set-up,
    passes and checks."""

    min_passes = 2

    def __init__(self, ctx):
        self.ctx = ctx
        self.walls, self.rates, self.rss, self.setups = [], [], [], []

    def setup(self):
        pass

    def check(self):
        pass

    def e2e(self):
        return {"setup_s": self.setups, "wall_s": self.walls,
                "sim_uops_per_s": self.rates, "peak_rss_mb": self.rss}

    def extra(self):
        return {}


def sweep_summary(err):
    """(simulations, cell failures, warmup, measure) from the sweep's last
    stderr line."""
    m = _SUMMARY.search(err)
    if not m:
        return 0, -1, 0, 0
    return tuple(int(g) for g in m.groups())


# ---------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------

class PaperSweep(Workload):
    """`experiments fig5 fig7 fig8 --quick` into a fresh output directory:
    one figure regeneration, 140 cells on the default worker count."""

    name = "paper_sweep"
    # One pass takes longer than a run's seconds; the median of three
    # keeps one pass slowed by the other tenants of the host from setting
    # the result.
    min_passes = 3

    def __init__(self, ctx):
        super().__init__(ctx)
        with open(os.path.join(ctx.root, "perfbench", "refs", "paper_sweep.txt")) as f:
            self.ref = f.read()

    def setup(self):
        # The smallest regeneration pays the command's fixed start-up
        # costs: process launch, session and store creation, reporting.
        # One worker, so that it measures those rather than contention.
        for _ in range(SETUP_REPS):
            r = self.ctx.exp(["table2", "--smoke", "--jobs", "1", "--no-progress", "--out",
                              self.ctx.fresh_dir("setup")], "table2")
            if r.code != 0:
                raise RuntimeError(f"paper_sweep set-up failed: {r.err[-400:]}")
            self.setups.append(r.wall_s)

    def one_pass(self, i):
        ctx = self.ctx
        out = ctx.fresh_dir("sweep")
        with ctx.tracer.span("cli.experiments_sweep", f"pass{i}"):
            r = ctx.exp(SWEEP + ["--quick", "--no-progress", "--out", out], "sweep")
        shutil.rmtree(out, ignore_errors=True)
        ctx.attempted += SWEEP_CELLS
        sims, failures, warmup, measure = sweep_summary(r.err)
        if r.code != 0 or sims != SWEEP_CELLS or failures != 0:
            ctx.fail(SWEEP_CELLS, f"paper_sweep pass {i}: exit {r.code}, {sims} cells, "
                                  f"{failures} failures")
        elif r.out != self.ref:
            ctx.fail(SWEEP_CELLS, f"paper_sweep pass {i}: report differs from refs/paper_sweep.txt")
        self.walls.append(r.wall_s)
        self.rates.append(sims * (warmup + measure) / r.wall_s)
        self.rss.append(r.peak_rss_mb)


# ---------------------------------------------------------------------
# rv_oracle
# ---------------------------------------------------------------------

def program_specs(seed):
    rng = random.Random(f"rv_oracle/{seed}")
    return [f"rv:{p}@{rng.randrange(1, 1 << 31):#x}" for p in PROGRAMS]


_RV_HEADER = re.compile(r"^rvrun: (\S+) len=w(\d+)m(\d+) check=(\w+) configs=(\d+)$", re.M)


class RvOracle(Workload):
    """`experiments rvrun` over the four suite programs with the default
    ladder and the commit oracle on; program seeds come from the
    benchmark seed."""

    name = "rv_oracle"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.progs = program_specs(ctx.seed)
        self.rows, self.len = {}, None
        self.passes = 0

    def setup(self):
        # Start-up and program assembly, on a smoke-length ladder run by
        # one worker.
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            for p in self.progs:
                r = self.ctx.exp(["rvrun", "--prog", p, "--smoke", "--jobs", "1"], "rvsmoke")
                if r.code != 0:
                    raise RuntimeError(f"rv_oracle set-up failed on {p}: {r.err[-400:]}")
            self.setups.append(time.perf_counter() - t0)

    def one_pass(self, i):
        ctx = self.ctx
        wall = uops = rss = 0.0
        for p in self.progs:
            with ctx.tracer.span("cli.rvrun", p):
                r = ctx.exp(["rvrun", "--prog", p], "rvrun")
            ctx.attempted += len(LADDER)
            wall += r.wall_s
            rss = max(rss, r.peak_rss_mb)
            rows = [l for l in r.out.splitlines() if l.startswith("  ")]
            h = _RV_HEADER.search(r.out)
            bad = None
            if r.code != 0 or not h or h.group(4) != "on":
                bad = f"exit {r.code}, oracle divergence or failed cell"
            elif len(rows) != len(LADDER) or any("FAILED" in l for l in rows):
                bad = "missing or failed rows"
            elif self.rows.setdefault(p, rows) != rows:
                bad = "rows differ from the first pass"
            if bad:
                ctx.fail(len(LADDER), f"rv_oracle pass {i} {p}: {bad}")
                continue
            self.len = f"w{h.group(2)}m{h.group(3)}"
            uops += sum(int(l.split()[-1]) + int(h.group(2)) for l in rows)
        self.walls.append(wall)
        self.rates.append(uops / wall)
        self.rss.append(rss)
        self.passes += 1

    def check(self):
        """Rows against the library's own run of each cell."""
        for p in self.progs:
            if p not in self.rows:
                continue
            r = procs.run([self.ctx.probe, "rvrows", "--len", self.len, "--prog", p] + LADDER,
                          self.ctx.log("rvrows"))
            if r.code != 0 or r.out.splitlines() != self.rows[p]:
                self.ctx.fail(len(LADDER) * self.passes,
                              f"rv_oracle {p}: rows differ from the reference run")


# ---------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------

# The mix is chosen, not observed from real traffic. Per pass, over both
# connections: fresh short runs that write the results cache (every
# kernel x configuration twice, every program x configuration four
# times), forks from warm snapshots (one snapshot per kernel, ten forks
# each), and repeats of the connection's own earlier fresh runs, which
# read the cache. Fixed counts keep the work of a pass the same for every
# seed; the seed picks the order, the input seeds and the configurations
# of the snapshots.
BENCH_REPS, RV_REPS, FORK_REPS, REPEATS = 2, 4, 10, 408
CONNECTIONS = 2
FRESH_LEN = (500, 2_500)
SNAP_WARMUP = 5_000


class ServeMix(Workload):
    """A closed-loop client on two connections sends a seeded request mix
    to `experiments serve`."""

    name = "serve_mix"

    def __init__(self, ctx):
        super().__init__(ctx)
        rng = random.Random(f"serve_mix/{ctx.seed}")
        self.snap_dir = os.path.relpath(os.path.join(ctx.work, "snaps"), ctx.root)
        shift = rng.randrange(len(LADDER))
        self.snaps = []
        for k, kernel in enumerate(KERNELS):
            cfg = LADDER[(k + shift) % len(LADDER)]
            base = f"src=bench:{kernel}@{rng.randrange(1, 1 << 32):#x} cfg={cfg}"
            self.snaps.append((os.path.join(self.snap_dir, f"warm{k}.snap"), base))
        w, m = FRESH_LEN
        seen = set()
        items = []
        for kind, srcs, reps in (("bench", [f"bench:{k}" for k in KERNELS], BENCH_REPS),
                                 ("rv", [f"rv:{p}" for p in PROGRAMS], RV_REPS)):
            for src in srcs:
                for cfg in LADDER:
                    for _ in range(reps):
                        text = None
                        while text is None or text in seen:
                            text = f"src={src}@{rng.randrange(1, 1 << 32):#x} cfg={cfg} len=w{w}m{m}"
                        seen.add(text)
                        items.append((kind, text))
        for path, base in self.snaps:
            items += [("fork", (path, base))] * FORK_REPS
        items += [("repeat", None)] * REPEATS
        rng.shuffle(items)
        self.requests = [[] for _ in range(CONNECTIONS)]
        forks = 0
        for n, (kind, text) in enumerate(items):
            own = self.requests[n % CONNECTIONS]
            earlier = [t for k, t in own if k in ("bench", "rv")]
            if kind == "repeat" and earlier:
                text = rng.choice(earlier)
            elif kind == "repeat":
                continue  # nothing to repeat yet on this connection
            elif kind == "fork":
                path, base = text
                # A distinct measure length makes every fork a real
                # restore-and-run rather than a cache hit.
                text = f"{base} len=w0m{2_000 + forks} fork=snap:{path}"
                forks += 1
            own.append((kind, text))
        self.records = []  # (pass, kind, text, send, ack, first progress, done, ack text, reply)
        self.fresh = {}  # request text -> `done` payload of its first fresh run
        self.pings = []
        self.passes = 0

    def _start(self):
        """Set-up: warm snapshots, then a server answering `ping`."""
        ctx = self.ctx
        t0 = time.perf_counter()
        shutil.rmtree(os.path.join(ctx.root, self.snap_dir), ignore_errors=True)
        os.makedirs(os.path.join(ctx.root, self.snap_dir))
        spec = ctx.log("snap.in")
        with open(spec, "w") as f:
            for path, base in self.snaps:
                f.write(f"{path} {base} len=w{SNAP_WARMUP}m1\n")
        r = procs.run([ctx.probe, "snap"], ctx.log("snap"), spec)
        if r.code != 0:
            raise RuntimeError(f"serve_mix snapshot set-up failed: {r.err[-400:]}")
        sock = os.path.relpath(os.path.join(ctx.work, "serve.sock"), ctx.root)
        if os.path.exists(sock):
            os.unlink(sock)
        log = ctx.log("serve")
        out, err = open(log + ".out", "wb"), open(log + ".err", "wb")
        server = procs.spawn([ctx.experiments, "serve", "--socket", sock], out, err)
        conns = []
        deadline = time.monotonic() + 30
        while not conns:
            try:
                conns.append(Conn(sock))
            except OSError:
                if server.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("serve_mix: server did not come up")
                time.sleep(0.002)
        while len(conns) < CONNECTIONS:
            conns.append(Conn(sock))
        for c in conns:
            c.send("ping")
            if c.readline() != "pong":
                raise RuntimeError("serve_mix: no pong from the server")
        self.setups.append(time.perf_counter() - t0)
        return server, conns, (out, err)

    def one_pass(self, i):
        ctx = self.ctx
        server, conns, logs = self._start()
        try:
            with ctx.tracer.span("serve_mix.pass", f"pass{i}") as sp:
                if ctx.tracer.enabled:
                    for _ in range(200):
                        t = time.monotonic_ns()
                        conns[0].send("ping")
                        conns[0].readline()
                        self.pings.append(time.monotonic_ns() - t)
                        ctx.tracer.record("serve.ping", "", t, t + self.pings[-1], sp.id)
                results = [[] for _ in conns]
                threads = [threading.Thread(target=_client, args=(conns[c], self.requests[c],
                                                                  results[c]))
                           for c in range(len(conns))]
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall = time.perf_counter() - t0
            conns[0].send("shutdown")
            conns[0].readline()
        finally:
            for c in conns:
                c.close()
            _, rss_kb = procs.reap(server, timeout=30)
            for f in logs:
                f.close()
        fresh_uops = self._tally(i, results, sp.id)
        self.walls.append(wall)
        self.rss.append(rss_kb / 1024.0)
        self.rates.append(fresh_uops / wall)
        self.passes += 1

    def _tally(self, i, results, parent):
        """Checks and records one pass's replies; returns the µ-ops its
        fresh runs and forks simulated."""
        ctx, tr = self.ctx, self.ctx.tracer
        uops = 0
        for c, res in enumerate(results):
            for (kind, text), rec in zip(self.requests[c], res):
                send, ack, prog, done, ack_text, reply = rec
                ctx.attempted += 1
                self.records.append((i, kind, text, send, ack, prog, done, ack_text, reply))
                if tr.enabled and done is not None:
                    rid = tr.record("serve.request", f"c{c}:{kind}", send, done, parent)
                    tr.record("serve.ack", "", send, ack, rid)
                    if prog is not None:
                        tr.record("serve.wait", "", ack, prog, rid)
                        tr.record("serve.run", "", prog, done, rid)
                    else:
                        tr.record("serve.cached_reply", "", ack, done, rid)
                want = "cached" if kind == "repeat" else "queued"
                if done is None or not (ack_text or "").startswith(want):
                    ctx.fail(1, f"serve_mix pass {i}: `{text}` got ack `{ack_text}`, "
                                f"reply `{(reply or '')[:80]}`")
                elif kind == "repeat":
                    if reply != self.fresh.get(text):
                        ctx.fail(1, f"serve_mix pass {i}: cached reply differs from the fresh "
                                    f"one for `{text}`")
                else:
                    uops += _committed(reply) + (0 if kind == "fork" else FRESH_LEN[0])
                    if self.fresh.setdefault(text, reply) != reply:
                        ctx.fail(1, f"serve_mix pass {i}: `{text}` differs from the first pass")
        return uops

    def check(self):
        """Every fresh reply against what `experiments run --req` prints for
        the same request text, computed by the same library calls in two
        probe processes; a few are also run through the command itself."""
        ctx = self.ctx
        texts = sorted(self.fresh)
        if not texts:
            return
        halves = [texts[0::2], texts[1::2]]
        running = []
        for h, part in enumerate(halves):
            path = ctx.log(f"ref{h}.in")
            with open(path, "w") as f:
                f.write("".join(t + "\n" for t in part))
            log = ctx.log(f"ref{h}")
            out, err, inp = open(log + ".out", "wb"), open(log + ".err", "wb"), open(path, "rb")
            running.append((procs.spawn([ctx.probe, "reference"], out, err, inp), log,
                            (out, err, inp)))
        ref = {}
        for (p, log, files), part in zip(running, halves):
            code, _ = procs.reap(p)
            for f in files:
                f.close()
            with open(log + ".out") as f:
                lines = f.read().splitlines()
            if code != 0 or len(lines) != len(part):
                raise RuntimeError(f"serve_mix reference run failed: see {log}.err")
            ref.update(zip(part, lines))
        for text in texts:
            if ref[text] != "done offline " + self.fresh[text]:
                bad = sum(1 for r in self.records if r[2] == text)
                ctx.fail(bad, f"serve_mix: `{text}` differs from `experiments run --req`")
        # The probe's reference path against the command it stands in for.
        sample = [next(t for k, t in self.requests[0] if k == kind) for kind in ("bench", "rv", "fork")
                  if any(k == kind for k, _ in self.requests[0])]
        for text in sample:
            r = ctx.exp(["run", "--req", text], "run")
            if r.out.rstrip("\n") != ref[text]:
                ctx.fail(1, f"serve_mix: `experiments run --req '{text}'` differs from the reference")

    def latencies(self, kinds):
        return [(r[6] - r[3]) / 1e6 for r in self.records if r[1] in kinds and r[6] is not None]

    def extra(self):
        """The request-level figures, over every request of every pass."""
        every = self.latencies(("bench", "rv", "repeat", "fork"))
        out = {}
        if every:
            qs = statistics.quantiles(every, n=100) if len(every) > 1 else every * 99
            out["req_p50_ms"] = (median(every), "ms", len(every))
            out["req_p99_ms"] = (qs[98], "ms", len(every))
            out["req_per_s"] = (sum(map(len, self.requests)) / median(self.walls), "1/s",
                                len(self.walls))
        for name, kinds in (("cached_p50_ms", ("repeat",)), ("fork_p50_ms", ("fork",))):
            xs = self.latencies(kinds)
            if xs:
                out[name] = (median(xs), "ms", len(xs))
        return out

    def serve_layers(self, i):
        """serve.* layer figures from the timestamps of traced pass `i`."""
        recs = [r for r in self.records if r[0] == i and r[6] is not None]
        fresh = [r for r in recs if r[5] is not None]
        return {
            "serve.ping_us_p50": (median([p / 1e3 for p in self.pings]), "us"),
            "serve.ack_us_p50": (median([(r[4] - r[3]) / 1e3 for r in recs]), "us"),
            "serve.wait_ms_p50": (median([(r[5] - r[4]) / 1e6 for r in fresh]), "ms"),
            "serve.run_ms_p50": (median([(r[6] - r[5]) / 1e6 for r in fresh]), "ms"),
        }


_COMMITTED = re.compile(r"(?:^| )committed_uops=(\d+)")


def _committed(payload):
    m = _COMMITTED.search(payload)
    return int(m.group(1)) if m else 0


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.sock.settimeout(120)
        self.rf = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def readline(self):
        line = self.rf.readline()
        if not line:
            raise EOFError("server closed the connection")
        return line.decode().rstrip("\n")

    def close(self):
        self.rf.close()
        self.sock.close()


def _client(conn, requests, results):
    """Closed loop: the next request goes out when the last one is done."""
    for n, (_, text) in enumerate(requests):
        results.append(_request(conn, f"q{n}", text))


def _request(conn, rid, text):
    """Sends one `run` and reads its replies. Returns (send, ack, first
    progress, done) in monotonic ns, the ack text and the `done` payload;
    a failed request has done = None and the offending line instead."""
    send = time.monotonic_ns()
    ack = prog = ack_text = None
    try:
        conn.send(f"run {rid} {text}")
        while True:
            line = conn.readline()
            now = time.monotonic_ns()
            tag, _, rest = line.partition(" ")
            lid, _, rest = rest.partition(" ")
            if lid == rid and tag == "ack":
                ack, ack_text = now, rest
            elif lid == rid and tag == "progress":
                prog = prog or now
            elif lid == rid and tag == "done":
                return send, ack, prog, now, ack_text, rest
            else:
                return send, ack, prog, None, ack_text, line
    except (OSError, EOFError) as e:
        return send, ack, prog, None, ack_text, str(e)
