#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer metrics of coanalyze.

    python3 perfbench/run.py --workload explore|audit|serve --seed N \\
        --seconds S --trace 0|1

Run it from the repository root.  It builds bin/coanalyze.exe,
perfbench/perfgen.exe and perfbench/reference.exe with dune, makes its
inputs from --seed through perfgen (Cobegin_models only), measures a closed
loop with one op in flight for --seconds, checks every op against its known
answer, and prints as its last stdout line one JSON object: {"correct",
"attempted", "failed", "metrics"}.  --trace 0 reports the end-to-end
metrics, their times scaled to the speed of the reference, --trace 1 the
per-layer ones from a separate traced run.  NOTES.md says why each
workload and metric exists.  All files it writes live under .perfbench/
and _build/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True   # leave nothing behind in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import plan  # noqa: E402

COANALYZE = os.path.join("_build", "default", "bin", "coanalyze.exe")
PERFGEN = os.path.join("_build", "default", "perfbench", "perfgen.exe")
REFERENCE = os.path.join("_build", "default", "perfbench", "reference.exe")
STATE_DIR = ".perfbench"
PING_COUNT = 200

now = time.perf_counter


class BenchError(Exception):
    pass


# --- processes: every child is registered so that any exit reaps it ---

CHILDREN = []


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    CHILDREN.append(p)
    return p


def reap(p, status=None):
    """Record [p]'s exit (from a wait4 status, or by waiting) and forget it."""
    if status is None:
        p.wait()
    else:
        p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)


def kill_children():
    for p in list(CHILDREN):
        if p.poll() is None:
            p.kill()
        p.wait()
        CHILDREN.remove(p)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


# --- build and inputs ---

def build():
    for f in ("dune-project", os.path.join("bin", "coanalyze.ml"),
              os.path.join("perfbench", "perfgen.ml")):
        if not os.path.isfile(f):
            raise BenchError("not a checkout of the repository: %s missing" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./bin/coanalyze.exe", "./perfbench/perfgen.exe",
                        "./perfbench/reference.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout.decode(errors="replace"))


def sources(requests):
    """Program sources for perfgen requests, one distinct request generated
    once."""
    distinct = sorted(set(requests))
    r = subprocess.run([PERFGEN, "sources"], input="\n".join(distinct) + "\n",
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        raise BenchError("perfgen sources: " + r.stderr)
    out = [json.loads(line) for line in r.stdout.splitlines()]
    if len(out) != len(distinct):
        raise BenchError("perfgen returned %d sources for %d requests"
                         % (len(out), len(distinct)))
    return dict(zip(distinct, out))


def inproc(mode, max_configs, cache_cap, seconds, lines):
    r = subprocess.run([PERFGEN, "inproc", mode, str(max_configs),
                        str(cache_cap), "%.3f" % seconds],
                       input="\n".join(lines) + "\n", stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError("perfgen inproc: " + r.stderr)
    return json.loads(r.stdout)


# --- what a traced child leaves behind ---

def span_ms(trace_path):
    """Milliseconds per span name in a Chrome trace file."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    out = {}
    for e in events:
        out[e["name"]] = out.get(e["name"], 0.0) + e["dur"] / 1000.0
    return out


def minor_words(stderr_path):
    """minor_words from the runtime's exit report (OCAMLRUNPARAM=v=0x400)."""
    with open(stderr_path, errors="replace") as f:
        for line in f:
            if line.startswith("minor_words:"):
                return int(line.split()[1])
    raise BenchError("no GC report in " + stderr_path)


def add_into(acc, d):
    for k, v in d.items():
        acc[k] = acc.get(k, 0) + v


class Clock:
    """A timed phase's clock.  The benchmark's own judging of results and
    its speed probes are paused out of it."""

    def __init__(self):
        self.start = now()
        self.paused = 0.0

    def elapsed(self):
        return now() - self.start - self.paused

    def pause(self, f, *args):
        t0 = now()
        try:
            return f(*args)
        finally:
            self.paused += now() - t0


class Speed:
    """Probes of the speed reference (reference.ml): (midpoint, ms) in time
    order.  Every end-to-end time is scaled by the probes nearest to it."""

    def __init__(self):
        self.probes = []

    def probe(self):
        t0 = now()
        p = spawn([REFERENCE, str(plan.REF_REPEATS)], stdout=subprocess.PIPE)
        out = p.stdout.read()
        _, status, _ = os.wait4(p.pid, 0)
        t1 = now()
        p.stdout.close()
        reap(p, status)
        if p.returncode != 0 or out.decode().strip() != plan.REF_OUTPUT:
            raise BenchError("speed reference exited %d with %r"
                             % (p.returncode, out))
        self.probes.append(((t0 + t1) / 2.0, (t1 - t0) * 1000.0))

    def scale(self, intervals, k):
        """[intervals] as (midpoint, length) pairs, each length scaled to
        the reference speed by the [k] probes nearest to it."""
        f = plan.speed_factors([m for m, _ in intervals], self.probes, k)
        return [x * fx for (_, x), fx in zip(intervals, f)]

    def mean_ms(self):
        return statistics.mean(ms for _, ms in self.probes)


def summary(speed, setups, ops, tail_n):
    """The end-to-end timings from raw [setups] (midpoint, s) and [ops]
    (midpoint, latency ms, share of the timed phase in s), scaled to the
    reference speed; and the same unscaled, for the record."""
    setup_s = speed.scale(setups, plan.SETUP_PROBES)
    lat = speed.scale([(m, ms) for m, ms, _ in ops], plan.NEAREST_PROBES)
    timed = speed.scale([(m, seg) for m, _, seg in ops], plan.NEAREST_PROBES)
    s = plan.latency_summary(lat, tail_n)
    raw = plan.latency_summary([ms for _, ms, _ in ops], tail_n)
    metrics = {"setup_s": statistics.median(setup_s),
               "ops_per_s": len(ops) / sum(timed),
               "op_p50_ms": s["p50"], "op_tail_ms": s["tail"]}
    info = {"n": s["n"], "tail_n": tail_n,
            "tail_percentile": s["tail_percentile"],
            "reference_ms": speed.mean_ms(), "probes": len(speed.probes),
            "unscaled": {"setup_s": statistics.median(x for _, x in setups),
                         "ops_per_s": len(ops) / sum(seg for _, _, seg in ops),
                         "op_p50_ms": raw["p50"], "op_tail_ms": raw["tail"]},
            "setups_s": setup_s}
    return metrics, info


# --- explore / audit: one coanalyze analyze child per op ---

class CliWorkload:
    def __init__(self, audit, seed, seconds, work):
        self.audit, self.seed, self.seconds, self.work = audit, seed, seconds, work
        self.file = os.path.join(work, "op.cob")

    def setup(self):
        """The run's input generation plus one untimed warm-up op."""
        self.ops = plan.explore_ops(self.seed)
        self.src = sources([op.request for op in self.ops]
                           + [plan.WARMUP.request])
        _, out, code, _ = self.run_op(plan.WARMUP)
        problem, _ = self.judge(plan.WARMUP, out, code)
        if problem:
            raise BenchError("warm-up op: " + problem)

    def run_op(self, op, extra=(), env=None, stderr=subprocess.DEVNULL):
        """Run [op] once; returns (ms, report bytes, exit code, maxrss MB)."""
        with open(self.file, "w") as f:
            f.write(self.src[op.request])
        cmd = ([COANALYZE, "analyze", self.file, "--json", "-"]
               + op.cli_args(self.audit) + list(extra))
        t0 = now()
        p = spawn(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env)
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        ms = (now() - t0) * 1000.0
        p.stdout.close()
        reap(p, status)
        return ms, out, p.returncode, ru.ru_maxrss / 1024.0

    def judge(self, op, out, code):
        """(problem or None, parsed report)."""
        try:
            report = json.loads(out)
            return plan.verdict_problem(report, code, op.expect,
                                        self.audit), report
        except (ValueError, KeyError, TypeError) as e:
            return "unreadable report (exit %d): %s" % (code, e), None

    def timed(self):
        speed = Speed()
        setups = []
        # SETUP_PROBES / 2 probes between set-ups, so that the probes
        # nearest to each are the ones just before and just after it
        for _ in range(plan.SETUPS):
            for _ in range(plan.SETUP_PROBES // 2):
                speed.probe()
            t0 = now()
            self.setup()
            t1 = now()
            setups.append(((t0 + t1) / 2.0, t1 - t0))
        for _ in range(plan.SETUP_PROBES // 2):
            speed.probe()
        ops, rss, failed, truncated = [], 0.0, [], 0
        exact = {"configurations": 0, "transitions": 0, "report_bytes": 0}
        tail_n = plan.TAIL_OPS["audit" if self.audit else "explore"]
        clock = Clock()
        i, mark = 0, 0.0
        while (clock.elapsed() < self.seconds
               or i < max(plan.EXACT_OPS, tail_n)):
            if i % plan.PROBE_EVERY == 0:
                clock.pause(speed.probe)
            op = self.ops[i % len(self.ops)]
            t0 = now()
            ms, out, code, mb = self.run_op(op)
            problem, report = clock.pause(self.judge, op, out, code)
            e = clock.elapsed()
            ops.append((t0 + ms / 2000.0, ms, e - mark))
            mark = e
            rss = max(rss, mb)
            if problem:
                failed.append("op %d (%s %s %s): %s" % (
                    i, op.request, op.model, op.engine, problem))
            else:
                truncated += not report["status"]["complete"]
                if i < plan.EXACT_OPS:
                    exact["configurations"] += report["stats"]["configurations"]
                    exact["transitions"] += report["stats"]["transitions"]
                    exact["report_bytes"] += len(out)
            i += 1
        speed.probe()
        speed.probe()
        metrics, info = summary(speed, setups, ops, tail_n)
        metrics["peak_rss_mb"] = rss
        info["complete_share"] = 1.0 - truncated / len(ops)
        return metrics, info, len(ops), failed, exact

    def traced(self):
        """The run's ops, each run untraced and traced in alternating order;
        then the in-process pass over the same ops."""
        tr = os.path.join(self.work, "trace.json")
        me = os.path.join(self.work, "metrics.json")
        lg = os.path.join(self.work, "log.jsonl")
        gc = os.path.join(self.work, "gc.txt")
        flags = ["--trace", tr, "--metrics", me, "--log", lg,
                 "--log-level", "debug"]
        gc_env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        self.setup()
        spans, counters, failed = {}, {}, []
        plain_ms = traced_ms = 0.0
        report_bytes, words, exact_words, exact_pairs = 0, 0, 0, 0
        deadline = now() + self.seconds
        i = 0
        while now() < deadline or i < plan.EXACT_OPS:
            op = self.ops[i % len(self.ops)]
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                for f in (tr, me, lg):
                    if os.path.exists(f):
                        os.remove(f)
                if traced:
                    ms, out, code, _ = self.run_op(op, extra=flags)
                    traced_ms += ms
                else:
                    with open(gc, "w") as err:
                        ms, out, code, _ = self.run_op(op, env=gc_env,
                                                       stderr=err)
                    plain_ms += ms
                problem, _ = self.judge(op, out, code)
                if problem:
                    failed.append("op %d%s: %s" % (
                        i, " (traced)" if traced else "", problem))
                elif traced:
                    add_into(spans, span_ms(tr))
                    with open(me) as f:
                        c = json.load(f)["counters"]
                    add_into(counters, c)
                    if i < plan.EXACT_OPS:
                        exact_pairs += c["race.pairs_scanned"]
                else:
                    report_bytes += len(out)
                    w = minor_words(gc)
                    words += w
                    if i < plan.EXACT_OPS:
                        exact_words += w
            i += 1
        n = i
        ops = [self.ops[k % len(self.ops)] for k in range(n)]
        lines = [op.request_line(self.src[op.request], self.audit)
                 for op in ops]
        ip = inproc("cli", plan.EXPLORE_CAP, 1, self.seconds / 4.0, lines)
        transitions = counters.get("space.transitions", 0)
        metrics = layer_metrics(spans, transitions, counters, n)
        metrics.update({
            "analysis.race_pairs_scanned":
                counters.get("race.pairs_scanned", 0) / n,
            "absint.interfere_rounds": counters.get("interfere.rounds", 0) / n,
            "lang.load_ms": ip["load_ms"] / ip["requests"],
            "core.to_json_ms": ip["to_json_ms"] / ip["requests"],
            "core.report_kb": report_bytes / 1024.0 / n,
            "core.alloc_mb": words * 8 / 2.0 ** 20 / n,
            "obs.trace_overhead_pct": (traced_ms / plain_ms - 1.0) * 100.0,
        })
        info = {"n": n, "inproc_requests": ip["requests"]}
        exact = {"race_pairs_scanned": exact_pairs, "minor_words": exact_words}
        return metrics, info, 2 * n, failed, exact


# --- serve: one daemon per epoch, one persistent connection ---

class Daemon:
    """A coanalyze serve child and one connection to it."""

    def __init__(self, sock_path, extra=(), env=None, stderr=subprocess.DEVNULL):
        self.path = sock_path
        self.proc = spawn([COANALYZE, "serve", sock_path, "-j", "1",
                           "--cache-cap", str(plan.SERVE_CACHE_CAP),
                           "--max-configs", str(plan.SERVE_CAP)] + list(extra),
                          stdout=subprocess.DEVNULL, stderr=stderr, env=env)
        self.sock = self.connect()
        self.rf = self.sock.makefile("rb", buffering=1 << 20)

    def connect(self):
        # the daemon announces itself before it binds: readiness is the
        # first connect that succeeds
        give_up = now() + 60.0
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                return s
            except OSError:
                s.close()
                if self.proc.poll() is not None or now() > give_up:
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.0005)

    def request(self, line):
        self.sock.sendall(line)
        reply = self.rf.readline()
        if not reply.endswith(b"\n"):
            raise BenchError("serve daemon hung up")
        return reply

    def stats(self):
        return json.loads(self.request(b'{"op":"stats"}\n'))

    def peak_rss_mb(self):
        """The daemon's peak resident set so far (VmHWM)."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the serve daemon")

    def shutdown(self):
        """Ask the daemon to stop, and reap it."""
        self.request(b'{"op":"shutdown"}\n')
        self.rf.close()
        self.sock.close()
        reap(self.proc)
        if self.proc.returncode != 0:
            raise BenchError("serve daemon exited %d" % self.proc.returncode)


HIT = b'{"ok":true,"cache":"hit"'
MISS = b'{"ok":true,"cache":"miss"'


class Expected:
    """What one daemon has answered so far: per project file, the reply
    bytes (after the cache tag) its current version was first answered
    with, which every later hit must repeat; the bytes of all its replies;
    and what its misses' reports say they explored and how long each
    stage took."""

    def __init__(self):
        self.files = {}
        self.reply_bytes = 0
        self.configurations = 0
        self.transitions = 0
        self.stage_ms = {}


class ServeWorkload:
    def __init__(self, seed, seconds, work):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.daemons = 0

    def inputs(self, epoch):
        """The epoch's stream and its request lines."""
        self.stream = plan.serve_stream(self.seed, epoch)
        src = sources([s.request() for s in self.stream])
        self.lines = [(plan.serve_request_line(src[s.request()]) + "\n").encode()
                      for s in self.stream]

    def start(self, extra=(), env=None, stderr=subprocess.DEVNULL,
              probe=None):
        """Daemon start-up and the fill: every project file submitted
        once, with [probe] called every PROBE_EVERY requests.
        Returns the daemon and what it has answered."""
        self.daemons += 1
        d = Daemon(os.path.join(self.work, "d%d.sock" % self.daemons),
                   extra, env, stderr)
        state = Expected()
        for k in range(plan.SERVE_FILES):
            if probe and k % plan.PROBE_EVERY == 0:
                probe()
            problem = self.check(state, k, d.request(self.lines[k]))
            if problem:
                raise BenchError("fill: " + problem)
        return d, state

    def check(self, state, k, reply):
        """Judge the reply to stream entry [k] against the stream's
        prediction.  Returns a problem or None."""
        sub = self.stream[k]
        state.reply_bytes += len(reply)
        try:
            if sub.miss:
                if not reply.startswith(MISS):
                    return "expected a miss: " + reply[:80].decode(errors="replace")
                r = json.loads(reply)
                problem = plan.verdict_problem(r["report"], r["exit_code"],
                                               "clean", False)
                if problem:
                    return problem
                state.files[sub.file] = reply[len(MISS):]
                state.configurations += r["report"]["stats"]["configurations"]
                state.transitions += r["report"]["stats"]["transitions"]
                for t in r["report"]["telemetry"]:
                    state.stage_ms[t["stage"]] = (
                        state.stage_ms.get(t["stage"], 0.0)
                        + t["seconds"] * 1000.0)
            elif reply != HIT + state.files[sub.file]:
                return "hit differs from its miss: " + reply[:80].decode(
                    errors="replace")
            return None
        except (ValueError, KeyError, TypeError) as e:
            return "unreadable reply: %s" % e

    def commits(self, daemons, states, clock, seconds, exact=None,
                speed=None):
        """Send the epoch's commits to every daemon in [daemons], in turn
        (alternating which goes first), until they end or [clock] reaches
        [seconds].  With [exact], records after EXACT_COMMITS commits the
        counts of the first daemon that must repeat for the seed.  With
        [speed], probes the reference every PROBE_EVERY_SERVE requests.
        Returns per-daemon latencies, the failures, and per request of the
        first daemon its (midpoint, latency ms, share of the clock's
        time)."""
        lat = [[] for _ in daemons]
        failed, requests, mark = [], [], clock.elapsed()
        for k in range(plan.SERVE_FILES, len(self.lines)):
            if clock.elapsed() >= seconds:
                break
            if speed and k % plan.PROBE_EVERY_SERVE == 0:
                clock.pause(speed.probe)
            order = range(len(daemons))
            if k % 2:
                order = reversed(order)
            for j in order:
                t0 = now()
                reply = daemons[j].request(self.lines[k])
                ms = (now() - t0) * 1000.0
                lat[j].append(ms)
                problem = clock.pause(self.check, states[j], k, reply)
                if problem:
                    failed.append("request %d: %s" % (k, problem))
                if j == 0:
                    mid = t0 + ms / 2000.0
            e = clock.elapsed()
            requests.append((mid, lat[0][-1], e - mark))
            mark = e
            if exact is not None and k + 1 == plan.SERVE_FILES * (
                    1 + plan.EXACT_COMMITS):
                st = daemons[0].stats()
                exact.update(hits=st["hits"], misses=st["misses"],
                             evictions=st["misses"] - st["entries"],
                             configurations=states[0].configurations,
                             transitions=states[0].transitions,
                             reply_bytes=states[0].reply_bytes)
        return lat, failed, requests

    def timed(self):
        speed = Speed()
        setups, ops, failed, peaks, exact = [], [], [], [], {}
        timed_s, epoch = 0.0, 0
        # whole epochs: as many as bring the timed phase nearest --seconds,
        # and at least the ones op_tail_ms is taken over
        while (epoch < plan.TAIL_EPOCHS
               or timed_s + timed_s / epoch / 2 < self.seconds):
            speed.probe()
            speed.probe()
            clock = Clock()
            t0 = now()
            self.inputs(epoch)
            d, state = self.start(probe=lambda: clock.pause(speed.probe))
            setups.append(((t0 + now()) / 2.0, clock.elapsed()))
            clock = Clock()
            _, f, requests = self.commits([d], [state], clock, float("inf"),
                                          exact if epoch == 0 else None,
                                          speed)
            timed_s += clock.elapsed()
            ops += requests
            failed += ["epoch %d %s" % (epoch, x) for x in f]
            peaks.append(d.peak_rss_mb())
            d.shutdown()
            epoch += 1
        speed.probe()
        speed.probe()
        metrics, info = summary(speed, setups, ops, plan.TAIL_EPOCHS
                                * plan.EPOCH_COMMITS * plan.SERVE_FILES)
        metrics["peak_rss_mb"] = statistics.median(peaks)
        misses = epoch * plan.EPOCH_COMMITS * plan.SERVE_CHANGED
        info.update(hit_share=1.0 - misses / len(ops), epochs=epoch,
                    peak_rss_mb=peaks)
        return metrics, info, len(ops), failed, exact

    def traced(self):
        """A plain and a traced daemon fed epoch 0 request by request; then
        pings, and the in-process pass over the same requests."""
        tr = os.path.join(self.work, "trace.json")
        lg = os.path.join(self.work, "log.jsonl")
        gc = os.path.join(self.work, "gc.txt")
        self.inputs(0)
        plain, plain_state = self.start()
        with open(gc, "w") as err:
            traced, traced_state = self.start(
                ["--trace", tr, "--log", lg, "--log-level", "debug"],
                dict(os.environ, OCAMLRUNPARAM="v=0x400"), err)
        exact = {}
        (lat_plain, lat_traced), failed, _ = self.commits(
            [plain, traced], [plain_state, traced_state], Clock(),
            self.seconds, exact)
        n = len(lat_plain)
        if "hits" not in exact:
            raise BenchError("run ended before commit %d" % plan.EXACT_COMMITS)
        pings = []
        for _ in range(PING_COUNT):
            t0 = now()
            plain.request(b'{"op":"ping"}\n')
            pings.append((now() - t0) * 1000.0)
        plain.shutdown()
        traced.shutdown()
        served = plan.SERVE_FILES + n    # requests the traced daemon answered
        # in-process: the fill, then commits until the time share runs out
        ip = inproc("serve", plan.SERVE_CAP, plan.SERVE_CACHE_CAP,
                    self.seconds / 2.0,
                    [line.decode().rstrip("\n") for line in self.lines])
        failed += ["in-process request: wrong cache outcome"] * ip["mismatches"]
        c = ip["metrics"]["counters"]
        # stage times and transitions from the traced daemon's own replies;
        # ratios from the counters of the in-process pass's analyses
        metrics = layer_metrics(traced_state.stage_ms,
                                traced_state.transitions, c, served)
        metrics.update({
            "semantics.distinct_stores": ip["distinct_stores"],
            "absint.interfere_rounds":
                c.get("interfere.rounds", 0) / ip["requests"],
            "lang.load_ms": ip["load_ms"] / ip["requests"],
            "core.run_key_ms": ip["run_key_ms"] / ip["requests"],
            "core.to_json_ms": ip["to_json_ms"] / ip["requests"],
            "core.report_kb": plain_state.reply_bytes / 1024.0 / served,
            "core.alloc_mb": minor_words(gc) * 8 / 2.0 ** 20 / served,
            "serve.request_parse_ms": ip["parse_ms"] / ip["requests"],
            "serve.cache_find_ms": ip["find_ms"] / ip["requests"],
            "serve.handle_hit_ms": ip["handle_hit_ms_p50"],
            "serve.handle_miss_ms": ip["handle_miss_ms_p50"],
            "serve.ping_rtt_ms": statistics.median(pings),
            "serve.hit_ratio": exact["hits"] / (exact["hits"] + exact["misses"]),
            "serve.evictions": exact["evictions"],
            "obs.trace_overhead_pct":
                (sum(lat_traced) / sum(lat_plain) - 1.0) * 100.0,
        })
        info = {"n": n, "inproc_requests": ip["requests"],
                "inproc_hits": ip["hits"]}
        return metrics, info, 2 * n + ip["requests"], failed, exact


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(stage_ms, transitions, counters, n):
    """The per-op metrics every workload derives alike: stage times summed
    over [n] ops, the transitions they explored, and engine counter ratios.
    A layer a workload does not pass through reads 0."""
    def per_op(*stages):
        return sum(stage_ms.get(k, 0.0) for k in stages) / n

    def count(name):
        return counters.get(name, 0)

    return {
        "explore.busy_ms": per_op("exploration"),
        "explore.transitions": transitions / n,
        "explore.ns_per_transition":
            ratio(per_op("exploration") * n * 1e6, transitions),
        "explore.digest_hit_ratio":
            ratio(count("space.digest_hits"), count("space.transitions")),
        "explore.stubborn_chosen_ratio":
            ratio(count("stubborn.chosen_total"),
                  count("stubborn.enabled_total")),
        "semantics.intern_memo_hit_ratio":
            ratio(count("intern.memo_hits"),
                  count("intern.memo_hits") + count("intern.memo_misses")),
        "analysis.races_ms": per_op("races"),
        "analysis.sec5_ms": per_op("side-effects", "dependences", "lifetimes"),
        "static.lint_ms": per_op("static-lint"),
        "absint.interfere_ms": per_op("interfere"),
        "trans.critical_ms": per_op("critical"),
        "apps.ms": per_op("placement", "ctgc"),
    }


# --- exact counts: what must repeat, run after run, for one seed ---

def fingerprint():
    """Digest of the built analyzer and of the benchmark's own files and
    pool: runs are compared only between identical code and inputs."""
    h = hashlib.sha256()
    for path in [COANALYZE, PERFGEN] + sorted(
            os.path.join("perfbench", f) for f in os.listdir("perfbench")
            if f.endswith((".py", ".ml", ".txt"))):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_exact(key, exact):
    """Compare [exact] with what an earlier run of the same code, workload,
    seed and mode recorded in this checkout; record it if new.  Returns a
    problem or None."""
    path = os.path.join(STATE_DIR, "exact.json")
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    before = record.get(key)
    if before is not None:
        if before != exact:
            return "exact counts differ from an earlier run: %s vs %s" % (
                exact, before)
        return None
    record[key] = exact
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, path)
    return None


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "audit", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    signal.signal(signal.SIGTERM, on_signal)
    work = os.path.join(STATE_DIR, "run-%d" % os.getpid())
    try:
        units = declared_units(args.trace)
        build()
        os.makedirs(work)
        if args.workload == "serve":
            w = ServeWorkload(args.seed, args.seconds, work)
        else:
            w = CliWorkload(args.workload == "audit", args.seed, args.seconds,
                            work)
        metrics, info, attempted, failed, exact = (
            w.traced() if args.trace else w.timed())
        unknown = sorted(set(metrics) - set(units))
        if unknown:
            raise BenchError("metrics not in BENCHMARK.json: %s" % unknown)
        key = "%s/%s/seed=%d/trace=%d" % (fingerprint(), args.workload,
                                          args.seed, args.trace)
        problem = check_exact(key, exact)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        kill_children()
        shutil.rmtree(work, ignore_errors=True)
    for f in failed[:20] + ([problem] if problem else []):
        print("FAILED %s" % f)
    print("workload %s seed %d trace %d: %s" % (
        args.workload, args.seed, args.trace, json.dumps(info)))
    print("exact counts: %s" % json.dumps(exact, sort_keys=True))
    # a layer the workload does not pass through reads 0
    values = {name: metrics.get(name, 0.0) for name in units}
    for name in units:
        print("  %-34s %14.6g %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": not failed and problem is None,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
