"""What each workload runs, decided from the seed alone, and the rules that
judge and summarise the results.  No processes are started here, so the
benchmark's own tests can check it directly (test_plan.py)."""

import bisect
import json
import os
import random
import statistics

MODELS = ("sc", "tso", "pso")

# explore / audit: every op runs under this configuration cap.  It
# truncates about one Generator draw in seven, the heaviest, and no fixed
# program; NOTES.md says why.
EXPLORE_CAP = 6500
GEN_BRANCHES = 3
GEN_STMTS = 3

# The Generator programs explore and audit draw from (pool.txt, written by
# pool.py): POOL_SIZE programs, sorted by state-space size into STRATA
# strata of equal size.  Every STRATA Generator ops of a run take one
# program from each stratum, so every seed draws the same mix of sizes.
POOL_SIZE = 2400
STRATA = 20
POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pool.txt")

# Fixed programs with their known answers: (perfgen request, model, expect).
# "deadlock": at least one deadlock; "errors": at least one error
# configuration; "clean": neither.
FIXED = (
    [("phil %d %d" % (n, r), "sc", "deadlock") for n in (2, 3) for r in (1, 2)]
    + [("named %s" % p, m, "clean" if m == "sc" else "errors")
       for p in ("peterson", "dekker") for m in MODELS]
    + [("named %s" % p, m, "clean")
       for p in ("peterson_fenced", "dekker_fenced", "barrier2",
                 "readers_writers")
       for m in MODELS]
)

# serve: a project of SERVE_FILES Generator files; each commit changes
# SERVE_CHANGED of them and resubmits all.  The cache holds every current
# version, so only superseded versions are evicted.
SERVE_FILES = 40
SERVE_CHANGED = 4
SERVE_CACHE_CAP = 48
SERVE_CAP = 500
SERVE_BRANCHES = 4
SERVE_STMTS = 20
SERVE_OPTIONS = {"lint": True, "interfere": True}

# explore/audit set up SETUPS times back to back, then run one timed
# phase; setup_s is the median set-up.  A serve run is a sequence of
# epochs, each a fresh daemon with its own inputs, set-up (fill) and
# EPOCH_COMMITS commits, so that every epoch's requests meet the same
# daemon states; a run sends whole epochs, as many as bring its timed
# phase nearest --seconds, and setup_s is the median over them.
SETUPS = 3
RUN_OPS = 900       # explore/audit ops drawn per run, cycled if a run outruns them
EPOCH_COMMITS = 30
EXACT_OPS = 30      # explore/audit: exact counts over the first ops
EXACT_COMMITS = 5   # serve: exact counts after epoch 0's fill and this many commits

# The speed reference (reference.ml) runs every PROBE_EVERY ops (serve:
# every PROBE_EVERY_SERVE requests, and every PROBE_EVERY in the fill, so
# that a set-up has SETUP_PROBES probes of its own), outside the timed
# phase and the set-ups.  Every time the benchmark reports is scaled by
# REF_MS over the mean of the NEAREST_PROBES probes nearest to it
# (SETUP_PROBES for a set-up): it is the time the interval would have taken
# on a host that runs the reference in REF_MS, about its time on a quiet
# host of 2 vCPUs at 2.1 GHz.  The host's speed drifts by a factor of up to
# 1.6 within seconds; NOTES.md ("Speed reference") shows the measurements.
REF_MS = 12.0
REF_REPEATS = 3
REF_OUTPUT = "7344 20076"
PROBE_EVERY = 4
PROBE_EVERY_SERVE = 10
NEAREST_PROBES = 9
SETUP_PROBES = 8

# op_tail_ms is rank n-10 of a sample of the same size in every run: the
# run's first TAIL_OPS ops (serve: its first TAIL_EPOCHS epochs), so that
# the rank is the same percentile however fast the host ran.  A run that
# has not reached them by --seconds goes on until it has.
TAIL_OPS = {"explore": 350, "audit": 200}
TAIL_EPOCHS = 2


def epoch_rng(seed, epoch):
    return random.Random("%d/%d" % (seed, epoch))


class Op:
    """One explore/audit op: a program request, its model and engine, and
    the verdict the report must carry."""

    __slots__ = ("request", "model", "engine", "expect")

    def __init__(self, request, model, engine, expect):
        self.request, self.model = request, model
        self.engine, self.expect = engine, expect

    def cli_args(self, audit):
        args = ["-e", self.engine, "--memory-model", self.model,
                "--max-configs", str(EXPLORE_CAP)]
        return args + (["--races", "--lint"] if audit else [])

    def request_line(self, source, audit):
        """The same analysis as a serve-protocol request line."""
        options = {"engine": self.engine, "memory_model": self.model,
                   "max_configs": EXPLORE_CAP, "races": audit, "lint": audit}
        return json.dumps({"program": source, "options": options},
                          separators=(",", ":"))


def fresh_seeds(rng):
    """Distinct Generator seeds, drawn from [rng]."""
    used = set()
    while True:
        s = rng.randrange(1, 1 << 30)
        if s not in used:
            used.add(s)
            yield s


# the untimed warm-up op of every explore/audit set-up: the same for
# every seed, so that set-up time does not depend on the draw, and long
# enough (about 0.25 s) that the exploration, not process start-up,
# dominates it
WARMUP = Op("named peterson", "pso", "full", "errors")


_strata = None


def strata():
    """The pool's Generator seeds in STRATA lists, smallest state spaces
    first."""
    global _strata
    if _strata is None:
        with open(POOL_FILE) as f:
            pool = [tuple(int(x) for x in line.split()) for line in f]
        if len(pool) != POOL_SIZE:
            raise ValueError("%s holds %d programs, not %d"
                             % (POOL_FILE, len(pool), POOL_SIZE))
        pool.sort(key=lambda p: (p[1], p[0]))
        size = POOL_SIZE // STRATA
        _strata = [[p[0] for p in pool[k * size:(k + 1) * size]]
                   for k in range(STRATA)]
    return _strata


def pool_draws(rng):
    """Generator seeds from the pool: each run of STRATA draws takes one
    program from every stratum, in a shuffled order; within a stratum,
    programs come in a shuffled order and repeat only after all of it."""
    lists = [[] for _ in range(STRATA)]
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for k in order:
            if not lists[k]:
                lists[k] = list(strata()[k])
                rng.shuffle(lists[k])
            yield lists[k].pop()


def explore_ops(seed, count=RUN_OPS):
    """The op list of an explore (and, with --races --lint, audit) run.
    Two ops in three are Generator programs drawn from the pool; every
    third op is the next entry of a seeded shuffle of FIXED.  Engines
    alternate full/stubborn.  The shares are fixed by position and the
    Generator draws by stratum, so runs of different seeds differ only in
    which programs they draw, not in the mix of sizes."""
    rng = random.Random("explore/%d" % seed)
    draws = pool_draws(rng)
    ops, cycle = [], []
    for i in range(count):
        engine = "full" if i % 2 == 0 else "stubborn"
        if i % 3 < 2:
            ops.append(Op("gen %d %d %d" % (next(draws), GEN_BRANCHES,
                                            GEN_STMTS),
                          "sc", engine, "clean"))
        else:
            if not cycle:
                cycle = list(FIXED)
                rng.shuffle(cycle)
            request, model, expect = cycle.pop()
            ops.append(Op(request, model, engine, expect))
    return ops


class Submission:
    """One serve request: which project file, the Generator seed of its
    current version, and whether the daemon must answer it as a miss."""

    __slots__ = ("file", "gen_seed", "miss")

    def __init__(self, file, gen_seed, miss):
        self.file, self.gen_seed, self.miss = file, gen_seed, miss

    def request(self):
        return "gen %d %d %d" % (self.gen_seed, SERVE_BRANCHES, SERVE_STMTS)


def serve_stream(seed, epoch):
    """One serve epoch: the fill (every file once, all misses) followed by
    EPOCH_COMMITS commits of SERVE_FILES submissions each, in file order."""
    rng = epoch_rng(seed, epoch)
    seeds = fresh_seeds(rng)
    versions = [next(seeds) for _ in range(SERVE_FILES)]
    stream = [Submission(j, versions[j], True) for j in range(SERVE_FILES)]
    for _ in range(EPOCH_COMMITS):
        changed = set(rng.sample(range(SERVE_FILES), SERVE_CHANGED))
        for j in sorted(changed):
            versions[j] = next(seeds)
        stream += [Submission(j, versions[j], j in changed)
                   for j in range(SERVE_FILES)]
    return stream


def serve_request_line(source):
    return json.dumps({"program": source, "options": SERVE_OPTIONS},
                      separators=(",", ":"))


# --- summaries ---

def speed_factors(midpoints, probes, k):
    """For each time in [midpoints], REF_MS over the mean of the [k] probes
    nearest to it.  [probes] is a list of (time, ms) in time order."""
    times = [t for t, _ in probes]
    out = []
    for m in midpoints:
        hi = bisect.bisect_left(times, m)
        lo = hi
        while hi - lo < k and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and m - times[lo - 1] <= times[hi] - m):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no speed probes")
        out.append(REF_MS / statistics.mean(ms for _, ms in probes[lo:hi]))
    return out


def tail_rank(n):
    """0-based index, in ascending order, of the latency at rank n-10: the
    highest sample with at least ten samples beyond it."""
    if n < 11:
        raise ValueError("op_tail_ms needs at least 11 ops, got %d" % n)
    return n - 11


def tail_percentile(n):
    return 100.0 * (n - 10) / n


def latency_summary(latencies_ms, tail_n=None):
    """p50 over all [latencies_ms]; the tail at rank n-10 of the first
    [tail_n] of them (all, by default)."""
    n = len(latencies_ms) if tail_n is None else tail_n
    if n > len(latencies_ms):
        raise ValueError("op_tail_ms needs %d ops, got %d"
                         % (n, len(latencies_ms)))
    head = sorted(latencies_ms[:n])
    return {"n": len(latencies_ms), "tail_n": n,
            "p50": statistics.median(latencies_ms), "tail": head[tail_rank(n)],
            "tail_percentile": tail_percentile(n)}


# --- known answers ---

def verdict_problem(report, exit_code, expect, audit):
    """Why a report fails its known answer, or None."""
    if exit_code not in (0, 2, 4):
        return "exit code %d" % exit_code
    if report.get("exit_code") != exit_code:
        return "report exit_code %r, process %d" % (report.get("exit_code"),
                                                    exit_code)
    if report.get("stage_failures") or report.get("degraded"):
        return "stage failures or degraded run"
    stats = report["stats"]
    if expect == "deadlock" and stats["deadlocks"] < 1:
        return "no deadlock found"
    if expect == "errors" and stats["errors"] < 1:
        return "no error configuration found"
    if expect == "clean" and (stats["deadlocks"] or stats["errors"]):
        return "unexpected deadlock or error"
    if audit:
        if report.get("races") is None or report.get("static") is None:
            return "race scan or lints missing"
        static = {frozenset((f["label"], f["other"]))
                  for f in report["static"]["findings"]
                  if f["rule"] == "static-race"}
        for r in report["races"]:
            if frozenset((r["stmt1"], r["stmt2"])) not in static:
                return "race s%d/s%d has no static-race finding" % (
                    r["stmt1"], r["stmt2"])
    return None
