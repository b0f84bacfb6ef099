#!/usr/bin/env python3
"""Writes perfbench/pool.txt, the Generator programs explore and audit draw
from, each with the size of its state space:

    python3 perfbench/pool.py      # from the repository root, ~3 minutes

One line per program: "SEED CONFIGURATIONS", the Generator seed of a
GEN_BRANCHES x GEN_STMTS program and the configurations `coanalyze analyze
-e full --memory-model sc --max-configs EXPLORE_CAP` reaches on it.  plan.py
sorts the pool by that size into strata, so that every run draws the same
mix of small and large state spaces (NOTES.md, "Draws")."""

import json
import os
import random
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import plan  # noqa: E402
import run  # noqa: E402


def main():
    run.build()
    rng = random.Random("perfbench pool")
    seeds = []
    for s in plan.fresh_seeds(rng):
        seeds.append(s)
        if len(seeds) == plan.POOL_SIZE:
            break
    requests = ["gen %d %d %d" % (s, plan.GEN_BRANCHES, plan.GEN_STMTS)
                for s in seeds]
    src = run.sources(requests)
    path = os.path.join(".perfbench", "pool.cob")
    os.makedirs(".perfbench", exist_ok=True)
    lines = []
    for s, req in zip(seeds, requests):
        with open(path, "w") as f:
            f.write(src[req])
        r = subprocess.run([run.COANALYZE, "analyze", path, "--json", "-",
                            "-e", "full", "--memory-model", "sc",
                            "--max-configs", str(plan.EXPLORE_CAP)],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if r.returncode not in (0, 2):
            sys.exit("pool: seed %d exits %d" % (s, r.returncode))
        lines.append("%d %d\n" % (s, json.loads(r.stdout)["stats"]["configurations"]))
    os.remove(path)
    with open(os.path.join("perfbench", "pool.txt"), "w") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
