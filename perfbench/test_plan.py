"""The benchmark's own tests.  From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest
from collections import OrderedDict

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import plan  # noqa: E402
import run  # noqa: E402


class TailRank(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in (11, 12, 100, 1601):
            i = plan.tail_rank(n)
            self.assertEqual(n - 1 - i, 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            plan.tail_rank(10)

    def test_summary(self):
        s = plan.latency_summary([float(x) for x in range(100, 0, -1)])
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["tail"], 90.0)
        self.assertEqual(s["tail_percentile"], 90.0)
        self.assertEqual(s["p50"], 50.5)

    def test_tail_over_the_first_ops(self):
        lat = [float(x) for x in range(1, 201)]
        s = plan.latency_summary(lat, 50)
        self.assertEqual((s["n"], s["tail_n"]), (200, 50))
        self.assertEqual(s["tail"], 40.0)
        self.assertEqual(s["tail_percentile"], 80.0)
        self.assertEqual(s["p50"], 100.5)
        with self.assertRaises(ValueError):
            plan.latency_summary(lat, 201)


class ExploreOps(unittest.TestCase):
    def test_same_seed_same_ops(self):
        def seq(seed):
            return [(op.request, op.model, op.engine, op.expect)
                    for op in plan.explore_ops(seed)]
        self.assertEqual(seq(7), seq(7))
        self.assertNotEqual(seq(7), seq(8))

    def test_shares_fixed_by_position(self):
        ops = plan.explore_ops(3, 3 * len(plan.FIXED))
        gen = [op for op in ops if op.request.startswith("gen ")]
        self.assertEqual(len(gen), 2 * len(plan.FIXED))
        self.assertEqual(len({op.request for op in gen}), len(gen))
        fixed = [op for op in ops if not op.request.startswith("gen ")]
        self.assertEqual(sorted((op.request, op.model, op.expect)
                                for op in fixed), sorted(plan.FIXED))
        self.assertEqual([op.engine for op in ops[:4]],
                         ["full", "stubborn", "full", "stubborn"])

    def test_every_stratum_in_every_round(self):
        # each STRATA Generator draws take one program from every stratum,
        # so seeds differ in the programs they draw, not in their sizes
        stratum = {s: k for k, st in enumerate(plan.strata()) for s in st}
        for seed in (1, 2):
            gen = [int(op.request.split()[1]) for op in plan.explore_ops(seed)
                   if op.request.startswith("gen ")]
            for r in range(0, len(gen) - plan.STRATA + 1, plan.STRATA):
                self.assertEqual(sorted(stratum[s] for s in gen[r:r + plan.STRATA]),
                                 list(range(plan.STRATA)))

    def test_strata_ordered_by_size(self):
        with open(plan.POOL_FILE) as f:
            size = dict(tuple(int(x) for x in line.split()) for line in f)
        st = plan.strata()
        self.assertEqual(sum(len(x) for x in st), plan.POOL_SIZE)
        for lower, upper in zip(st, st[1:]):
            self.assertLessEqual(max(size[s] for s in lower),
                                 min(size[s] for s in upper))


class SpeedFactors(unittest.TestCase):
    def test_nearest_probes(self):
        probes = [(float(t), ms) for t, ms in
                  enumerate([12.0, 24.0, 24.0, 12.0, 12.0])]
        f = plan.speed_factors
        self.assertEqual(f([1.5], probes, 2), [plan.REF_MS / 24.0])
        self.assertEqual(f([4.0], probes, 2), [plan.REF_MS / 12.0])
        self.assertEqual(f([-3.0], probes, 1), [plan.REF_MS / 12.0])
        self.assertEqual(f([2.0], probes, 3), [plan.REF_MS / 20.0])
        # fewer probes than asked for: all of them
        self.assertEqual(f([0.0], probes, 9), [plan.REF_MS / 16.8])

    def test_no_probes(self):
        with self.assertRaises(ValueError):
            plan.speed_factors([1.0], [], 3)


def simulate_lru(stream):
    """Hit/miss sequence of an LRU cache of SERVE_CACHE_CAP entries keyed by
    program, as the daemon's cache would answer the stream."""
    cache, out = OrderedDict(), []
    for sub in stream:
        key = sub.gen_seed
        if key in cache:
            cache.move_to_end(key)
            out.append(False)
        else:
            cache[key] = True
            if len(cache) > plan.SERVE_CACHE_CAP:
                cache.popitem(last=False)
            out.append(True)
    return out


class ServeStream(unittest.TestCase):
    def test_same_seed_same_stream(self):
        def seq(seed, epoch):
            return [(s.file, s.gen_seed, s.miss)
                    for s in plan.serve_stream(seed, epoch)]
        self.assertEqual(seq(5, 0), seq(5, 0))
        self.assertNotEqual(seq(5, 0), seq(6, 0))
        self.assertNotEqual(seq(5, 0), seq(5, 1))

    def test_commit_shape(self):
        stream = plan.serve_stream(9, 0)
        files = plan.SERVE_FILES
        self.assertEqual(len(stream), files * (1 + plan.EPOCH_COMMITS))
        self.assertTrue(all(s.miss for s in stream[:files]))
        for c in range(plan.EPOCH_COMMITS):
            commit = stream[files * (c + 1):files * (c + 2)]
            self.assertEqual([s.file for s in commit], list(range(files)))
            self.assertEqual(sum(s.miss for s in commit), plan.SERVE_CHANGED)

    def test_prediction_matches_lru(self):
        # only superseded versions are ever evicted, so the stream's
        # hit/miss tags are what the daemon's LRU must answer
        for epoch in range(3):
            stream = plan.serve_stream(11, epoch)
            self.assertEqual(simulate_lru(stream), [s.miss for s in stream])


class Verdicts(unittest.TestCase):
    def report(self, **stats):
        base = {"configurations": 10, "transitions": 20, "deadlocks": 0,
                "errors": 0}
        base.update(stats)
        return {"exit_code": 0, "stage_failures": [], "degraded": False,
                "stats": base, "races": [], "static": {"findings": []}}

    def test_expectations(self):
        p = plan.verdict_problem
        self.assertIsNone(p(self.report(), 0, "clean", False))
        self.assertIsNotNone(p(self.report(), 0, "deadlock", False))
        self.assertIsNone(p(self.report(deadlocks=2), 0, "deadlock", False))
        self.assertIsNotNone(p(self.report(errors=1), 0, "clean", False))
        self.assertIsNone(p(self.report(errors=1), 0, "errors", False))

    def test_exit_codes(self):
        r = self.report()
        self.assertIsNotNone(plan.verdict_problem(r, 2, "clean", False))
        r["exit_code"] = 3
        self.assertIsNotNone(plan.verdict_problem(r, 3, "clean", False))

    def test_races_need_static_findings(self):
        r = self.report()
        r["races"] = [{"stmt1": 3, "stmt2": 7}]
        self.assertIsNotNone(plan.verdict_problem(r, 0, "clean", True))
        r["static"]["findings"] = [
            {"rule": "static-race", "label": 7, "other": 3}]
        self.assertIsNone(plan.verdict_problem(r, 0, "clean", True))


class Programs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(os.path.dirname(HERE))
        run.build()

    def test_same_request_same_program(self):
        reqs = [op.request for op in plan.explore_ops(4, 60)]
        reqs += [s.request() for s in plan.serve_stream(4, 0)]
        self.assertEqual(run.sources(reqs), run.sources(reqs))

    def test_every_fixed_program_exists(self):
        src = run.sources([r for r, _, _ in plan.FIXED])
        self.assertEqual(len(src), len({r for r, _, _ in plan.FIXED}))


if __name__ == "__main__":
    unittest.main()
