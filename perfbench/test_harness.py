"""Self-tests of the harness's arithmetic; they need no build and no server.

    python3 perfbench/test_harness.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import oracle, schedule, spans, stats  # noqa: E402

# Two rows of the default-seed sweep (the CSV that hashes to
# tests/golden/sweep_full.sha256) and the digests a live `pra serve`
# answered for the same (network, repr, engine, seed).
GOLDEN_ROWS = (
    "network,repr,engine,cycles,terms,speedup\n"
    "Alexnet,fp16,PRA-2b,248286,851748800,2.5517\n"
    "VGG19,quant8,PRA-2b-1R,2036947,24810419328,3.5471\n"
)
LIVE_DIGESTS = {
    ("Alexnet", "fp16", "PRA-2b"): "74c9ded3ff72a364bcd8499bb63c8207d6501aa67d554620d200bf27826f3bb2",
    ("VGG19", "quant8", "PRA-2b-1R"): "b920120263ccfae24db8b1d3b3851ed49bdf59cfc9f88b5d710a6a231051793d",
}


class Percentiles(unittest.TestCase):
    def test_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 95), 95)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 95), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(1, 201))), (95, 190, 10))
        self.assertFalse(stats.supported(95, 199))
        pct, value, beyond = stats.tail(list(range(1, 200)))
        self.assertEqual((value, beyond), (189, 10))
        self.assertAlmostEqual(pct, 100 * 189 / 199)

    def test_too_few_for_a_tail_falls_back_to_the_median(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(stats.tail(values), (60.0, 3, 2))
        self.assertEqual(stats.tail(values)[1], stats.median(values))


class Schedules(unittest.TestCase):
    def lines(self, requests):
        return [(r.at, r.line()) for r in requests]

    def test_churn_is_deterministic_per_seed(self):
        a = schedule.churn(5, 20, 10.0)
        self.assertEqual(self.lines(a), self.lines(schedule.churn(5, 20, 10.0)))
        self.assertNotEqual(self.lines(a), self.lines(schedule.churn(6, 20, 10.0)))

    def test_churn_cycles_24_keys_with_churn_engines(self):
        requests = schedule.churn(5, 20, 10.0)
        self.assertEqual(len(requests), 200)
        self.assertEqual([r.id for r in requests], list(range(1, 201)))
        self.assertEqual([r.at for r in requests], sorted(r.at for r in requests))
        self.assertTrue(all(0 <= r.at < 20 for r in requests))
        keys = schedule.churn_keys(5)
        self.assertEqual(len(set(keys)), 24)
        for i, req in enumerate(requests):
            self.assertEqual((req.network, req.repr, req.seed), keys[i % 24])
            self.assertIn(req.engine, schedule.CHURN_ENGINES)
        self.assertNotEqual(schedule.churn_seed(5), schedule.DEFAULT_SEED)

    def test_churn_alternates_engines_and_versions_per_key(self):
        for seed in (1, 2, 3):
            requests = schedule.churn(seed, 35, 10.0)
            self.assertEqual(len(requests), 350)
            per_key = {}
            for r in requests:
                per_key.setdefault((r.network, r.repr, r.seed), []).append(r)
            self.assertEqual(sorted(len(v) for v in per_key.values()), [14] * 10 + [15] * 14)
            for visits in per_key.values():
                self.assertLessEqual(abs(sum(r.v == 2 for r in visits) * 2 - len(visits)), 1)
                self.assertLessEqual(abs(sum(r.engine == "PRA-2b" for r in visits) * 2 - len(visits)), 1)

    def test_request_lines_match_the_wire_format(self):
        req = schedule.Request(9, 0.5, "NiN", "quant8", "PRA-4b", schedule.DEFAULT_SEED, 2)
        self.assertEqual(
            req.line(),
            '{"id": 9, "network": "NiN", "repr": "quant8", "engine": "PRA-4b", '
            '"seed": "0x90ad57ee12345678", "v": 2}',
        )


class DigestOracle(unittest.TestCase):
    def test_digest_matches_live_answers(self):
        rows = oracle.parse_csv(GOLDEN_ROWS)
        for (net, repr_, engine), want in LIVE_DIGESTS.items():
            cycles, terms, speedup = rows[(net, repr_, engine)]
            got = oracle.digest(net, repr_, engine, schedule.DEFAULT_SEED, cycles, terms, speedup)
            self.assertEqual(got, want)

    def ok_line(self, **over):
        fields = {
            "id": 4,
            "cycles": 248286,
            "terms": 851748800,
            "speedup": "2.5517",
            "digest": LIVE_DIGESTS[("Alexnet", "fp16", "PRA-2b")],
        }
        fields.update(over)
        return (
            '{{"id": {id}, "status": "ok", "network": "Alexnet", "repr": "fp16", '
            '"engine": "PRA-2b", "seed": "0x90ad57ee12345678", "cycles": {cycles}, '
            '"terms": {terms}, "speedup": {speedup}, "digest": "{digest}", "batch_size": 2, '
            '"enqueue_ms": 0.1, "batch_ms": 2.0, "sim_ms": 9.0, "total_ms": 11.1}}'
        ).format(**fields)

    def test_check_accepts_the_right_answer_only(self):
        o = oracle.Oracle()
        o.add_sweep(schedule.DEFAULT_SEED, GOLDEN_ROWS)
        req = schedule.Request(4, 0.0, "Alexnet", "fp16", "PRA-2b", schedule.DEFAULT_SEED, 1)
        self.assertIsNone(o.check(req, self.ok_line()))
        self.assertIsNotNone(o.check(req, self.ok_line(cycles=248287)))
        self.assertIsNotNone(o.check(req, self.ok_line(digest="0" * 64)))
        self.assertIsNotNone(o.check(req, self.ok_line(id=5)))
        self.assertIsNotNone(o.check(req, '{"id": 4, "status": "shed", "reason": "queue_full"}'))
        other = schedule.Request(4, 0.0, "Alexnet", "fp16", "PRA-2b", 1, 1)
        self.assertIsNotNone(o.check(other, self.ok_line()))


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        s = [
            spans.Span(1, 0, "root", 0.0, 10.0),
            spans.Span(2, 1, "a", 1.0, 3.0),
            spans.Span(3, 1, "b", 2.0, 5.0),  # overlaps a: counted once
            spans.Span(4, 1, "c", 7.0, 8.0),
            spans.Span(5, 3, "grandchild", 2.5, 4.0),  # only b's child
            spans.Span(6, 1, "late", 9.5, 12.0),  # clipped to the parent
        ]
        self_t = spans.self_times(s)
        self.assertAlmostEqual(self_t[1], 10.0 - (4.0 + 1.0 + 0.5))
        self.assertAlmostEqual(self_t[3], 3.0 - 1.5)
        self.assertAlmostEqual(self_t[2], 2.0)
        self.assertAlmostEqual(self_t[6], 2.5)

    def test_covered(self):
        self.assertAlmostEqual(spans.covered(0, 10, []), 0.0)
        self.assertAlmostEqual(spans.covered(0, 10, [(-5, 20)]), 10.0)
        self.assertAlmostEqual(spans.covered(0, 10, [(1, 2), (1, 2), (3, 4)]), 2.0)


if __name__ == "__main__":
    unittest.main()
