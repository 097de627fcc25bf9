"""Tests for the benchmark's answer checker, instance generator and
metric list.

    python3 -m unittest discover -s bench -p 'test_bench_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
from checker import Answer  # noqa: E402

# Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3, plus the
# pendant edge 5-6.
EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)]
ADJ = checker.adjacency(7, EDGES)


def mqc(gamma, vertices, mode="none", objective=None, status="optimal", tag=""):
    objective = len(vertices) if objective is None else objective
    return Answer("mqc", Fraction(gamma), mode, status, tuple(vertices), objective, tag)


def dks(k, vertices, objective, mode="none", status="optimal", tag=""):
    return Answer("dks", k, mode, status, tuple(vertices), objective, tag)


class CheckAnswer(unittest.TestCase):
    def test_set_exactly_at_gamma_passes(self):
        # {0,1,2,3}: 4 edges of 6 pairs, density exactly 2/3.
        self.assertEqual(checker.check_answer(ADJ, mqc("2/3", [0, 1, 2, 3])), [])

    def test_set_one_edge_short_of_gamma_fails(self):
        # {0,1,2,4}: 3 edges of 6 pairs, one edge short of 2/3.
        problems = checker.check_answer(ADJ, mqc("2/3", [0, 1, 2, 4]))
        self.assertTrue(any("below gamma" in p for p in problems), problems)

    def test_disconnected_set_in_connected_mode_fails(self):
        answer = mqc("1", [0, 1, 4, 5], mode="cstree", objective=4)
        problems = checker.check_answer(ADJ, answer)
        self.assertTrue(any("disconnected" in p for p in problems), problems)
        # The same set is dense enough at 1/3 and fine without connectivity.
        self.assertEqual(checker.check_answer(ADJ, mqc("1/3", [0, 1, 4, 5])), [])
        answer = mqc("1/3", [0, 1, 4, 5], mode="mpr")
        self.assertTrue(checker.check_answer(ADJ, answer))

    def test_wrong_size_for_k_fails(self):
        problems = checker.check_answer(ADJ, dks(4, [0, 1, 2], 3))
        self.assertTrue(any("k is 4" in p for p in problems), problems)

    def test_objective_must_match_recount(self):
        self.assertEqual(checker.check_answer(ADJ, dks(4, [0, 1, 2, 3], 4)), [])
        problems = checker.check_answer(ADJ, dks(4, [0, 1, 2, 3], 5))
        self.assertTrue(any("recomputed 4" in p for p in problems), problems)

    def test_limit_status_fails(self):
        answer = dks(3, [0, 1, 2], 3, status="time_limit")
        self.assertEqual(len(checker.check_answer(ADJ, answer)), 1)

    def test_infeasible_answers(self):
        self.assertEqual(checker.check_answer(ADJ, dks(3, [], 0, "lazy", "infeasible")), [])
        self.assertTrue(checker.check_answer(ADJ, mqc("1", [], status="infeasible", objective=0)))

    def test_vertex_out_of_range_fails(self):
        self.assertTrue(checker.check_answer(ADJ, dks(2, [0, 9], 0)))


class Properties(unittest.TestCase):
    def test_consistent_round_passes(self):
        answers = [
            mqc("9/20", [0, 1, 2, 3, 4, 5]),
            mqc("9/20", [0, 1, 2, 3, 4, 5], mode="mpr"),
            mqc("9/20", [0, 1, 2, 3, 4, 5], mode="cstree"),
            mqc("1", [0, 1, 2]),
            mqc("1", [0, 1, 2], mode="cstree"),
            dks(3, [0, 1, 2], 3),
            dks(3, [0, 1, 2], 3, mode="cflow"),
            dks(3, [3, 4, 5], 3, mode="lazy"),
        ]
        self.assertEqual(checker.check_properties(ADJ, answers, [(0, 1, 2)]), [])

    def test_optimum_rising_with_gamma_is_caught(self):
        answers = [mqc("1/2", [0, 1, 2]), mqc("2/3", [0, 1, 2, 3])]
        problems = checker.check_properties(ADJ, answers)
        self.assertTrue(any("rises" in p for p in problems), problems)

    def test_connected_above_unconstrained_is_caught(self):
        answers = [dks(4, [0, 1, 2, 4], 3), dks(4, [0, 1, 2, 3], 4, mode="cstree")]
        problems = checker.check_properties(ADJ, answers)
        self.assertTrue(any("above unconstrained" in p for p in problems), problems)

    def test_encodings_that_disagree_are_caught(self):
        answers = [dks(4, [0, 1, 2, 3], 4, mode="cstree"), dks(4, [2, 3, 4, 5], 5, mode="cflow")]
        problems = checker.check_properties(ADJ, answers)
        self.assertTrue(any("disagree" in p for p in problems), problems)

    def test_lp_and_mps_must_agree(self):
        answers = [
            dks(2, [0, 1], 1, tag="@lp"),
            dks(2, [0, 6], 0, tag="@mps"),
        ]
        problems = checker.check_properties(ADJ, answers)
        self.assertTrue(any("disagree" in p for p in problems), problems)

    def test_answer_below_planted_block_is_caught(self):
        problems = checker.check_properties(ADJ, [dks(3, [4, 5, 6], 2)], [(0, 1, 2)])
        self.assertTrue(any("below block value 3" in p for p in problems), problems)
        problems = checker.check_properties(ADJ, [mqc("1", [5, 6])], [(3, 4, 5)])
        self.assertTrue(any("below block value 3" in p for p in problems), problems)


class Instances(unittest.TestCase):
    def test_generation_is_deterministic_and_blocks_are_apart(self):
        for name in instances.RECIPES:
            first, second = instances.generate(name), instances.generate(name)
            self.assertEqual(first, second)
            adj = checker.adjacency(first.n, first.edges)
            self.assertTrue(checker.connected(adj, range(first.n)))
            self.assertGreaterEqual(len(first.blocks), 2)
            for a in first.blocks:
                for b in first.blocks:
                    if a != b:
                        self.assertFalse(any(adj[v] & set(b) for v in a))

    def test_every_seed_gives_the_same_edges(self):
        inst = instances.generate("grid")
        for seed in (0, 1, 2):
            pairs = set()
            for line in instances.edge_list_text(inst, seed).splitlines()[2:]:
                u, v = map(int, line.split())
                pairs.add((min(u, v), max(u, v)))
            self.assertEqual(sorted(pairs), list(inst.edges))
        self.assertNotEqual(
            instances.edge_list_text(inst, 1), instances.edge_list_text(inst, 2)
        )


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_what_the_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(declared, printed)
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS)
        )

    def test_tail_has_ten_cells_beyond_it(self):
        values = [float(v) for v in range(208)]
        self.assertEqual(run.tail(values), 197.0)  # p95: 198th of 208
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 3.0)


if __name__ == "__main__":
    unittest.main()
