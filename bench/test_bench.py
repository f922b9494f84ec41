"""Tests of the benchmark's own code.

    python3 -m unittest discover -s bench

Run from the root of a checkout; boolprod itself is only used to produce
real outputs for the oracle to accept, and then to reject once perturbed.
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cases  # noqa: E402
import oracle  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _record(command: str, result: dict) -> dict:
    return {"command": command, "params": {}, "result": result, "version": "0"}


def _terms(text: str) -> list:
    """'2 s[3] + s[2,1]' -> JSON term entries."""
    out = []
    for piece in text.split(" + "):
        coeff, _, label = piece.rpartition(" ")
        out.append({"partition": label[2:-1], "coeff": coeff or "1"})
    return out


class OracleAcceptsKnownOutputs(unittest.TestCase):
    """Outputs quoted in the README pass."""

    def test_readme_examples(self):
        oracle.check_cli(["boolean-expand", "--n", "3", "--k", "2"],
                         _record("boolean-expand", {"terms": _terms("s[2,1]")}))
        oracle.check_cli(["schur-at", "--lambda", "2,1", "--n", "3", "--k", "2"],
                         _record("schur-at", {"terms": _terms("2 s[3] + 5 s[2,1] + 4 s[1,1,1]")}))
        oracle.check_cli(["lascoux", "--n", "2", "--kind", "symmetric"],
                         _record("lascoux", {"equal": True, "terms": _terms(
                             "4 s[2,1] + 2 s[2] + 6 s[1,1] + 3 s[1] + s[-]")}))
        oracle.check_cli(["derangement", "--n", "4", "--q", "-1"],
                         _record("derangement", {"dimension": 9, "terms": _terms(
                             "s[3,1] + s[2,2] + s[2,1,1] + s[1,1,1,1]")}))
        oracle.check_cli(["charpoly", "--n", "3", "--method", "mobius"],
                         _record("charpoly", {"n": 3, "chi": [-9, 15, -7, 1], "regions": 32, "bounded": 0}))
        oracle.check_cli(["bialphabet", "--n", "2", "--m", "1", "--j", "1", "--k", "1"],
                         _record("bialphabet", {"terms": [
                             {"x": "1,1", "y": "-", "coeff": "1"},
                             {"x": "1", "y": "1", "coeff": "1"},
                             {"x": "-", "y": "2", "coeff": "1"}]}))

    def test_flag_without_value(self):
        oracle.check_cli(["regions", "--n", "4", "--allow-long"],
                         _record("regions", {"n": 4, "chi": [104, -170, 80, -15, 1],
                                             "regions": 370, "bounded": 0}))


class OracleRejectsWrongOutputs(unittest.TestCase):
    def test_every_single_bump_of_a_real_expansion(self):
        from boolprod import boolean_product, pjk_expand

        forms = oracle.subset_forms(5, 3)
        terms = dict(boolean_product(5, 3).terms)
        oracle.check_product(terms, 5, forms)
        for la in terms:
            for delta in (1, -1):
                bumped = dict(terms)
                bumped[la] += delta
                with self.assertRaises(oracle.OracleError, msg=f"{la} {delta:+d}"):
                    oracle.check_product(bumped, 5, forms)
        with self.assertRaises(oracle.OracleError):
            oracle.check_product({**terms, (5, 5, 5): 1}, 5, forms)

        bi = dict(pjk_expand(2, 3, 1, 2).terms)
        bi_forms = oracle.bialphabet_forms(2, 3, 1, 2)
        oracle.check_bischur(bi, 2, 3, bi_forms)
        for pair in bi:
            bumped = dict(bi)
            bumped[pair] += 1
            with self.assertRaises(oracle.OracleError, msg=str(pair)):
                oracle.check_bischur(bumped, 2, 3, bi_forms)

    def test_swapped_blocks(self):
        good = {((1, 1), ()): 1, ((1,), (1,)): 1, ((), (2,)): 1}
        forms = oracle.bialphabet_forms(2, 1, 1, 1)
        oracle.check_bischur(good, 2, 1, forms)
        with self.assertRaises(oracle.OracleError):
            oracle.check_bischur({((2,), ()): 1, ((1,), (1,)): 1, ((), (1, 1)): 1}, 2, 1, forms)

    def test_wrong_chi(self):
        chi = [104, -170, 80, -15, 1]
        oracle.check_charpoly(4, chi, 370, 0)
        # adding t^2 - 1 keeps chi(1), chi(-1) and the top two coefficients,
        # so only the point count over F_5 can see it
        with self.assertRaises(oracle.OracleError):
            oracle.check_charpoly(4, [103, -170, 81, -15, 1], 370, 0)
        with self.assertRaises(oracle.OracleError):
            oracle.check_charpoly(4, [105, -171, 80, -15, 1], 372, 0)
        with self.assertRaises(oracle.OracleError):
            oracle.check_charpoly(6, [371909, -510524, 159460, -22435, 1652, -63, 1], 1066045, 0)

    def test_wrong_point_count(self):
        from boolprod.resonance import complement_count

        for n, p in ((3, 5), (4, 7), (5, 11), (6, 17)):
            self.assertEqual(oracle.brute_complement_count(n, p), complement_count(n, p), (n, p))
        argv = ["count", "--n", "6", "--p", "17"]
        good = {"n": 6, "p": 17, "count": complement_count(6, 17)}
        oracle.check_cli(argv, {"command": "count", "result": good})
        for wrong in ({**good, "count": good["count"] + 16}, {**good, "p": 19}):
            with self.assertRaises(oracle.OracleError):
                oracle.check_cli(argv, {"command": "count", "result": wrong})

    def test_wrong_integers(self):
        with self.assertRaises(oracle.OracleError):
            oracle.check_call("binomial_det", ((3, 2, 1), (1,), 3), oracle.binomial_det_value((3, 2, 1), (1,), 3) + 1)
        counts = oracle.even_ascent_counts(4)
        # the q = -1 coefficients of the README's `derangement --n 4` example
        self.assertEqual(counts, {(4,): 0, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1})
        with self.assertRaises(oracle.OracleError):
            oracle.check_call("a_coeffs_syt", (4,), {**counts, (4,): counts[(4,)] + 1})


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent):
        return [name, start, end, parent, 0, 0, 0]

    def test_synthetic_tree(self):
        tree = [
            self.span("cli.main", 0.0, 10.0, -1),
            self.span("boolean.boolean_product", 1.0, 6.0, 0),
            self.span("polyring.alphabet_product", 1.5, 3.5, 1),
            self.span("polyring.poly_product", 2.0, 3.0, 2),
            self.span("schur.m_to_schur", 4.0, 5.5, 1),
            self.span("resonance.charpoly_ff", 7.0, 9.0, 0),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 1.5, 1.0, 1.0, 1.5, 2.0])
        figures = spans.layer_metrics(tree, [])
        self.assertEqual(figures["polyring.product_s"], 2.0)
        self.assertEqual(figures["polyring.calls"], 1)  # the nested product is not counted again
        self.assertEqual(figures["cli.self_s"], 3.0)
        self.assertEqual(figures["trace.self_total_s"], 10.0)
        # no Kostka lookups at all reads as no misses, not as all misses
        self.assertEqual(figures["tableaux.kostka_hit_ratio"], 1.0)

    def test_overlapping_children_count_once(self):
        tree = [
            self.span("cli.main", 0.0, 10.0, -1),
            self.span("lascoux.gv_count", 2.0, 6.0, 0),
            self.span("lascoux.binomial_det", 4.0, 8.0, 0),
            self.span("lascoux.binomial_det", 9.0, 12.0, 0),  # runs past its parent
        ]
        self.assertEqual(spans.self_times(tree)[0], 10.0 - 6.0 - 1.0)

    def test_tracer_records_nesting(self):
        tracer = spans.Tracer()
        inner = tracer.wrap(lambda x: x + 1, "lascoux.gv_count")
        outer = tracer.wrap(lambda x: inner(x) * 2, "boolean.ep_subset")
        self.assertEqual(outer(1), 4)
        self.assertEqual([s[spans.NAME] for s in tracer.spans], ["boolean.ep_subset", "lascoux.gv_count"])
        self.assertEqual([s[spans.PARENT] for s in tracer.spans], [-1, 0])


class MetricNames(unittest.TestCase):
    def test_reported_metrics_are_the_declared_ones(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        one_pass = {"samples": {0: (1.0, 1.0)}, "spans": [], "kostka": [], "processes": 1,
                    "maxrss_kb": 1024}
        layer = run.per_layer([one_pass], [one_pass], 0.02, 0.05)
        self.assertEqual(sorted(layer), sorted(m["name"] for m in declared["per_layer"]))
        runner = run.Runner("session-sweep", 0)
        runner.pace.sample(0)
        self.assertEqual(sorted(run.end_to_end(runner, [one_pass], 0.05)),
                         sorted(m["name"] for m in declared["end_to_end"]))
        for m in declared["per_layer"] + declared["end_to_end"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(cases.WORKLOADS))


class ReferenceSpeed(unittest.TestCase):
    def test_factor_is_ref_s_over_the_mean_sample(self):
        ref = pace.REF_S
        run_pace = pace.Pace([(ref, ref), (3 * ref, 2 * ref)])
        self.assertAlmostEqual(run_pace.wall_factor(), 0.5)
        self.assertAlmostEqual(run_pace.cpu_factor(), 2 / 3)

    def test_sample_takes_its_share_of_the_time(self):
        run_pace = pace.Pace()
        run_pace.sample(0)
        self.assertEqual(len(run_pace.samples), 1)
        run_pace.sample(2.0)
        spent = sum(wall for wall, _ in run_pace.samples[1:])
        self.assertGreaterEqual(spent, pace.SHARE * 2.0)
        self.assertTrue(all(wall > 0 and cpu > 0 for wall, cpu in run_pace.samples))


class SeedOrder(unittest.TestCase):
    def test_seed_shuffles_but_keeps_the_set(self):
        for workload in cases.WORKLOADS:
            items = list(range(len(cases.cases_for(workload))))
            orders = {tuple(cases.shuffled(items, seed)) for seed in range(20)}
            self.assertGreater(len(orders), 1, workload)
            for order in orders:
                self.assertEqual(sorted(order), items)
            self.assertEqual(cases.shuffled(items, 7), cases.shuffled(items, 7))


if __name__ == "__main__":
    unittest.main()
