"""Tests of the benchmark's metric reduction and correctness gates.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import statistics
import unittest

import metrics
import run


class ReductionTest(unittest.TestCase):
    def test_median_of_even_count_is_mean_of_middle_pair(self):
        self.assertEqual(metrics.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.1, 9.4, 9.2, 10.3, 9.3, 9.8, 9.25, 9.6, 9.35, 9.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(metrics.quartiles(values), (q1, q2, q3))

    def test_single_sample_quartiles(self):
        self.assertEqual(metrics.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_fastest_total_takes_each_piece_at_its_fastest(self):
        # three repetitions of a unit cut into two pieces
        reps = [[1.0, 5.0], [1.5, 4.0], [0.9, 4.5]]
        self.assertEqual(metrics.fastest_total(reps), 0.9 + 4.0)
        self.assertEqual(metrics.fastest_total([[0.25], [0.2], [0.3]]), 0.2)

    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.ratio(1, 4), 0.25)


class LayerMetricsTest(unittest.TestCase):
    LAYERS = {
        "passes": 2, "counts_repeat": True, "fidelity_cells": 10, "fidelity_failures": [],
        "ir.clone_ms": 1.0, "ir.clones": 10, "ir.verify_ms": 2.0, "analysis.classify_ms": 3.0,
        "instrument.ms": 4.0, "instrument.instructions_added": 40, "opt.ms": 5.0,
        "opt.instructions_removed": 6, "opt.checks_eliminated": 5, "vm.decode_ms": 6.0,
        "vm.decode_ops": 1000, "vm.fused_ops_before": 800, "vm.fused_ops_after": 600,
        "vm.execute_ms": 50.0, "vm.runs": 10, "vm.sim_instructions": 2_000_000,
        "vm.cache_hits": 900, "vm.cache_misses": 100, "vm.mem_accesses": 1000,
        "runtime.store_ops": 40, "runtime.store_contended": 10, "runtime.shard_migrations": 3,
        "runtime.store_bytes": 4096, "runtime.seal_ops": 7,
    }

    NAMES = metrics.units(run.load_json("BENCHMARK.json"), "per_layer")

    def test_ratio_bases(self):
        m = metrics.layer_metrics(self.NAMES, self.LAYERS, {})
        # ops after fusion over ops before, on the fused cells only
        self.assertEqual(m["vm.fused_op_ratio"], 600 / 800)
        self.assertEqual(m["vm.execute_ms_per_run"], 5.0)
        # 2M instructions in 50 ms = 40M instructions per second
        self.assertAlmostEqual(m["vm.sim_mips"], 40.0)
        self.assertEqual(m["vm.cache_miss_ratio"], 100 / 1000)
        self.assertEqual(m["runtime.store_contended_ratio"], 10 / 40)
        self.assertEqual(m["trace.cells"], 10)

    def test_every_metric_present_and_unused_layers_zero(self):
        m = metrics.layer_metrics(self.NAMES, self.LAYERS, {"fuzz.cells": 3})
        self.assertEqual(set(m), set(self.NAMES))
        self.assertEqual(m["fuzz.cells"], 3)
        self.assertEqual(m["suite.vm_runs"], 0)

    def test_unknown_extra_metric_is_rejected(self):
        with self.assertRaises(KeyError):
            metrics.layer_metrics(self.NAMES, self.LAYERS, {"vm.bogus": 1})

    def test_suite_counts_must_repeat(self):
        def report(modules):
            return {"table_wall_ms": {"mem_overhead": 2.0},
                    "fusion": {"modules": modules, "ops_before": 10, "ops_after": 7}}
        m, error = metrics.suite_layer_metrics([report(1477), report(1477)])
        self.assertIsNone(error)
        self.assertEqual(m["suite.vm_runs"], 1477)
        self.assertEqual(m["suite.mem_overhead_ms"], 2.0)
        self.assertEqual(m["suite.table2_compile_stats_ms"], 0.0)
        _, error = metrics.suite_layer_metrics([report(1477), report(1476)])
        self.assertIsNotNone(error)


class SuiteGateTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_tables()

    def report(self, tables):
        return json.dumps({"wall_ms": 1.0, "tables": tables})

    def test_equal_tables_pass_in_any_key_order(self):
        shuffled = dict(reversed(list(self.expected.items())))
        self.assertIsNone(metrics.suite_failure(0, self.report(shuffled), self.expected))

    def test_corrupted_tables_fail(self):
        corrupted = copy.deepcopy(self.expected)
        corrupted["ablation_churn"]["rows"][0]["epoch_contended_pct"]["16"] += 0.001
        self.assertIsNotNone(metrics.suite_failure(0, self.report(corrupted), self.expected))
        missing = copy.deepcopy(self.expected)
        del missing["table_composites"]
        self.assertIsNotNone(metrics.suite_failure(0, self.report(missing), self.expected))

    def test_nonzero_exit_or_garbage_fails(self):
        self.assertIsNotNone(metrics.suite_failure(1, self.report(self.expected), self.expected))
        self.assertIsNotNone(metrics.suite_failure(0, "{truncated", self.expected))
        self.assertIsNotNone(metrics.suite_failure(0, "[]", self.expected))


class ChurnGateTest(unittest.TestCase):
    """mt-servers cells rebuilt from the ablation_churn table: with a base of
    100000 cycles and 100000 store ops, a value of x.yyy percent is an integer
    count, so the recomputed percentages are exact."""

    def setUp(self):
        self.table = run.expected_tables()["ablation_churn"]
        self.programs = []
        for row in self.table["rows"]:
            prog = {"workload": row["workload"], "vanilla": {"cycles": 100000}}
            for column, shards, model in metrics.CHURN_GATE:
                prog[column] = {
                    "cycles": 100000 + round(1000 * row[f"{model}_overhead_pct"][shards]),
                    "store_ops": 100000,
                    "contended": round(1000 * row[f"{model}_contended_pct"][shards]),
                }
            self.programs.append(prog)

    def test_matching_cells_pass(self):
        self.assertEqual(metrics.churn_failures(self.programs, self.table), [])

    def test_wrong_cycles_fail(self):
        self.programs[0]["s16_epoch"]["cycles"] += 1
        failures = metrics.churn_failures(self.programs, self.table)
        self.assertEqual(len(failures), 1)
        self.assertIn("S=16 epoch overhead_pct", failures[0])

    def test_unknown_program_fails(self):
        self.programs[0]["workload"] = "mt-unknown"
        self.assertEqual(len(metrics.churn_failures(self.programs, self.table)), 1)


if __name__ == "__main__":
    unittest.main()
