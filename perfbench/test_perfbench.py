"""Tests of the benchmark's output check, its failed-cell count and its metric tables.

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import check  # noqa: E402
import run  # noqa: E402

REFERENCE = check.load_reference(HERE / "reference.json")
ALL_BENCHES = set(check.BENCHES)


def recorded(**host_fields):
    """The reference as a pass would record it, with host-timed fields added."""
    out = []
    for record in REFERENCE.values():
        r = copy.deepcopy(record)
        r.update({"wall_ns": 123456789, "unix_time": 1786211648, "threads": 1,
                  "host_cpus": 4, "shards": 1, "quick": True})
        r.update(host_fields)
        out.append(r)
    return out


def find(records, bench, cell):
    return next(r for r in records if r["bench"] == bench and r["cell"] == cell)


class OutputCheckTest(unittest.TestCase):
    def test_reference_passes(self):
        self.assertEqual(check.compare(REFERENCE, recorded(), ALL_BENCHES), [])

    def test_rejects_mi_bits_changed_in_sixth_significant_digit(self):
        records = recorded()
        cell = find(records, "fig3_kernel_channel", "Haswell (x86)/ts=0.25ms/raw")
        self.assertEqual(cell["mi_bits"], 1.28856)
        cell["mi_bits"] = 1.28857
        problems = check.compare(REFERENCE, records, ALL_BENCHES)
        self.assertEqual(len(problems), 1)
        self.assertIn("mi_bits", problems[0])

    def test_accepts_digits_beyond_the_recorded_precision(self):
        records = recorded()
        find(records, "fig3_kernel_channel", "Haswell (x86)/ts=0.25ms/raw")["mi_bits"] = 1.2885649
        self.assertEqual(check.compare(REFERENCE, records, ALL_BENCHES), [])

    def test_rejects_changed_switch_us(self):
        records = recorded()
        cell = find(records, "table6_switch_cost", "Haswell (x86)/L1-D/protected")
        cell["metrics"]["switch_us"] *= 1.001
        problems = check.compare(REFERENCE, records, ALL_BENCHES)
        self.assertEqual(len(problems), 1)
        self.assertIn("switch_us", problems[0])

    def test_ignores_host_timed_fields(self):
        records = recorded(wall_ns=1, unix_time=2, threads=4, host_cpus=64, shards=3,
                           ns_per_op=9.5, contract_clean=False, contract_switches=7,
                           contract_first="L1-D ...")
        self.assertEqual(check.compare(REFERENCE, records, ALL_BENCHES), [])

    def test_rejects_missing_extra_duplicate_and_failed_cells(self):
        records = [r for r in recorded() if r["bench"] == "table6_switch_cost"]
        missing = records.pop()
        records.append(dict(records[0], cell="Haswell (x86)/L4/raw"))
        records.append(dict(records[1]))
        records[2]["cell_status"] = "timeout"
        problems = check.compare(REFERENCE, records, {"table6_switch_cost"})
        self.assertEqual(len(problems), 4)
        self.assertTrue(any(missing["cell"] in p and "missing" in p for p in problems))
        self.assertTrue(any("L4" in p for p in problems))
        self.assertTrue(any("twice" in p for p in problems))
        self.assertTrue(any("timeout" in p for p in problems))

    def test_compares_only_the_workload_benches(self):
        records = [r for r in recorded() if r["bench"] == "table6_switch_cost"]
        self.assertEqual(check.compare(REFERENCE, records, {"table6_switch_cost"}), [])
        self.assertTrue(check.compare(REFERENCE, records, ALL_BENCHES))


class FailedCellsTest(unittest.TestCase):
    def test_counts_zero_sample_mi_cell_and_all_zero_cost_cell(self):
        records = [
            {"bench": "fig3_kernel_channel", "cell": "a", "samples": 0, "mi_bits": 0},
            {"bench": "fig3_kernel_channel", "cell": "b", "samples": 142, "mi_bits": 0.5},
            {"bench": "table6_switch_cost", "cell": "c", "metrics": {"switch_us": 0}},
            {"bench": "table8_timeshared", "cell": "d",
             "metrics": {"overhead": 0, "accesses": 7}},
            {"bench": "table3_intra_core", "cell": "e", "samples": 0, "cell_status": "failed"},
        ]
        self.assertEqual(check.failed_cells(records), [
            ("fig3_kernel_channel", "a", "0 samples"),
            ("table6_switch_cost", "c", "every metric 0"),
            ("table3_intra_core", "e", "failed"),
        ])

    def test_reference_names_the_three_degenerate_cells(self):
        self.assertEqual(sorted(check.failed_cells(recorded())), [
            ("table3_intra_core", "Haswell (x86)/L2/full flush", "0 samples"),
            ("table6_switch_cost", "Sabre (Arm)/L2/protected", "every metric 0"),
            ("table6_switch_cost", "Sabre (Arm)/L2/raw", "every metric 0"),
        ])


class ProvenanceTest(unittest.TestCase):
    def test_reference_is_the_committed_quick_grid_output(self):
        results = HERE.parent / "BENCH_results.json"
        if not results.exists():
            self.skipTest("no BENCH_results.json in this checkout")
        extracted = check.extract_reference(str(results), "pr6-contract-baseline")
        with open(HERE / "reference.json", encoding="utf-8") as f:
            self.assertEqual(extracted["records"], json.load(f)["records"])

    def test_reference_cell_counts(self):
        counts = {}
        for bench, _ in REFERENCE:
            counts[bench] = counts.get(bench, 0) + 1
        self.assertEqual(counts, {"fig3_kernel_channel": 12, "table3_intra_core": 33,
                                  "table6_switch_cost": 27, "fig7_splash_colouring": 132,
                                  "table8_timeshared": 110})

    def test_benchmark_json_matches_the_metric_tables(self):
        path = HERE.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json in this checkout")
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))

    def test_metric_names_and_units_are_well_formed(self):
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")


if __name__ == "__main__":
    unittest.main()
