"""Output check of the benchmark: recorded cells against the committed reference.

Only simulated fields are compared: mi_bits, m0_bits, samples, rounds and every
metrics entry. Floats compare at the precision the reference was recorded in
(%.6g). Host-timed or host-dependent fields (wall_ns, ns_per_op, unix_time,
threads, host_cpus, shards, contract_*) are never compared.

perfbench/reference.json is the quick-grid output of the benchmark's five
scenarios, extracted from BENCH_results.json label pr6-contract-baseline:

    python3 perfbench/check.py BENCH_results.json pr6-contract-baseline \\
        > perfbench/reference.json
"""

import json
import sys

SIMULATED = ("rounds", "samples", "mi_bits", "m0_bits")
BENCHES = (
    "fig3_kernel_channel",
    "table3_intra_core",
    "table6_switch_cost",
    "fig7_splash_colouring",
    "table8_timeshared",
)


def load_records(path):
    """The cell records of a recorder results file ("total" records dropped)."""
    with open(path, encoding="utf-8") as f:
        return [r for r in json.load(f) if r.get("cell") != "total"]


def load_reference(path):
    """The reference, keyed by (bench, cell)."""
    with open(path, encoding="utf-8") as f:
        return {(r["bench"], r["cell"]): r for r in json.load(f)["records"]}


def same(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return "%.6g" % a == "%.6g" % b


def compare(reference, records, benches):
    """Problems (empty when correct) of one pass's records over `benches`."""
    problems = []
    got = {}
    for r in records:
        key = (r["bench"], r["cell"])
        if key in got:
            problems.append("%s %r: recorded twice" % key)
        got[key] = r
    expected = {k: v for k, v in reference.items() if k[0] in benches}
    for key in sorted(expected.keys() - got.keys()):
        problems.append("%s %r: missing" % key)
    for key in sorted(got.keys() - expected.keys()):
        problems.append("%s %r: not in the reference" % key)
    for key in sorted(expected.keys() & got.keys()):
        ref, rec = expected[key], got[key]
        if rec.get("cell_status"):
            problems.append("%s %r: cell %s: %s" % (*key, rec["cell_status"],
                                                    rec.get("cell_error", "")))
            continue
        for field in SIMULATED:
            if (field in ref) != (field in rec):
                problems.append("%s %r: %s present in only one of reference and run"
                                % (*key, field))
            elif field in ref and not same(ref[field], rec[field]):
                problems.append("%s %r: %s %r, reference %r"
                                % (*key, field, rec[field], ref[field]))
        ref_metrics, rec_metrics = ref.get("metrics", {}), rec.get("metrics", {})
        if ref_metrics.keys() != rec_metrics.keys():
            problems.append("%s %r: metrics %s, reference %s"
                            % (*key, sorted(rec_metrics), sorted(ref_metrics)))
            continue
        for name, value in sorted(ref_metrics.items()):
            if not same(value, rec_metrics[name]):
                problems.append("%s %r: metrics.%s %r, reference %r"
                                % (*key, name, rec_metrics[name], value))
    return problems


def failed_cells(records):
    """(bench, cell, reason) of every cell that failed, timed out or measured
    nothing: an MI cell with no samples, a cost cell whose every metric is 0."""
    failed = []
    for r in records:
        if r.get("cell_status"):
            failed.append((r["bench"], r["cell"], r["cell_status"]))
        elif "mi_bits" in r and r.get("samples", 0) == 0:
            failed.append((r["bench"], r["cell"], "0 samples"))
        elif r.get("metrics") and all(v == 0 for v in r["metrics"].values()):
            failed.append((r["bench"], r["cell"], "every metric 0"))
    return failed


def extract_reference(results_path, label):
    """The simulated fields of `label`'s cells of BENCHES in a results file."""
    with open(results_path, encoding="utf-8") as f:
        records = json.load(f)
    keep = ("bench", "cell") + SIMULATED + ("metrics",)
    out = [{k: r[k] for k in keep if k in r} for r in records
           if r.get("label") == label and r.get("bench") in BENCHES
           and r.get("cell") != "total"]
    return {"source": "%s label %s (quick grid), simulated fields only"
                      % (results_path, label),
            "records": out}


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: check.py RESULTS_JSON LABEL > reference.json")
    json.dump(extract_reference(sys.argv[1], sys.argv[2]), sys.stdout, indent=1)
    sys.stdout.write("\n")
