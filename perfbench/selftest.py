"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes five to eight minutes.  For each
workload it checks that
  - two traced runs with one seed pass every output check and report
    identical exact counts (EXACT_COUNTS);
  - a traced run with a second seed passes its checks with other inputs,
    and gives the oracle the same search boxes (size, bound, pinned
    positions) in the same order;
  - the layers the workload is meant to stress cover most of the traced
    run time: the oracle on oracle-11-12, and series, formulas and census
    on census-48, where the oracle is never called.
It also checks the arithmetic of spans.summarize and spans.boxes on a
hand-made span list.  Exits 1 and names each failure if any check fails.
"""

import sys

import run
import spans

SEED, OTHER_SEED = 1, 2
# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("oracle.calls", "oracle.solutions", "series.mul.calls",
                "series.mul.coeff_products", "formulas.calls", "census.calls",
                "verify.checks", "matrices.m_n.calls")


def check_summarize():
    """Self time, calls into a layer, unattributed time and boxes on known spans."""
    box = spans._box("mitm", 12, None, {1: 5})
    fake = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["census.count_T", 0, 1.0, 9.0, None],
        ["census.count_S", 1, 2.0, 4.0, None],
        ["formulas.coeff_Q", 1, 5.0, 8.0, None],
        ["series.TruncSeries.mul", 2, 2.5, 3.5, 4],
        ["oracle.solve", 0, 9.0, 9.5, [["mitm", 7, box], 10.0, 50.0]],
    ]
    metrics, self_s = spans.summarize(fake, 11.0)
    expected = {"cli.calls": 1, "census.calls": 1, "formulas.calls": 1,
                "formulas.s": 3.0, "census.self_s": 4.0, "cli.self_s": 1.5,
                "series.mul.calls": 1, "series.mul.coeff_products": 15,
                "series.mul_s": 1.0, "oracle.calls": 1, "oracle.solutions": 7,
                "oracle.rss_step_mb": 40.0, "trace.unattributed_s": 1.0}
    failures = [f"summarize: {name} is {metrics[name]}, expected {value}"
                for name, value in expected.items() if metrics[name] != value]
    if sum(self_s.values()) != 10.0:
        failures.append(f"summarize: self times add up to {sum(self_s.values())}, not 10")
    if spans.boxes(fake) != [["mitm", 12, 12, [1], 12 ** 11]]:
        failures.append(f"boxes: {spans.boxes(fake)} for a size-12 box pinned at 1")
    return failures


def check_workload(workload):
    failures = []
    first = run.run_benchmark(workload, SEED, 1, True)
    second = run.run_benchmark(workload, SEED, 1, True)
    for name in EXACT_COUNTS:
        a, b = first["per_layer"][name], second["per_layer"][name]
        print(f"  {workload} {name}: {a} and {b}")
        if a != b:
            failures.append(f"{workload}: {name} was {a}, then {b}")

    other = run.run_benchmark(workload, OTHER_SEED, 1, True)
    print(f"  {workload} inputs of seeds {SEED} and {OTHER_SEED}: "
          f"{first['inputs']} and {other['inputs']}; "
          f"{len(first['boxes'])} and {len(other['boxes'])} oracle boxes")
    if other["inputs"] == first["inputs"]:
        failures.append(f"{workload}: seeds {SEED} and {OTHER_SEED} chose the same inputs")
    if other["boxes"] != first["boxes"]:
        failures.append(f"{workload}: seeds {SEED} and {OTHER_SEED} gave the oracle "
                        f"different boxes: {first['boxes']} and {other['boxes']}")
    for summary in (first, second, other):
        failures += [f"{workload} seed {summary['seed']}: {problem}"
                     for problem in summary["problems"]]

    self_s, run_s = first["self_s"], first["traced_run_s"]
    stressed = {"oracle-11-12": ("oracle",),
                "census-48": ("series", "formulas", "census")}[workload]
    share = sum(self_s[layer] for layer in stressed) / run_s
    print(f"  {workload} self time of {', '.join(stressed)}: {share:.1%} of traced run_s")
    if share <= 0.5:
        failures.append(f"{workload}: {', '.join(stressed)} cover only {share:.1%}")
    if workload == "census-48" and first["per_layer"]["oracle.calls"] != 0:
        failures.append("census-48 called the oracle")
    return failures


def main():
    failures = check_summarize()
    for workload in run.WORKLOADS:
        failures += check_workload(workload)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
