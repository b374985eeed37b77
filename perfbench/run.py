"""The quiddity benchmark: end-to-end and per-layer metrics of two workloads.

    python3 perfbench/run.py --workload oracle-11-12 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Every pass runs the workload's
operations once, in a fresh child interpreter (perfbench/child.py), with
one client and workers=1.  After the set-up-only samples, passes follow
each other until the next one would end after --seconds.  Each output is
checked against an independent route in this process, outside the timed
span.  With --trace 0 the passes run untraced and the end-to-end metrics
are reported; with --trace 1 each untraced pass is followed by a traced
one and the per-layer metrics are reported.  End-to-end times are taken to
a reference speed (REF_LOOP_S), which removes the drift of the machine's
own speed; the unscaled times are printed too.  The last line of stdout is one
JSON object; the exit code is 1 if any operation failed and 2 if the
benchmark could not run at all.  perfbench/DESIGN.md explains the
workloads and metrics.
"""

import argparse
import compileall
import csv
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("oracle-11-12", "census-48")
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "oracle.calls": "count", "oracle.solutions": "count",
    "oracle.survey_s": "s", "oracle.survey_top_s": "s", "oracle.direct_s": "s",
    "oracle.pinned_s": "s", "oracle.list_s": "s", "oracle.rss_step_mb": "MB",
    "matrices.m_n.calls": "count", "matrices.m_n_s": "s",
    "series.mul.calls": "count", "series.mul.coeff_products": "count",
    "series.mul_s": "s", "series.inverse_s": "s",
    "formulas.calls": "count", "formulas.s": "s",
    "census.calls": "count", "census.self_s": "s",
    "verify.checks": "count", "verify.golden_s": "s", "verify.identity_s": "s",
    "verify.oracle_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}

# Times are reported at the reference speed: as they would read on a machine
# where child.reference_loop takes exactly REF_LOOP_S (it takes about 0.9 ms
# on the 2-core Xeon where the bounds were set).
REF_LOOP_S = 0.001
SETUP_SAMPLES = 15  # set-up-only children per run, besides one per pass
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

TARGET_NAMES = ("Id", "S", "T", "T^-1", "TS", "ST", "TSTS", "STST")
# the eight targets as words in S = [[0,-1],[1,0]], T = [[1,1],[0,1]] and t = T^-1
TARGET_WORDS = {"Id": "", "S": "S", "T": "T", "T^-1": "t", "TS": "TS",
                "ST": "ST", "TSTS": "TSTS", "STST": "STST"}
_LETTERS = {"S": (0, -1, 1, 0), "T": (1, 1, 0, 1), "t": (1, -1, 0, 1)}


class SourceMissing(RuntimeError):
    """The checkout holds no quiddity sources to benchmark."""


def word_entries(word):
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        e, f, g, h = _LETTERS[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def load_package():
    """Byte-compile the sources once, then import the modules the checks use."""
    if not (SRC / "quiddity" / "__init__.py").is_file():
        raise SourceMissing(f"no quiddity package under {SRC}")
    compileall.compile_dir(str(SRC / "quiddity"), quiet=1)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from quiddity import census, matrices
    golden = json.loads((SRC / "quiddity" / "data" / "golden.json")
                        .read_text("utf-8"))
    return census, matrices, golden


def cli_op(*argv):
    return {"op": "cli", "argv": list(argv)}


def _row(start, values):
    return {start + i: value for i, value in enumerate(values)}


def golden_pins(golden, family, k, l):
    """The values golden.json pins for one table, by index n."""
    series_rows = golden["series_rows"]
    if family in ("Q", "Ptilde"):
        return _row(**series_rows[family])
    if family == "U":
        return _row(**series_rows[f"U{k}"])
    if family == "V":
        return _row(0, golden["V_rows"][str(k)])
    if family == "W":
        pins = _row(0, golden["W1k_rows"][str(l)]) if k == 1 else {}
        pins.update({n: value for first, last, n, value in golden["W_spots"]
                     if (first, last) == (k, l)})
        return pins
    for group in ("dissection_rows", "family_rows"):
        if family in golden[group]:
            return _row(**golden[group][family])
    return {}


def plan(workload, seed, census, golden):
    """Inputs, operations and output checks of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "oracle-11-12":
        v = rng.randint(1, 9)
        target = rng.choice(TARGET_NAMES)
        return {
            "inputs": {"v": v, "T": target},
            "ops": [cli_op("verify", "--max-size", "11"),
                    {"op": "pinned", "target": "Id", "size": 12, "position": 1, "value": v},
                    cli_op("oracle", "--target", target, "--size", "11", "--list")],
            # the Id solutions are closed under rotation: first = v counts as last = v
            "checks": [{"check": "verify"},
                       {"check": "pinned", "expect": census.series_V(v, 10).coeff(10)},
                       {"check": "listing", "target": target, "size": 11,
                        "expect": census.count_solutions(target, 11)}],
        }
    if workload == "census-48":
        # k and l come from the rows golden.json pins, so every table but P is pinned
        rows = {"U": rng.choice((2, 3)), "V": rng.randint(1, 12),
                "W": rng.choice([(1, l) for l in range(1, 13)]
                                + [tuple(spot[:2]) for spot in golden["W_spots"]])}
        ops, checks = [], []
        for family in census.FAMILIES:
            argv = ["table", "--family", family, "--n-max", "48"]
            k = l = None
            label = family
            if family in ("U", "V"):
                k = rows[family]
                argv += ["--k", str(k)]
                label = f"{family}({k})"
            elif family == "W":
                k, l = rows["W"]
                argv += ["--k", str(k), "--l", str(l)]
                label = f"W({k},{l})"
            ops.append(cli_op(*argv))
            checks.append({"check": "table", "label": label, "n_max": 48,
                           "pins": golden_pins(golden, family, k, l)})
        ops.append(cli_op("verify", "--max-size", "0", "--order", "64"))
        checks.append({"check": "verify"})
        return {"inputs": {"U_k": rows["U"], "V_k": rows["V"], "W_kl": list(rows["W"])},
                "ops": ops, "checks": checks}
    raise ValueError(f"unknown workload {workload!r}")


def check_output(check, result, matrices):
    """Problems with one operation's result; an empty list means correct."""
    if "error" in result:
        return [f"raised: {result['error'].strip().splitlines()[-1]}"]
    value, out = result["value"], result["stdout"]
    if check["check"] == "pinned":
        return [] if value == check["expect"] else [
            f"pinned count {value}, expected {check['expect']}"]
    if value != 0:
        return [f"exit code {value}: {result['stderr'].strip()[:200]}"]
    rows = list(csv.reader(out.splitlines()))
    if check["check"] == "verify":
        if not rows or rows[0] != ["check", "status", "expected", "actual"] or len(rows) < 2:
            return ["verify output is not a check table"]
        return [f"verify row {row[0]} is {row[1]}" for row in rows[1:] if row[1] != "PASS"]
    if check["check"] == "listing":
        size = check["size"]
        if not rows or rows[0] != [f"a{i}" for i in range(1, size + 1)]:
            return ["listing has no a1..an header"]
        tuples = [tuple(int(x) for x in row) for row in rows[1:]]
        problems = []
        if len(tuples) != check["expect"]:
            problems.append(f"{len(tuples)} rows, census counts {check['expect']}")
        if tuples != sorted(set(tuples)):
            problems.append("rows are not sorted and distinct")
        target = word_entries(TARGET_WORDS[check["target"]])
        negated = tuple(-x for x in target)
        wrong = [t for t in tuples if len(t) != size or min(t) < 1
                 or matrices.m_n(t).entries() not in (target, negated)]
        if wrong:
            problems.append(f"{len(wrong)} rows do not multiply to +/-{check['target']}, "
                            f"first {wrong[0]}")
        return problems
    # a family table
    if not rows or rows[0] != ["family", "n", "value"]:
        return ["table has no family,n,value header"]
    table = {}
    for family, n, entry in rows[1:]:
        if family != check["label"]:
            return [f"table row for {family}, expected {check['label']}"]
        table[int(n)] = int(entry)
    problems = [f"{check['label']} n={n}: {table.get(n)} but golden.json pins {pinned}"
                for n, pinned in sorted(check["pins"].items()) if table.get(n) != pinned]
    if max(table, default=-1) != check["n_max"]:
        problems.append(f"{check['label']} does not reach n={check['n_max']}")
    return problems


def run_child(ops, trace, timeout, trace_out=None):
    """One child interpreter; returns its report, or raises RuntimeError."""
    spec = {"src": str(SRC), "ops": ops, "trace": trace,
            "trace_out": str(trace_out) if trace_out else None}
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(CHILD), repr(spawn), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=str(ROOT))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"child passed the {timeout:.0f} s time limit") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise RuntimeError(f"child printed no report: {lines[-1][:200]}") from exc


def scaled(report, name, loop):
    """A time from a child's report, taken to the reference speed."""
    return report[name] * REF_LOOP_S / report[loop]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def describe(values, unit):
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        text += f", p{pct} {values[n - 11]:.6g} {unit}"
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text} ({n} samples)"


def run_benchmark(workload, seed, seconds, trace):
    """Measure one workload; returns the summary that main() prints."""
    census, matrices, golden = load_package()
    work = plan(workload, seed, census, golden)
    ops, checks = work["ops"], work["checks"]
    started = time.monotonic()
    TRACE_DIR.mkdir(exist_ok=True)
    trace_out = TRACE_DIR / f"{workload}.jsonl"

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))

    setup, setup_unscaled, plain, traced = [], [], [], []
    problems, attempted, failed = [], 0, 0
    first_outputs = None

    def one_pass(traced_pass):
        nonlocal attempted, failed, first_outputs
        attempted += len(ops)
        try:
            report = run_child(ops, traced_pass, remaining(),
                               trace_out if traced_pass else None)
        except RuntimeError as exc:
            failed += len(ops)
            problems.append(str(exc))
            return False
        setup.append(scaled(report, "setup_s", "setup_loop_s"))
        setup_unscaled.append(report["setup_s"])
        outputs = [(r.get("value"), r.get("stdout")) for r in report["results"]]
        if first_outputs is None:
            first_outputs = outputs
        for i, (check, result) in enumerate(zip(checks, report["results"])):
            try:
                issues = check_output(check, result, matrices)
            except (ValueError, TypeError, IndexError) as exc:  # malformed output
                issues = [f"output could not be read: {exc!r}"]
            if "error" not in result and outputs[i] != first_outputs[i]:
                issues.append("output differs from the first pass of this seed")
            if issues:
                failed += 1
                problems.extend(f"op {i + 1} ({' '.join(map(str, ops[i].values()))}): {p}"
                                for p in issues)
        (traced if traced_pass else plain).append(report)
        return True

    try:
        for _ in range(SETUP_SAMPLES):
            report = run_child([], False, remaining())
            setup.append(scaled(report, "setup_s", "setup_loop_s"))
            setup_unscaled.append(report["setup_s"])
        # the passes get the whole of --seconds; the set-up samples come before it
        deadline = time.monotonic() + seconds
        longest = 0.0
        while not plain or time.monotonic() + longest <= deadline:
            begun = time.monotonic()
            ok = one_pass(False) and (not trace or one_pass(True))
            longest = max(longest, time.monotonic() - begun)
            if not ok:
                break
    except RuntimeError as exc:  # a set-up child failed
        problems.append(str(exc))
        attempted, failed = max(attempted, 1), max(failed, 1)

    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "inputs": work["inputs"],
        "ops_per_pass": len(ops), "passes": len(plain), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed, "problems": problems,
        "samples": {"setup_s": setup,
                    "run_s": [scaled(r, "run_s", "run_loop_s") for r in plain],
                    "cpu_s": [scaled(r, "cpu_s", "run_loop_s") for r in plain],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in plain]},
    }
    summary["end_to_end"] = {name: median_or_zero(values)
                             for name, values in summary["samples"].items()}
    summary["unscaled"] = {"setup_s": setup_unscaled,
                       "run_s": [r["run_s"] for r in plain],
                       "cpu_s": [r["cpu_s"] for r in plain]}
    if trace:
        layers = {name: median_or_zero([r["layers"][name] for r in traced])
                  for name in PER_LAYER if name != "trace.overhead_ratio"}
        # the self times are wall times, so their shares are of the traced wall time
        traced_run_s = median_or_zero([r["run_s"] for r in traced])
        traced_scaled = median_or_zero([scaled(r, "run_s", "run_loop_s") for r in traced])
        layers["trace.overhead_ratio"] = (traced_scaled / summary["end_to_end"]["run_s"]
                                          if plain else 0.0)
        summary["per_layer"] = layers
        summary["traced_run_s"] = traced_run_s
        summary["self_s"] = {layer: median_or_zero([r["self_s"][layer] for r in traced])
                             for layer in (traced[0]["self_s"] if traced else {})}
        summary["spans"] = max((r["spans"] for r in traced), default=0)
        summary["boxes"] = traced[0]["boxes"] if traced else []
    return summary


def print_report(summary):
    workload = summary["workload"]
    print(f"workload {workload}, seed {summary['seed']}: "
          f"{summary['passes']} untraced and {summary['traced_passes']} traced passes "
          f"of {summary['ops_per_pass']} operations, one client, workers=1")
    print(f"  inputs {json.dumps(summary['inputs'])}")
    for name, unit in END_TO_END.items():
        values = summary["samples"][name]
        if values:
            print(f"  {name:<14} {describe(values, unit)}")
    for name, values in summary["unscaled"].items():
        if values:
            print(f"  {name} unscaled {describe(values, 's')}")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    print(f"  {'op_fail_ratio':<14} {ratio:.6g} ratio "
          f"({summary['failed']} failed of {summary['attempted']} attempted)")
    if summary["trace"]:
        print(f"  traced run_s {summary['traced_run_s']:.6g} s, {summary['spans']} spans, "
              f"written to {TRACE_DIR.name}/{workload}.jsonl")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<26} {summary['per_layer'][name]:.6g} {unit}")
        for layer, value in summary["self_s"].items():
            share = value / summary["traced_run_s"] if summary["traced_run_s"] else 0.0
            print(f"  self time {layer:<9} {value:.6g} s ({share:.1%} of traced run_s)")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(summary)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
    correct = summary["failed"] == 0 and not summary["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
