#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sample counts except for the pinned hashes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, that span self times are non-negative and sum to no more
than the traced wall time, that two traced passes give identical counts and
ratios, that the oracle rejects tampered reports, and that the pinned report
hashes still hold.  Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import run

TINY = 6


def main() -> int:
    spec = run.load_json(run.SPEC_PATH)
    pinned = run.load_json(run.PINNED_PATH)
    program = run.import_program()
    cli = program[3]
    failures = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, env = run.measure(w, 1, 0.01, trace, program, samples=TINY)
            units = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want(got == units, f"{w} trace {trace}: metric names or units differ")
            want(result["correct"] and result["failed"] == 0, f"{w} trace {trace}: {env['problems']}")
            if not trace:
                want(all(v["value"] > 0 for v in result["metrics"].values()), f"{w}: zero metric")

        config_objs = [{**c, "samples": TINY} for c in run.workload_configs(w, 2)]
        passes = []
        for _ in range(2):
            check = run.Checker(config_objs, None)
            tracer, times, texts = run.traced_round(program, config_objs, check)
            self_times = tracer.self_times()
            span_wall = max(tracer.end) - min(tracer.start)
            want(check.failed == 0, f"{w}: traced reports fail the oracle")
            want(min(self_times) >= -1e-9, f"{w}: negative self time")
            want(sum(self_times) <= span_wall + 1e-9, f"{w}: self times exceed traced wall")
            want(sum(map(sum, times)) <= span_wall, f"{w}: report times exceed traced wall")
            metrics = run.layer_metrics(tracer, texts)
            passes.append({k: v for k, v in metrics.items() if run.is_exact(k)})
        want(passes[0] == passes[1], f"{w}: traced counts differ between passes")

        full = run.workload_configs(w, pinned["seed"])
        check = run.Checker(full, pinned["workloads"][w]["report_sha256"])
        _, texts = run.timed_round(cli, [cli.config_from_obj(c) for c in full], check)
        want(check.failed == 0, f"{w}: pinned reports fail: {check.problems}")
        for tamper in tampered(texts[0]):
            want(bool(run.check_report(tamper, full[0])), f"{w}: oracle accepts a tampered report")

    default_report = subprocess.run(
        [sys.executable, "-m", "c0cert", "all", "--timestamp", "off"],
        cwd=run.ROOT,
        env={"PYTHONPATH": str(run.SRC)},
        capture_output=True,
        check=False,
        timeout=600,
    ).stdout
    want(
        hashlib.sha256(default_report).hexdigest() == pinned["certify_all_timestamp_off_sha256"],
        "certify all --timestamp off report bytes changed",
    )

    for failure in failures:
        print("FAIL:", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def tampered(text: str):
    """Copies of a correct report, each with one certified value broken."""
    edits = [
        lambda report, suites: report.update(overall="fail"),
        lambda report, suites: suites["skew"]["evidence"].update(pairing_values=["0", "1"]),
        lambda report, suites: suites["monotone"]["evidence"].update(products=["1"]),
        lambda report, suites: suites["maximal"]["evidence"].update(max_violation_product="0"),
        lambda report, suites: suites["extensions"]["evidence"].update(closure_margin="2"),
        lambda report, suites: suites["extensions"]["evidence"]["distinctness_products"].update(
            {"1,2": "-7"}
        ),
        lambda report, suites: suites["gap"]["evidence"].update(expected_gap="-1"),
    ]
    for edit in edits:
        report = json.loads(text)
        edit(report, {s["name"]: s for s in report["suites"]})
        yield json.dumps(report)


if __name__ == "__main__":
    sys.exit(main())
