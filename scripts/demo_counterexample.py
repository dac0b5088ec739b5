#!/usr/bin/env python3
"""Walk through the whole construction with exact printed evidence.

Shows the skew operator on the first test vector, then runs every
certificate suite once (``c0cert.cli.run_suite``) and prints its evidence:
skewness and vanishing monotone products, constructive maximality against
random perturbations, the family of bidual points that are all monotone
against the graph yet pairwise incompatible, with the tau-free verdict that
proves their margin on the whole graph, and the strict Fitzpatrick gap.
Every number printed is an exact rational.

Run from the repository root:

    PYTHONPATH=src python3 scripts/demo_counterexample.py [--seed N] [--samples N] [--taus T,...]

Exit code 0 when every suite passes, 1 when one fails, 2 on a config error.
"""

from __future__ import annotations

import argparse
import sys

from c0cert.certify import extension_family, violation_witness
from c0cert.cli import ConfigError, SuiteResult, config_from_obj, run_suite
from c0cert.gossez import gossez_apply, t_solve, unit_u, unit_v
from c0cert.seqspace import terms_str


def section(result: SuiteResult, title: str) -> bool:
    """Print a suite's heading with its counts, and its failures; True iff it passed."""
    counts = ", ".join(f"{k} {v}" for k, v in sorted(result.counts.items()))
    status = "pass" if result.passed else "FAIL"
    print(f"\n== {title} ({result.name} suite: {status}; {counts}) ==")
    for message in result.failures:
        print(f"FAILURE: {message}")
    return result.passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--taus", default="1/3,1/2,1,2,3", help="comma-separated 'p/q' values")
    args = parser.parse_args()
    obj = {"seed": args.seed, "samples": args.samples, "taus": args.taus.split(",")}
    try:
        config = config_from_obj(obj)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print("== the operator ==")
    u1, v1 = unit_u(1), unit_v(1)
    print(f"u1 = {u1}")
    print(f"G(u1) = {gossez_apply(u1)}  (equals v1: {gossez_apply(u1) == v1})")
    print(f"t_solve(-v1) = {t_solve(-v1)}  (recovers u1: {t_solve(-v1) == u1})")

    report = run_suite(config)
    results = {r.name: r for r in report.results}
    extensions, gap, maximal = results["extensions"], results["gap"], results["maximal"]
    monotone, skew = results["monotone"], results["skew"]
    if section(skew, "skewness over random summable y"):
        print(f"pairing(G(y), y) values seen: {skew.evidence['pairing_values']}")
    if section(monotone, "monotonicity over random graph pairs"):
        print(f"monotone products seen: {monotone.evidence['products']}")
    if section(maximal, "constructive maximality"):
        worst = maximal.evidence["max_violation_product"]
        print("every graph point is a member and every perturbed pair is refuted;")
        print(f"worst (closest to zero) witness product: {worst}")
    if section(extensions, "the extension family"):
        family = extension_family(config.taus, config.ytilde)
        for ep in family.points:
            print(f"tau = {terms_str(*ep.tau):>4}:  x** = {ep.xstarstar}")
        margin = extensions.evidence["closure_margin"]
        print(f"margin on every sampled graph point = pairing(ones, ytilde) = {margin} > 0")
        verdict = violation_witness(-family.g, family.ytilde)
        print(f"tau-free verdict on (-G(ytilde), ytilde): {verdict!r},")
        print(f"  so the margin is {margin} at every graph point, for every tau > 0")
        print("pairwise incompatibility:")
        for pair, value in extensions.evidence["distinctness_products"].items():
            t1, t2 = pair.split(",")
            print(f"  <x**({t1}) - x**({t2}), {t1}*yt - {t2}*yt> = {value} < 0")
    if section(gap, "Fitzpatrick gap"):
        for tau, row in gap.evidence["per_tau"].items():
            print(f"tau = {tau:>4}:  value on every sampled graph point = "
                  f"{row['fitzpatrick_value']}  <x*, x**> = {row['self_pairing']}  "
                  f"gap = {row['gap']}")
        print("strict positive gap for every tau: no unique extension to the bidual.")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
