"""Acceptance suite: one check per shipped guarantee, all exact, no tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure).  Every equality below is exact rational equality; every inequality
is a strict sign check.  Runtime bounds are asserted where stated.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from c0cert.certify import (
    GraphPoint,
    Member,
    Violation,
    extension_point,
    closure_margin,
    distinctness,
    fitzpatrick_value,
    monotone_product,
    random_graph_point,
    random_rational,
    random_summable,
    violation_witness,
)
from c0cert.gossez import NotInDomain, gossez_apply, t_solve, unit_u, unit_v
from c0cert.seqspace import ONES, Seq, pairing, total_sum, unit

from strategies import fraction_of

SUPPORT_MAX = 16
COEFF_BOUND = 100

TAUS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
DIRECTIONS = [unit(1), unit(1) + unit(4), 2 * unit(2)]


def _check(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {num:2d} [{label}] {status}{timing}")
    assert ok, f"criterion {num} [{label}] failed"


def _zero_sum_sample(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        y = random_summable(rng, SUPPORT_MAX, COEFF_BOUND)
        t = total_sum(y)
        if t != 0:
            entries = list(y.prefix)
            entries[-1] -= t
            y = Seq(tuple(entries))
        out.append(y)
    return out


def test_criterion_1_unit_family_images():
    started = time.perf_counter()
    ok = all(gossez_apply(unit_u(m)) == unit_v(m) for m in range(1, 101))
    elapsed = time.perf_counter() - started
    _check(1, "unit family images", ok and elapsed < 1.0, elapsed)


def test_criterion_2_skew_identity():
    started = time.perf_counter()
    rng = random.Random(2001)
    ok = all(
        pairing(gossez_apply(y), y) == 0
        for y in (random_summable(rng, SUPPORT_MAX, COEFF_BOUND) for _ in range(1000))
    )
    elapsed = time.perf_counter() - started
    _check(2, "skew identity, 1000 draws", ok and elapsed < 5.0, elapsed)


def test_criterion_3_range_law():
    started = time.perf_counter()
    rng = random.Random(3001)
    ok = True
    for _ in range(1000):
        y = random_summable(rng, SUPPORT_MAX, COEFF_BOUND)
        ok = ok and gossez_apply(y).tail == -total_sum(y)
    for y in _zero_sum_sample(3002, 500):
        ok = ok and t_solve(-gossez_apply(y)) == y
    for y in _zero_sum_sample(3003, 500):
        shift = Fraction(0)
        while shift == 0:
            shift = Fraction(*random_rational(rng, COEFF_BOUND))
        bad = -gossez_apply(y) + shift * unit(1)
        try:
            t_solve(bad)
            ok = False
        except NotInDomain:
            pass
    elapsed = time.perf_counter() - started
    _check(3, "tail law and solvability boundary", ok and elapsed < 5.0, elapsed)


def test_criterion_4_round_trips():
    started = time.perf_counter()
    rng = random.Random(4001)
    ok = all(t_solve(-gossez_apply(y)) == y for y in _zero_sum_sample(4002, 500))
    for _ in range(100):
        lam = Fraction(*random_rational(rng, COEFF_BOUND))
        m = rng.randint(1, 100)
        ok = ok and t_solve(-lam * unit_v(m)) == lam * unit_u(m)
    elapsed = time.perf_counter() - started
    _check(4, "solver round trips", ok and elapsed < 5.0, elapsed)


def test_criterion_5_monotonicity():
    rng = random.Random(5001)
    ok = all(
        Fraction(
            *monotone_product(
                random_graph_point(rng, SUPPORT_MAX, COEFF_BOUND),
                random_graph_point(rng, SUPPORT_MAX, COEFF_BOUND),
            )
        )
        == 0
        for _ in range(1000)
    )
    _check(5, "monotone products vanish, 1000 pairs", ok)


def test_criterion_6_maximality_witnesses():
    rng = random.Random(6001)
    ok = True
    for _ in range(500):
        p = random_graph_point(rng, SUPPORT_MAX, COEFF_BOUND)
        ok = ok and isinstance(violation_witness(p.x, p.y), Member)
    # one-sided perturbations break the difference recurrence: product is -1
    for side in range(2):
        for _ in range(250):
            p = random_graph_point(rng, SUPPORT_MAX, COEFF_BOUND)
            delta = Seq(())
            while delta == Seq(()):
                delta = random_summable(rng, SUPPORT_MAX, COEFF_BOUND)
            x, y = (p.x + delta, p.y) if side == 0 else (p.x, p.y + delta)
            verdict = violation_witness(x, y)
            ok = (
                ok
                and isinstance(verdict, Violation)
                and verdict.product == (-1, 1)
                and pairing(x - verdict.witness.x, y - verdict.witness.y) == -1
            )
    # sum-breaking pairs keep the recurrence: the origin witnesses -(sum)^2
    count = 0
    while count < 100:
        y = random_summable(rng, SUPPORT_MAX, COEFF_BOUND)
        total = total_sum(y)
        if total == 0:
            continue
        count += 1
        x = -gossez_apply(y) - total * ONES
        verdict = violation_witness(x, y)
        product = fraction_of(verdict.product) if isinstance(verdict, Violation) else None
        ok = (
            ok
            and product is not None
            and product == -(total**2)
            and product < 0
            and pairing(x - verdict.witness.x, y - verdict.witness.y) == product
        )
    _check(6, "maximality witnesses, 500+600 pairs", ok)


def test_criterion_7_closure_membership():
    sample = [GraphPoint.from_y(y) for y in _zero_sum_sample(7001, 1000)]
    ok = True
    for ytilde in DIRECTIONS:
        expected = pairing(ONES, ytilde)
        ok = ok and expected > 0
        for tau in TAUS:
            ep = extension_point(tau, ytilde)
            ok = ok and all(Fraction(*closure_margin(ep, p)) == expected for p in sample)
    _check(7, "closure margins constant over 1000 points x 15 family points", ok)


def test_criterion_8_extension_distinctness():
    ok = Fraction(*distinctness(1, 2, unit(1))) == Fraction(-1, 2)
    for ytilde in DIRECTIONS:
        for i, t1 in enumerate(TAUS):
            for t2 in TAUS[i + 1 :]:
                value = Fraction(*distinctness(t1, t2, ytilde))
                closed = (t1 - t2) * (1 / t1 - 1 / t2) * pairing(ONES, ytilde)
                ok = ok and value == closed and value < 0
    _check(8, "pairwise distinctness negative, all 10 tau pairs", ok)


def test_criterion_9_fitzpatrick_gap():
    sample = [GraphPoint.from_y(y) for y in _zero_sum_sample(9001, 1000)]
    ok = True
    for ytilde in DIRECTIONS:
        expected = pairing(ONES, ytilde)
        for tau in TAUS:
            ep = extension_point(tau, ytilde)
            values = {Fraction(*fitzpatrick_value(ep, p)) for p in sample}
            self_pairing = pairing(ep.xstar, ep.xstarstar)
            ok = (
                ok
                and len(values) == 1
                and max(values) < self_pairing
                and self_pairing - max(values) == expected
                and expected > 0
            )
    _check(9, "Fitzpatrick values constant, gap positive and exact", ok)


def test_criterion_10_cli_end_to_end(tmp_path):
    started = time.perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    codes = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "c0cert", "run", "--timestamp", "off",
             "--format", "json", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
        outputs.append(out.read_bytes() if out.exists() else b"")
    elapsed = time.perf_counter() - started
    report = json.loads(outputs[0] or b"{}")
    ok = (
        codes == [0, 0]
        and outputs[0] == outputs[1]
        and len(outputs[0]) > 0
        and report.get("overall") == "pass"
        and [s["name"] for s in report.get("suites", [])]
        == ["extensions", "gap", "maximal", "monotone", "skew"]
        and elapsed < 30.0
    )
    _check(10, "CLI default run, byte-identical reports", ok, elapsed)
