"""Apply each mutant of a fixed table to a copy of the tree; every one must be killed.

A mutant is one textual change to one file of src/c0cert/: an old text,
which must occur exactly once in that file, and the new text that replaces
it.  For each entry of MUTANTS the script copies src/, tests/ and
pyproject.toml to a fresh temporary directory (the repository is never
written), applies the mutant there and runs

    python -m pytest -x -q -p no:cacheprovider <the entry's selection>

in that directory with PYTHONPATH=src.  The selection is the entry's test
files, or, when the entry names test functions, each of them in each of
its files (``file::name``).  The mutant is killed when a test fails or a
test file fails to import (pytest exit status 1 or 2).  The selections
are expected to pass on the unmutated tree, as Tier-1 checks.

One line is printed per mutant, and a last line with the number killed
and the gate's wall time.  The exit status is 1 if any mutant
survives, any old text does not occur exactly once, or pytest ends any
other way (a missing test file or test name, say); otherwise 0.  Standard library
only, apart from the test dependencies that pytest runs.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    label: str
    tests: tuple[str, ...]
    names: tuple[str, ...] = ()  # test functions to run; none runs the whole files

    def selection(self) -> list[str]:
        return [f"{test}::{name}" for test in self.tests for name in self.names] or [*self.tests]


MUTANTS = (
    Mutant(
        "src/c0cert/gossez.py",
        "out.append(yn + 2 * before - total)",
        "out.append(2 * before - total)",
        "neg_gossez_apply without its yn term",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "[inv - aa * v for v in g.num], inv - aa * g.tnum",
        "[inv + aa * v for v in g.num], inv + aa * g.tnum",
        "extension_family's x** built with +tau * g",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "            if num != -den:\n"
        '                raise AssertionError("witness normalization failed")\n',
        "",
        "violation_witness without its witness product recheck",
        ("tests/test_certify.py",),
        ("test_an_off_by_one_pairing_trips_both_witness_checks",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "closed_num, closed_den = -k * k * s,",
        "closed_num, closed_den = k * k * s,",
        "the distinctness closed form with its sign flipped",
        ("tests/test_certify.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if num * exp_den != exp_num * den or num <= 0:",
        "if num <= 0:",
        "the extensions margin check reduced to its sign",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return -unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_u as e_m - e_{m+1}",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_v as e_m - e_{m+1}",
        ("tests/test_gossez.py",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "other.num + (other.tnum,)",
        "other.num + (self.tnum,)",
        "Seq._combine padding other's prefix with self's tail",
        ("tests/test_seqspace.py",),
        ("test_linear_ops_match_per_entry_reference",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "enumerate(_graph_sample(config, rng))",
        "enumerate(list(_graph_sample(config, rng)))",
        "_evaluations holding its whole sample",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if len(self) < MAX_FAILURES_SHOWN:",
        "if True:",
        "_Failures keeping every message",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "for key in sorted(value)\n",
        "for key in value\n",
        "_indented laying out keys unsorted",
        ("tests/test_cli.py",),
        ("test_failing_and_passing_reports_are_rendered_as_json_dumps_renders_them",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "isinstance(value, (list, tuple))",
        "isinstance(value, list)",
        "_indented leaving a tuple to json.dumps",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    if not items:\n        return brackets\n",
        "",
        "_indented without its empty-container case",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "import encode_basestring_ascii as _quoted",
        "import encode_basestring as _quoted",
        "_indented writing non-ASCII text unescaped",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    del items  # so the items and the body's copy below are not held at once\n",
        "",
        "_indented holding its items beside the joined body",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if num:\n"
        '            failures.append("pairing(G(y), y)',
        "        if num > 0:\n"
        '            failures.append("pairing(G(y), y)',
        "_run_skew failing only positive pairings",
        ("tests/test_cli.py",),
        ("test_skew_runner_reports_a_negative_pairing",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if num:\n"
        '            failures.append("monotone product',
        "        if num > 0:\n"
        '            failures.append("monotone product',
        "_run_monotone failing only positive products",
        ("tests/test_cli.py",),
        ("test_monotone_runner_reports_a_nonzero_product",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "fc * diagonal[i] -",
        "fc * (diagonal[i] + 1) -",
        "family_products reading diagonal[i] + 1",
        ("tests/test_certify.py",),
        (
            "test_family_product_checks_the_closed_form",
            "test_distinctness_examples",
        ),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "inv - aa * g.tnum, a * b * d",
        "inv + aa * g.tnum, a * b * d",
        "extension_family's x** tail alone built with +tau * g",
        ("tests/test_certify.py",),
        ("test_extension_point_tau_one",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "inv, aa = b * b * d, a * a",
        "inv, aa = a * a * d, b * b",
        "extension_family's x** with a^2 and b^2 swapped",
        ("tests/test_certify.py",),
        ("test_extension_point_tau_two",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    for tau in taus:\n"
        "        if tau <= 0:\n"
        '            raise InvalidParameter(f"tau must be positive, got {tau}")\n',
        "",
        "extension_family without its tau <= 0 loop",
        ("tests/test_certify.py",),
        ("test_extension_point_rejects_nonpositive_tau",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        '({where})"], {}, {}',
        '({where})"], {"failures": 1}, {}',
        "run_suite's crash record with counts",
        ("tests/test_cli.py",),
        ("test_maximal_runner_reports_a_failed_recheck",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'random.Random(f"{config.seed}:{name}")',
        'random.Random(f"{config.seed}")',
        "_rng seeding every suite alike",
        ("tests/test_cli.py",),
        ("test_markdown_report_is_byte_identical",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        '        object.__setattr__(self, "den", den)\n'
        "        self.__post_init__()\n",
        '        object.__setattr__(self, "den", den)\n',
        "Seq.__init__ without its canonicalizer",
        ("tests/test_seqspace.py",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "gs = list(map(gcd, nums, dens))",
        "gs = [1] * len(nums)",
        "_draw_summable without lowest terms",
        ("tests/test_certify.py",),
        ("test_samplers_match_per_entry_randint_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    while num and not num[-1]:\n"
        "        num.pop()\n",
        "",
        "_trimmed without its loop",
        ("tests/test_certify.py",),
        ("test_samplers_match_per_entry_randint_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "lam_den = g * scaled_gap",
        "lam_den = scaled_gap",
        "violation_witness's lambda denominator without g",
        ("tests/test_certify.py",),
        ("test_witness_matches_the_fraction_formula_on_any_pair",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "if lam_den < 0:",
        "if False:",
        "violation_witness without its sign move",
        ("tests/test_certify.py",),
        ("test_witness_matches_the_fraction_formula_on_any_pair",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "fd * pairing_numerator(a, d)) - fb * (",
        "fd * pairing_numerator(a, d)) + fb * (",
        "difference_terms adding the b side",
        ("tests/test_certify.py",),
        (
            "test_monotone_product_examples",
            "test_closure_margin_examples",
        ),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "        if x.tnum:\n"
        '            raise NonSummable("pairing of two sequences with nonzero tails diverges")\n',
        "",
        "pairing_numerator without its NonSummable raise",
        ("tests/test_seqspace.py",),
        ("test_pairing_examples",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "a1 * a2 * b1 * b2 * e",
        "a1 * a2 * b1 * b2",
        "family_products' closed-form denominator without e",
        ("tests/test_certify.py",),
        ("test_family_products_match_the_direct_products_over_mixed_denominators",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if gap_num * exp_den != exp_num * gap_den or gap_num <= 0:",
        "if gap_num <= 0:",
        "_run_gap's gap check reduced to its sign",
        ("tests/test_cli.py",),
        ("test_gap_runner_reports_a_wrong_gap",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "g = gcd(num, den)",
        "g = 1",
        "terms_str without its gcd",
        ("tests/test_seqspace.py",),
        ("test_terms_str_writes_the_fractions_string",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "out.append(yn + 2 * before - total)",
        "out.append(yn + before - total)",
        "neg_gossez_apply with 2 * before written as before",
        ("tests/test_gossez.py",),
        ("test_forward_map_matches_per_entry_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "den = dss1 * fa * ds1 * fc",
        "den = dss1 * fa * ds1",
        "family_products yielding den without fc",
        ("tests/test_certify.py",),
        ("test_family_products_match_the_direct_products_over_mixed_denominators",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'if value == "0" or',
        "if value == 0 or",
        "_Seen.add comparing its string value with the int 0",
        ("tests/test_cli.py",),
        ("test_seen_values_keep_zero_and_the_first_distinct_failing_values",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "residual = terms_str(s_next, x.den)",
        "residual = terms_str(-s_next, x.den)",
        "t_solve's residual written with its sign flipped",
        ("tests/test_gossez.py",),
        ("test_solver_rejects_first_coordinate",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "proven_num, proven_den = proven",
        "proven_den, proven_num = proven",
        "_evaluations reading the proven value's terms swapped",
        ("tests/test_cli.py",),
        ("test_a_passing_family_suite_evaluates_only_its_first_point",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'failures.append("graph point misclassified: {!r}", verdict)',
        "pass",
        "_run_maximal passing a graph point taken for a violation",
        ("tests/test_cli.py",),
        ("test_maximal_runner_reports_a_graph_point_taken_for_a_violation",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'failures.append("perturbed pair misclassified as a member")',
        "pass",
        "_run_maximal passing a perturbed pair taken for a member",
        ("tests/test_cli.py",),
        ("test_maximal_runner_reports_a_perturbed_pair_taken_for_a_member",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        """lines.append(f"- duration_s = {entry['duration_s']}")""",
        "pass",
        "render_markdown without its duration lines",
        ("tests/test_cli.py",),
        ("test_failing_markdown_report_with_timing",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'lines.append(f"- FAILURE: {message}")',
        "pass",
        "render_markdown without its failure lines",
        ("tests/test_cli.py",),
        ("test_failing_markdown_report_with_timing",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        if x.tnum or y.tnum:\n"
        '            raise InvalidParameter("graph points need zero tails on both components")\n',
        "",
        "GraphPoint.__init__ without its zero-tail check",
        ("tests/test_certify.py",),
        ("test_graph_point_rejects_a_tail",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    if ytilde.tnum:\n"
        '        raise InvalidParameter("ytilde must be finitely supported")\n',
        "",
        "extension_family without its finite-support check",
        ("tests/test_certify.py",),
        ("test_extension_family_rejects_a_direction_with_a_tail",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "    if neg_gossez_apply(y) != x:\n"
        '        raise AssertionError("solver disagrees with the forward map")\n',
        "",
        "t_solve without its forward-map recheck",
        ("tests/test_gossez.py",),
        ("test_solver_refuses_a_disagreeing_forward_map",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        if x != neg_gossez_apply(y):\n"
        '            raise AssertionError("membership reconstruction failed")\n',
        "",
        "violation_witness without its membership reconstruction",
        ("tests/test_certify.py",),
        ("test_witness_refuses_a_failed_membership_reconstruction",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "            if num >= 0:\n",
        "            if False:\n",
        "family_products without its sign check",
        ("tests/test_certify.py",),
        ("test_family_products_refuse_a_nonnegative_product",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(ys[m] + ys[m - 1]) * fx",
        "(ys[m] - ys[m - 1]) * fx",
        "violation_witness scanning with y_m's sign flipped",
        ("tests/test_certify.py",),
        ("test_witness_example_member", "test_witness_relates_the_family_point_of_e1_at_tau_one"),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(tail * dy - total * dx) * total",
        "(tail * dy + total * dx) * total",
        "violation_witness reading kappa as tail(x) + sigma",
        ("tests/test_certify.py",),
        ("test_witness_relates_the_family_point_of_e1_at_tau_one",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    if pn < 0:\n        return Violation(_ORIGIN, product)\n",
        "",
        "violation_witness relating every pair whose recurrence holds",
        ("tests/test_certify.py",),
        ("test_witness_origin_branch",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "[x.tnum] * (width - len(x.num))",
        "[0] * (width - len(x.num))",
        "violation_witness padding x's prefix with 0, not its tail",
        ("tests/test_certify.py",),
        ("test_witness_relates_the_family_point_of_e1_at_tau_one",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "k = i % n",
        "k = 0",
        "_evaluations evaluating every later point at tau_0",
        ("tests/test_cli.py",),
        ("test_each_later_point_is_evaluated_at_its_rotated_tau",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(tail * dy - total * dx) * total",
        "(tail * dy + total * dx) * total",
        "violation_witness reading kappa as tail(x) + sigma, under a family suite",
        ("tests/test_cli.py",),
        ("test_a_passing_family_suite_evaluates_only_its_first_point",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "proven_num * den or not hits[k]:",
        "proven_num * den:",
        "_evaluations passing on a later point only where it misses the proven value",
        ("tests/test_cli.py",),
        ("test_family_runners_match_the_direct_loop_off_the_graph",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if verdict != Related(0):",
        "if not isinstance(verdict, Related):",
        "_whole_graph_proof taking any Related verdict for the proof",
        ("tests/test_cli.py",),
        ("test_a_family_suite_fails_on_any_verdict_but_related_with_margin_zero",),
    ),
)


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or what went wrong, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="c0cert-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.file
        source = target.read_text(encoding="utf-8")
        found = source.count(mutant.old)
        if found != 1:
            return f"MISSING (old text found {found} times in {mutant.file})"
        target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(
            [*command, *mutant.selection()],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
    if done.returncode in (1, 2):
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    shown = (done.stderr or done.stdout).strip()[-200:]
    return f"ERROR (pytest exit status {done.returncode}: {shown})"


def main(mutants: tuple[Mutant, ...] = MUTANTS) -> int:
    bad = 0
    started = time.perf_counter()
    for mutant in mutants:
        start = time.perf_counter()
        outcome = run(mutant)
        seconds = time.perf_counter() - start
        bad += outcome != "killed"
        print(f"{outcome}: {mutant.label} [{' '.join(mutant.selection())}, {seconds:.0f} s]", flush=True)
    total = time.perf_counter() - started
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed in {total:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
