"""Apply each mutant of a fixed table to a copy of the tree; every one must be killed.

A mutant is one textual change to one file of src/c0cert/: an old text,
which must occur exactly once in that file, and the new text that replaces
it, with the tests that must kill it, as pytest node ids
(``tests/test_x.py::test_name``).  Before any test runs, the script checks
the unmutated tree: each old text must occur once, and each node id must
name a module-level test function of its file (read with ``ast``).  An
entry that fails either check is printed as ``MISSING`` and fails the gate,
and then no mutant runs.

For each entry the script then copies src/, tests/ and pyproject.toml to a
fresh temporary directory (the repository is never written), applies the
mutant there and runs

    python -m pytest -x -q -p no:cacheprovider <the entry's node ids>

in that directory with PYTHONPATH=src.  The mutant is killed when a test
fails (pytest exit status 1) or the named tests fail to collect (4,
"found no collectors", when their file fails to import).  Since each node
id names a test of the unmutated tree, only the mutant can make them fail
to collect, so a mutant that breaks ``import c0cert`` is killed through
the tests its entry names.  The named tests are expected to pass on the
unmutated tree, as Tier-1 checks.

Two mutants run at a time, on two worker threads that each run one pytest
at a time.  One line is printed per mutant, in table order, and a last
line with the number killed and the gate's wall time.  The exit status is
1 if any entry is missing, any mutant survives or pytest ends any other
way; otherwise 0.  Standard library only, apart from the test dependencies
that pytest runs.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import ast
import functools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # pytest runs at once, each in its own copy of the tree


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    label: str
    tests: tuple[str, ...]  # pytest node ids, file::test_name


MUTANTS = (
    Mutant(
        "src/c0cert/gossez.py",
        "out.append(yn + 2 * before - total)",
        "out.append(2 * before - total)",
        "neg_gossez_apply without its yn term",
        ("tests/test_gossez.py::test_image_of_first_coordinate",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "[inv - aa * v for v in g.num], inv - aa * g.tnum",
        "[inv + aa * v for v in g.num], inv + aa * g.tnum",
        "extension_family's x** built with +tau * g",
        ("tests/test_certify.py::test_extension_point_tau_two",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "            if num != -den:\n"
        '                raise AssertionError("witness normalization failed")\n',
        "",
        "violation_witness without its witness product recheck",
        ("tests/test_certify.py::test_an_off_by_one_pairing_trips_both_witness_checks",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "closed_num, closed_den = -k * k * s,",
        "closed_num, closed_den = k * k * s,",
        "the distinctness closed form with its sign flipped",
        ("tests/test_certify.py::test_distinctness_examples",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if num * exp_den != exp_num * den or num <= 0:",
        "if num <= 0:",
        "the extensions margin check reduced to its sign",
        ("tests/test_cli.py::test_extensions_runner_reports_a_wrong_margin",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return -unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_u as e_m - e_{m+1}",
        ("tests/test_gossez.py::test_unit_vector_shapes",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "return unit(m) + unit(m + 1)",
        "return unit(m) - unit(m + 1)",
        "unit_v as e_m - e_{m+1}",
        ("tests/test_gossez.py::test_unit_vector_shapes",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "other.num + (other.tnum,)",
        "other.num + (self.tnum,)",
        "Seq._combine padding other's prefix with self's tail",
        ("tests/test_seqspace.py::test_linear_ops_match_per_entry_reference",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "enumerate(_graph_sample(config, rng))",
        "enumerate(list(_graph_sample(config, rng)))",
        "_evaluations holding its whole sample",
        ("tests/test_cli.py::test_family_suites_memory_does_not_grow_with_samples",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if len(self) < MAX_FAILURES_SHOWN:",
        "if True:",
        "_Failures keeping every message",
        ("tests/test_cli.py::test_maximal_runner_reports_a_perturbed_pair_taken_for_a_member",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "for key in sorted(value)\n",
        "for key in value\n",
        "_indented laying out keys unsorted",
        ("tests/test_cli.py::test_failing_and_passing_reports_are_rendered_as_json_dumps_renders_them",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "isinstance(value, (list, tuple))",
        "isinstance(value, list)",
        "_indented leaving a tuple to json.dumps",
        (
            "tests/test_cli.py::"
            "test_a_caller_built_report_with_tuple_failures_is_rendered_as_json_dumps_renders_it",
        ),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    if not items:\n        return brackets\n",
        "",
        "_indented without its empty-container case",
        ("tests/test_cli.py::test_crash_report_is_rendered_as_json_dumps_renders_it",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "import encode_basestring_ascii as _quoted",
        "import encode_basestring as _quoted",
        "_indented writing non-ASCII text unescaped",
        ("tests/test_cli.py::test_crash_report_is_rendered_as_json_dumps_renders_it",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    del items  # so the items and the body's copy below are not held at once\n",
        "",
        "_indented holding its items beside the joined body",
        ("tests/test_cli.py::test_render_json_peaks_under_3_3_times_its_text",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if num:\n"
        '            failures.append("pairing(G(y), y)',
        "        if num > 0:\n"
        '            failures.append("pairing(G(y), y)',
        "_run_skew failing only positive pairings",
        ("tests/test_cli.py::test_skew_runner_reports_a_negative_pairing",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if num:\n"
        '            failures.append("monotone product',
        "        if num > 0:\n"
        '            failures.append("monotone product',
        "_run_monotone failing only positive products",
        ("tests/test_cli.py::test_monotone_runner_reports_a_nonzero_product",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "fc * diagonal[i] -",
        "fc * (diagonal[i] + 1) -",
        "family_products reading diagonal[i] + 1",
        (
            "tests/test_certify.py::test_family_product_checks_the_closed_form",
            "tests/test_certify.py::test_distinctness_examples",
        ),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "inv - aa * g.tnum, a * b * d",
        "inv + aa * g.tnum, a * b * d",
        "extension_family's x** tail alone built with +tau * g",
        ("tests/test_certify.py::test_extension_point_tau_one",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "inv, aa = b * b * d, a * a",
        "inv, aa = a * a * d, b * b",
        "extension_family's x** with a^2 and b^2 swapped",
        ("tests/test_certify.py::test_extension_point_tau_two",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    for a, b in taus:\n"
        "        if a <= 0:\n"
        '            raise InvalidParameter(f"tau must be positive, got {terms_str(a, b)}")\n',
        "",
        "extension_family without its tau <= 0 loop",
        ("tests/test_certify.py::test_extension_point_rejects_nonpositive_tau",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "            counts, evidence = {}, {}\n",
        '            counts, evidence = {"failures": 1}, {}\n',
        "run_suite's crash record with counts",
        ("tests/test_cli.py::test_maximal_runner_reports_a_failed_recheck",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'random.Random(f"{config.seed}:{name}")',
        'random.Random(f"{config.seed}")',
        "_rng seeding every suite alike",
        ("tests/test_cli.py::test_markdown_report_is_byte_identical",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "tnum * (den // tden), den)\n        self.__post_init__()\n",
        "tnum * (den // tden), den)\n",
        "Seq.__init__ without its canonicalizer",
        # _ORIGIN then fails its graph-point check, so importing c0cert fails
        ("tests/test_seqspace.py::test_canonicalize_absorbs_trailing_duplicates",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        g = gcd(p, q)\n",
        "        g = 1\n",
        "_draw_summable without lowest terms",
        ("tests/test_certify.py::test_samplers_match_per_entry_randint_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "kept = k - 1 if k else 0",
        "kept = k",
        "random_graph_point keeping entry k, the one it rebalances",
        ("tests/test_certify.py::test_samplers_match_the_reference_on_draws_ending_in_zeros",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    while num and not num[-1]:\n"
        "        num.pop()\n",
        "",
        "_trimmed without its loop",
        ("tests/test_certify.py::test_samplers_match_per_entry_randint_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "lam_den = g * scaled_gap",
        "lam_den = scaled_gap",
        "violation_witness's lambda denominator without g",
        ("tests/test_certify.py::test_witness_matches_the_fraction_formula_on_any_pair",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "if lam_den < 0:",
        "if False:",
        "violation_witness without its sign move",
        ("tests/test_certify.py::test_witness_matches_the_fraction_formula_on_any_pair",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "fd * pairing_numerator(a, d)) - fb * (",
        "fd * pairing_numerator(a, d)) + fb * (",
        "difference_terms adding the b side",
        (
            "tests/test_certify.py::test_monotone_product_examples",
            "tests/test_certify.py::test_closure_margin_examples",
        ),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "        if x.tnum:\n"
        '            raise NonSummable("pairing of two sequences with nonzero tails diverges")\n',
        "",
        "pairing_numerator without its NonSummable raise",
        ("tests/test_seqspace.py::test_pairing_examples",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "a1 * a2 * b1 * b2 * e",
        "a1 * a2 * b1 * b2",
        "family_products' closed-form denominator without e",
        ("tests/test_certify.py::test_family_products_match_the_direct_products_over_mixed_denominators",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if diagonal * exp_den != exp_num * self_den or diagonal <= 0:",
        "if diagonal <= 0:",
        "_run_gap's self-pairing check reduced to its sign",
        ("tests/test_cli.py::test_gap_runner_reports_a_wrong_gap",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if num:\n            failures.append(\"Fitzpatrick value",
        "        if num < 0:\n            failures.append(\"Fitzpatrick value",
        "_run_gap passing a positive Fitzpatrick value",
        ("tests/test_cli.py::test_gap_runner_reports_a_wrong_gap",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if diagonal * exp_den != exp_num * self_den or diagonal <= 0:\n"
        '            failures.append("gap {} != expected {} at tau = {}", gap, total, key)\n',
        "",
        "_run_gap without its self-pairing comparison with s",
        ("tests/test_cli.py::test_gap_runner_reports_a_compensated_fault",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "g = gcd(num, den)",
        "g = 1",
        "terms_str without its gcd",
        ("tests/test_seqspace.py::test_terms_str_writes_the_fractions_string",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "out.append(yn + 2 * before - total)",
        "out.append(yn + before - total)",
        "neg_gossez_apply with 2 * before written as before",
        ("tests/test_gossez.py::test_forward_map_matches_per_entry_reference",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "den = dss1 * fa * ds1 * fc",
        "den = dss1 * fa * ds1",
        "family_products yielding den without fc",
        ("tests/test_certify.py::test_family_products_match_the_direct_products_over_mixed_denominators",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'if value == "0" or',
        "if value == 0 or",
        "_Seen.add comparing its string value with the int 0",
        ("tests/test_cli.py::test_seen_values_keep_zero_and_the_first_distinct_failing_values",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "residual = terms_str(s_next, x.den)",
        "residual = terms_str(-s_next, x.den)",
        "t_solve's residual written with its sign flipped",
        ("tests/test_gossez.py::test_solver_rejects_first_coordinate",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'failures.append("graph point misclassified: {!r}", verdict)',
        "pass",
        "_run_maximal passing a graph point taken for a violation",
        ("tests/test_cli.py::test_maximal_runner_reports_a_graph_point_taken_for_a_violation",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'failures.append("perturbed pair misclassified: {!r}", verdict)',
        "pass",
        "_run_maximal passing a perturbed pair taken for a member",
        ("tests/test_cli.py::test_maximal_runner_reports_a_perturbed_pair_taken_for_a_member",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        """lines.append(f"- duration_s = {entry['duration_s']}")""",
        "pass",
        "render_markdown without its duration lines",
        ("tests/test_cli.py::test_failing_markdown_report_with_timing",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        'lines.append(f"- FAILURE: {message}")',
        "pass",
        "render_markdown without its failure lines",
        ("tests/test_cli.py::test_failing_markdown_report_with_timing",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        if x.tnum or y.tnum:\n"
        '            raise InvalidParameter("graph points need zero tails on both components")\n',
        "",
        "GraphPoint.__init__ without its zero-tail check",
        ("tests/test_certify.py::test_graph_point_rejects_a_tail",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    if ytilde.tnum:\n"
        '        raise InvalidParameter("ytilde must be finitely supported")\n',
        "",
        "extension_family without its finite-support check",
        ("tests/test_certify.py::test_extension_family_rejects_a_direction_with_a_tail",),
    ),
    Mutant(
        "src/c0cert/gossez.py",
        "    if neg_gossez_apply(y) != x:\n"
        '        raise AssertionError("solver disagrees with the forward map")\n',
        "",
        "t_solve without its forward-map recheck",
        ("tests/test_gossez.py::test_solver_refuses_a_disagreeing_forward_map",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "        if x != neg_gossez_apply(y):\n"
        '            raise AssertionError("membership reconstruction failed")\n',
        "",
        "violation_witness without its membership reconstruction",
        ("tests/test_certify.py::test_witness_refuses_a_failed_membership_reconstruction",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "            if num >= 0:\n",
        "            if False:\n",
        "family_products without its sign check",
        ("tests/test_certify.py::test_family_products_refuse_a_nonnegative_product",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(ys[m] + ys[m - 1]) * fx",
        "(ys[m] - ys[m - 1]) * fx",
        "violation_witness scanning with y_m's sign flipped",
        (
            "tests/test_certify.py::test_witness_example_member",
            "tests/test_certify.py::test_witness_relates_the_family_point_of_e1_at_tau_one",
        ),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(tail * dy - total * dx) * total",
        "(tail * dy + total * dx) * total",
        "violation_witness reading kappa as tail(x) + sigma",
        ("tests/test_certify.py::test_witness_relates_the_family_point_of_e1_at_tau_one",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    if pn < 0:\n        return Violation(_ORIGIN, product)\n",
        "",
        "violation_witness relating every pair whose recurrence holds",
        ("tests/test_certify.py::test_witness_origin_branch",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "[x.tnum] * (width - len(x.num))",
        "[0] * (width - len(x.num))",
        "violation_witness padding x's prefix with 0, not its tail",
        ("tests/test_certify.py::test_witness_relates_the_family_point_of_e1_at_tau_one",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "else (i % n,)",
        "else (0,)",
        "_evaluations evaluating every later point at tau_0",
        ("tests/test_cli.py::test_each_later_point_is_evaluated_at_its_rotated_tau",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "range(n) if i == 0",
        "(0,) if i == 0",
        "_evaluations evaluating the first drawn point at tau_0 only",
        ("tests/test_cli.py::test_every_family_evaluation_reaches_its_runner",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "    if config.samples < 1:\n"
        '        raise EmptySample("need at least one graph point")\n',
        "",
        "_evaluations without its EmptySample guard",
        ("tests/test_cli.py::test_family_suites_fail_on_an_empty_sample",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "(tail * dy - total * dx) * total",
        "(tail * dy + total * dx) * total",
        "violation_witness reading kappa as tail(x) + sigma, under a family suite",
        ("tests/test_cli.py::test_every_family_evaluation_reaches_its_runner",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "if verdict == Related((0, 1)):",
        "if isinstance(verdict, Related):",
        "_whole_graph_proof taking any Related verdict for the proof",
        ("tests/test_cli.py::test_a_family_suite_fails_on_any_verdict_but_related_with_margin_zero",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "import sys\n",
        "import sys\nfrom fractions import Fraction\n",
        "seqspace importing fractions at module level",
        ("tests/test_package.py::test_the_library_path_loads_only_what_it_runs",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "    g = gcd(p, q)\n    return p // g, q // g\n",
        "    return p, q\n",
        "terms without its gcd reduction",
        ("tests/test_cli.py::test_taus_equal_as_rationals_are_one_tau",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "if not (num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit())):",
        "if not (num.isdigit() and (not slash or den.isdigit())):",
        "terms' wire check accepting non-ASCII digits",
        (
            "tests/test_seqspace.py::test_terms_and_rat_agree_with_fraction",
            "tests/test_seqspace.py::test_terms_and_rat_agree_on_what_they_refuse",
        ),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "num * worst[1] > worst[0] * den",
        "num * worst[1] < worst[0] * den",
        "_run_maximal keeping the violation product farthest from zero",
        ("tests/test_cli.py::test_maximal_evidence_is_the_violation_product_closest_to_zero",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "list.append(failures, f",
        'failures.append("{}", f',
        "run_suite's crash record dropped past MAX_FAILURES_SHOWN",
        ("tests/test_cli.py::test_a_crash_follows_the_failures_appended_before_it",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "for name in cls.__slots__]",
        "for name in reversed(cls.__slots__)]",
        "Frozen binding the slot setters in reversed __slots__ order",
        # ZERO = Seq() then fails, so importing c0cert fails and pytest finds no collectors
        ("tests/test_values.py::test_suite_config_defaults_and_field_order",),
    ),
    Mutant(
        "src/c0cert/seqspace.py",
        "    return Fraction(num, den)\n",
        "    return Fraction(den, num)\n",
        "_fraction building den / num",
        ("tests/test_seqspace.py::test_norm_examples",),
    ),
    Mutant(
        "src/c0cert/cli.py",
        "        if proven:\n",
        "        if True:\n",
        "_run_gap stating the proven per-tau values when the proof failed",
        ("tests/test_cli.py::test_an_unproven_gap_suite_states_no_fitzpatrick_value",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "return self_num * first_den - first_num * self_den,",
        "return first_num * self_den - self_num * first_den,",
        "fitzpatrick_gap subtracting the self-pairing from the evaluation",
        ("tests/test_certify.py::test_fitzpatrick_gap_examples",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "    return num, den\n",
        "    return den, num\n",
        "distinctness returning den, num",
        ("tests/test_certify.py::test_distinctness_examples",),
    ),
    Mutant(
        "src/c0cert/certify.py",
        "return terms((_below(rng, 2 * coeff_bound + 1) - coeff_bound, _below(rng, coeff_bound) + 1))",
        "return _below(rng, 2 * coeff_bound + 1) - coeff_bound, _below(rng, coeff_bound) + 1",
        "random_rational returning the draw unreduced",
        ("tests/test_certify.py::test_random_rational_returns_lowest_terms",),
    ),
)


@functools.cache
def defined_tests(file: str) -> frozenset[str]:
    """The module-level test functions of ``file`` in the unmutated tree; none if it is missing."""
    path = ROOT / file
    if not path.is_file():
        return frozenset()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return frozenset(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
    )


def missing(mutant: Mutant) -> str | None:
    """What of ``mutant`` the unmutated tree lacks, as a ``MISSING`` outcome, or None.

    An entry that names no test is missing its tests: run with no node id,
    pytest would run the whole suite.
    """
    found = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
    if found != 1:
        return f"MISSING (old text found {found} times in {mutant.file})"
    if not mutant.tests:
        return "MISSING (names no test)"
    for test in mutant.tests:
        file, _, name = test.partition("::")
        if name not in defined_tests(file):
            return f"MISSING (no test function {name!r} in {file})"
    return None


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or what went wrong, for one mutant on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="c0cert-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / mutant.file
        target.write_text(
            target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
        )
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(
            [*command, *mutant.tests],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
        )
    if done.returncode in (1, 4):
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    shown = (done.stderr or done.stdout).strip()[-200:]
    return f"ERROR (pytest exit status {done.returncode}: {shown})"


def timed_run(mutant: Mutant) -> tuple[str, float]:
    """``run(mutant)``'s outcome and its wall time in seconds."""
    start = time.perf_counter()
    outcome = run(mutant)
    return outcome, time.perf_counter() - start


def main(mutants: tuple[Mutant, ...] = MUTANTS) -> int:
    started = time.perf_counter()
    absent = [f"{outcome}: {mutant.label}" for mutant in mutants if (outcome := missing(mutant))]
    if absent:
        print(*absent, sep="\n")
        return 1
    bad = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, (outcome, seconds) in zip(mutants, pool.map(timed_run, mutants)):
            bad += outcome != "killed"
            print(f"{outcome}: {mutant.label} [{' '.join(mutant.tests)}, {seconds:.0f} s]", flush=True)
    total = time.perf_counter() - started
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed in {total:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
