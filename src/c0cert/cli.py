"""certify: run exact certificate suites from a JSON config, emit reports.

    certify run [--config PATH|-] [--format json|markdown] [--out PATH]
                [--timestamp on|off]
    certify {skew,monotone,maximal,extensions,gap,all} [same options]

The suite shortcuts run a single suite (or every suite, for ``all``)
regardless of the config's suite selection.  Without ``--config`` a built-in
default configuration is used: seed 0, 1000 samples per suite, support_max
16, coeff_bound 100, parameters 1 and 2, direction unit(1), all suites.  A
config's unspecified fields take these defaults, validated like given ones.

Every evidence value in a report is an exact rational serialized as "p/q".
With ``--timestamp off`` the report carries no timestamp and no wall-clock
durations, so identical configs produce byte-identical reports.

A config may request at most MAX_SAMPLES samples, MAX_SUPPORT for
``support_max`` and for the prefix length of ``ytilde``, MAX_COEFF_BOUND for
``coeff_bound`` and MAX_TAUS entries in ``taus``; more is a config error,
since the work of a run grows with each.  Each rational in ``taus``, in
the ``ytilde`` prefix and the ``ytilde`` tail is bounded like a drawn
entry: in lowest terms, its numerator and denominator are at most
MAX_COEFF_BOUND in absolute value.  All of them go through one parser,
``_rational``, so a bad value gets the same message in each field.

Each suite has one runner, ``runner(config, rng, family) -> (failures,
counts, evidence)``, and ``run_suite`` builds every suite result from what
a runner returns or raises.

Exit codes: 0 all selected suites passed, 1 some suite failed, 2 config
error, 3 report could not be written.

The library path (``config_from_obj``, ``run_suite``, and ``render_json``
or ``render_markdown`` without timing) loads only the modules it runs:
``main`` imports ``argparse`` when it builds its parser, ``datetime`` is
imported only for the ``generated_at`` stamp of ``--timestamp on``, and
config and report files are read and written with ``open``.

``render_json`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` without calling it on the report: with ``indent`` set, CPython's
``json`` takes its pure-Python encoder, which builds a list of small chunk
strings, several per item, and costs 6.6-11.9x the report's text in memory.
``_indented`` lays out the containers and makes each item one string, and
``json``'s own encoders write every string and scalar.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections.abc import Callable, Iterator
from functools import cache
from json.encoder import encode_basestring_ascii as _quoted

from .certify import (
    extension_family,
    closure_margin_terms,
    family_products,
    fitzpatrick_value_terms,
    monotone_product_terms,
    random_graph_point,
    random_offgraph_pair,
    random_summable,
    violation_witness,
    EmptySample,
    ExtensionFamily,
    GraphPoint,
    Member,
    Related,
    Violation,
)
from .gossez import gossez_apply
from .seqspace import (
    Frozen,
    Rational,
    Seq,
    _shown,
    pairing_numerator,
    rat,
    terms_str,
    unit,
)

__all__ = [
    "ConfigError",
    "SuiteConfig",
    "SuiteResult",
    "SuiteReport",
    "SUITE_NAMES",
    "parse_config",
    "config_from_obj",
    "run_suite",
    "render_json",
    "render_markdown",
    "emit_report",
    "main",
]

# Canonical report order: suite name order, independent of execution order.
SUITE_NAMES = ("extensions", "gap", "maximal", "monotone", "skew")

# Cap on failure messages kept per suite; counts always carry the full number.
MAX_FAILURES_SHOWN = 5

# Upper bounds on the work a config may request.  Sampled work grows with
# samples + taus: each later sampled point is evaluated at one tau, and
# each tau builds one family point per report and evaluates the first graph
# point directly.  Only the distinctness products grow with the square of the
# number n of taus: n * (n - 1) / 2 pairs from n**2 integer pairings.
# support_max, the prefix length of ytilde and coeff_bound set the length
# and the bit size of every exact entry.
MAX_SAMPLES = 100_000
MAX_SUPPORT = 256
MAX_COEFF_BOUND = 10**6
MAX_TAUS = 64


class ConfigError(ValueError):
    """The configuration document is malformed or violates a precondition."""


class SuiteConfig(Frozen):
    """Validated run configuration; ``SuiteConfig()`` is the default run.

    ``config_from_obj`` fills the fields a document leaves out from these
    defaults, so they are stated here only.
    """

    __slots__ = ("seed", "samples", "support_max", "coeff_bound", "taus", "ytilde", "suites")

    def __init__(
        self,
        seed: int = 0,
        samples: int = 1000,
        support_max: int = 16,
        coeff_bound: int = 100,
        taus: tuple[Rational, ...] = (rat(1), rat(2)),
        ytilde: Seq = unit(1),
        suites: tuple[str, ...] = SUITE_NAMES,
    ) -> None:
        Frozen.__init__(self, seed, samples, support_max, coeff_bound, taus, ytilde, suites)

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "support_max": self.support_max,
            "coeff_bound": self.coeff_bound,
            "taus": [str(t) for t in self.taus],
            "ytilde": {
                "prefix": [terms_str(v, self.ytilde.den) for v in self.ytilde.num],
                "tail": terms_str(self.ytilde.tnum, self.ytilde.den),
            },
            "suites": list(self.suites),
        }


# The defaults as a config document: config_from_obj takes each field a
# document leaves out from here and parses it like a given one.
_DEFAULTS = SuiteConfig().to_obj()


class SuiteResult(Frozen):
    __slots__ = ("name", "counts", "evidence", "failures", "duration")

    @property
    def passed(self) -> bool:
        return not self.failures


class SuiteReport(Frozen):
    __slots__ = ("config", "results")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _rational(item: object, where: str) -> Rational:
    """``item`` parsed by ``rat``, bounded like a drawn entry.

    In lowest terms, |numerator| and denominator must be at most
    MAX_COEFF_BOUND: a larger config entry only grows every exact value
    computed from it.
    """
    try:
        value = rat(item)
    except TypeError:
        expected = "expected an integer or a 'p/q' string"
        raise ConfigError(f"{where}: {expected}, got {_shown(item)}") from None
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: malformed rational string {_shown(item)}") from None
    if max(abs(value.numerator), value.denominator) > MAX_COEFF_BOUND:
        raise ConfigError(f"{where}: |numerator| and denominator must be at most {MAX_COEFF_BOUND}")
    return value


def _parse_int(value: object, where: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {_shown(value)}")
    if value < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where}: must be at most {maximum}, got {_shown(value)}")
    return value


def config_from_obj(obj: object) -> SuiteConfig:
    """Validate a decoded JSON document into a SuiteConfig.

    Unspecified fields are taken from the defaults' document and validated
    like given ones; every violation is reported with the offending field in
    the message.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj).difference(SuiteConfig.__slots__)
    if unknown:
        raise ConfigError(f"unknown config keys: {_shown(sorted(unknown))}")
    obj = {**_DEFAULTS, **obj}

    seed = _parse_int(obj["seed"], "seed", 0)
    samples = _parse_int(obj["samples"], "samples", 1, MAX_SAMPLES)
    support_max = _parse_int(obj["support_max"], "support_max", 2, MAX_SUPPORT)
    coeff_bound = _parse_int(obj["coeff_bound"], "coeff_bound", 1, MAX_COEFF_BOUND)

    raw_taus = obj["taus"]
    if not isinstance(raw_taus, list) or not raw_taus:
        raise ConfigError("taus: expected a nonempty list")
    if len(raw_taus) > MAX_TAUS:
        raise ConfigError(f"taus: at most {MAX_TAUS} values, got {len(raw_taus)}")
    taus = []
    for i, item in enumerate(raw_taus):
        tau = _rational(item, f"taus[{i}]")
        if tau <= 0:
            raise ConfigError(f"taus[{i}]: must be positive, got {tau}")
        if tau not in taus:  # deduplicate, keeping first occurrence order
            taus.append(tau)

    raw_ytilde = obj["ytilde"]
    if not isinstance(raw_ytilde, dict):
        raise ConfigError("ytilde: expected an object with 'prefix' and 'tail'")
    unknown = set(raw_ytilde) - {"prefix", "tail"}
    if unknown:
        raise ConfigError(f"ytilde: unknown keys {_shown(sorted(unknown))}")
    prefix = raw_ytilde.get("prefix", [])
    if not isinstance(prefix, list):
        raise ConfigError("ytilde: 'prefix' must be a list")
    if len(prefix) > MAX_SUPPORT:
        raise ConfigError(f"ytilde: at most {MAX_SUPPORT} prefix entries, got {len(prefix)}")
    # each entry is bounded before Seq puts them all over their lcm
    entries = [_rational(v, f"ytilde: prefix[{j}]") for j, v in enumerate(prefix)]
    ytilde = Seq(entries, _rational(raw_ytilde.get("tail", 0), "ytilde: tail"))
    if ytilde.tnum:
        raise ConfigError("ytilde: must be finitely supported (tail 0)")
    if sum(ytilde.num) <= 0:  # the pairing with the ones sequence, times den > 0
        raise ConfigError("ytilde: pairing with the ones sequence must be positive")

    raw_suites = obj["suites"]
    if not isinstance(raw_suites, list) or not raw_suites:
        raise ConfigError("suites: expected a nonempty list")
    for i, name in enumerate(raw_suites):
        if name != "all" and name not in SUITE_NAMES:
            raise ConfigError(f"suites[{i}]: unknown suite name {_shown(name)}")
    suites = tuple(n for n in SUITE_NAMES if n in raw_suites or "all" in raw_suites)

    return SuiteConfig(seed, samples, support_max, coeff_bound, tuple(taus), ytilde, suites)


def parse_config(source: str) -> SuiteConfig:
    """Load and validate a config from a file path, or from stdin for '-'."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, encoding="utf-8") as f:
                text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise ConfigError(f"config cannot be decoded: {exc}") from None
    return config_from_obj(obj)


# --- suite runners ---------------------------------------------------------
#
# A runner takes (config, rng, family) and returns (failures, counts,
# evidence); ``run_suite`` builds the suite's result from them.  A runner
# appends its failures to a ``_Failures``, which formats and keeps the first
# MAX_FAILURES_SHOWN messages and counts the rest, and the skew and monotone
# runners collect the values they list in a ``_Seen``, which keeps 0 and the
# first MAX_FAILURES_SHOWN failing values; so a failing run's memory does not
# grow with its failures.  Each suite draws from its own deterministic
# generator, seed split by suite name, so suites could run in any order (or
# in parallel) without changing any draw.
#
# Runners check the certify layer's integer (numerator, denominator) results
# by cross-multiplication.  A value that reaches the report or a failure
# message is written from its terms with ``terms_str``, or, if the runner
# holds it as a Fraction (a tau, the family's total, the worst violation
# product), with ``str()``.  The skew and monotone runners collect those
# strings in their ``_Seen``: equal rationals have equal strings, so the
# set keeps distinct values.
#
# Each family suite proves its claim for the whole graph with one tau-free
# call, ``violation_witness(-G(ytilde), ytilde)``: ``Related(0)`` gives every
# family point closure margin s and Fitzpatrick value 0 at every graph point
# and every tau > 0 (see its docstring), and any other verdict is one
# failure.  The sample, drawn one point at a time and not kept, ties the
# proof to the definitions: the first point is evaluated directly at every
# tau, and each later point i once, at tau_(i mod n) for n taus.
# ``_evaluations`` yields the first point's evaluations and each later one
# that differs from the proven value or from the first point's, so a runner
# sees every failure and every value that differs from the first point's at
# its tau, as a loop over every evaluation would.

_Family = Callable[[], ExtensionFamily]


class _Failures(list):
    """A runner's failure messages, the first MAX_FAILURES_SHOWN of them.

    ``total`` counts every failure appended, kept or not.  A failure is
    appended as a template and its arguments, and formatted only if kept:
    a failing run does not print every sequence or value it fails on.
    """

    total = 0

    def append(self, template: str, *args: object) -> None:
        self.total += 1
        if len(self) < MAX_FAILURES_SHOWN:
            list.append(self, template.format(*args))


class _Seen(set):
    """The values a skew or monotone runner lists: "0", if seen, and its first failing ones.

    Each value is the string ``terms_str`` writes.  It keeps at most
    MAX_FAILURES_SHOWN distinct failing (nonzero) values, the first seen, so
    the values a failing run lists, like its messages, do not grow with its
    failures; its counts carry their number.
    """

    def add(self, value: str) -> None:
        if value == "0" or len(self) < MAX_FAILURES_SHOWN + ("0" in self):
            set.add(self, value)


def _rng(config: SuiteConfig, name: str) -> random.Random:
    return random.Random(f"{config.seed}:{name}")


def _graph_sample(config: SuiteConfig, rng: random.Random) -> Iterator[GraphPoint]:
    for _ in range(config.samples):
        yield random_graph_point(rng, config.support_max, config.coeff_bound)


def _run_skew(config: SuiteConfig, rng: random.Random, family: _Family) -> tuple:
    failures = _Failures()
    seen = _Seen()
    for _ in range(config.samples):
        y = random_summable(rng, config.support_max, config.coeff_bound)
        image = gossez_apply(y)
        num = pairing_numerator(image, y)
        value = terms_str(num, image.den * y.den) if num else "0"
        seen.add(value)
        if num:
            failures.append("pairing(G(y), y) = {} for y = {}", value, y)
    evidence = {"pairing_values": sorted(seen)}
    return failures, {"samples": config.samples}, evidence


def _run_monotone(config: SuiteConfig, rng: random.Random, family: _Family) -> tuple:
    failures = _Failures()
    seen = _Seen()
    for _ in range(config.samples):
        p = random_graph_point(rng, config.support_max, config.coeff_bound)
        q = random_graph_point(rng, config.support_max, config.coeff_bound)
        num, den = monotone_product_terms(p, q)
        value = terms_str(num, den) if num else "0"
        seen.add(value)
        if num:
            failures.append("monotone product {} for a graph pair", value)
    evidence = {"products": sorted(seen)}
    return failures, {"pairs": config.samples}, evidence


def _run_maximal(config: SuiteConfig, rng: random.Random, family: _Family) -> tuple:
    failures = _Failures()
    worst = None  # violation product closest to zero; must stay negative
    for _ in range(config.samples):
        p = random_graph_point(rng, config.support_max, config.coeff_bound)
        verdict = violation_witness(p.x, p.y)
        if not isinstance(verdict, Member):
            failures.append("graph point misclassified: {!r}", verdict)
    # violation_witness recomputes each product from its witness sequences and
    # raises unless it is exactly -1 or -total^2 < 0
    for _ in range(config.samples):
        x, y = random_offgraph_pair(rng, config.support_max, config.coeff_bound)
        verdict = violation_witness(x, y)
        if not isinstance(verdict, Violation):
            failures.append("perturbed pair misclassified as a member")
        elif worst is None or verdict.product > worst:
            worst = verdict.product
    evidence = {} if worst is None else {"max_violation_product": str(worst)}
    counts = {"members": config.samples, "violations": config.samples}
    return failures, counts, evidence


def _whole_graph_proof(fam: ExtensionFamily, failures: _Failures) -> None:
    """Appends one failure unless (-G(ytilde), ytilde) is ``Related(0)``."""
    verdict = violation_witness(-fam.g, fam.ytilde)
    if verdict != Related(0):
        failures.append("margin {} not proven on the whole graph: {!r}", fam.total, verdict)


def _evaluations(
    config: SuiteConfig, rng: random.Random, fam: ExtensionFamily, terms: Callable, proven: tuple
) -> Iterator[tuple[int, int, int]]:
    """``(k, num, den)`` for the direct evaluations ``terms(fam.points[k], p)`` a runner sees.

    ``terms`` is ``closure_margin_terms`` or ``fitzpatrick_value_terms``,
    and ``proven`` the value the proof gives them, as integer terms
    ``(num, den)`` with den > 0.  The first sampled point is evaluated at
    every tau, in tau order, and each of those is yielded.  Point i > 0 is
    evaluated at tau_(i mod n), and yielded if its value is not the proven
    one, or if the first point's value at that tau is not.
    """
    proven_num, proven_den = proven
    points, n, hits = fam.points, len(fam.points), []  # hits[k]: first value at tau_k proven
    for i, p in enumerate(_graph_sample(config, rng)):
        if i:
            k = i % n
            num, den = terms(points[k], p)
            if num * proven_den != proven_num * den or not hits[k]:
                yield k, num, den
            continue
        for k, ep in enumerate(points):
            num, den = terms(ep, p)
            hits.append(num * proven_den == proven_num * den)
            yield k, num, den
    if not hits:
        raise EmptySample("need at least one graph point")


def _run_extensions(config: SuiteConfig, rng: random.Random, family: _Family) -> tuple:
    failures = _Failures()
    fam = family()
    _whole_graph_proof(fam, failures)
    exp_num, exp_den = fam.total.numerator, fam.total.denominator
    for k, num, den in _evaluations(config, rng, fam, closure_margin_terms, (exp_num, exp_den)):
        if num * exp_den != exp_num * den or num <= 0:
            margin = terms_str(num, den)
            failures.append("margin {} != {} at tau = {}", margin, fam.total, fam.points[k].tau)
    if len(fam.points) < 2:
        failures.append("insufficient distinct taus for pairwise distinctness")
    keys = [str(ep.tau) for ep in fam.points]
    # family_products raises unless each product is negative and matches its closed form
    products = {
        f"{keys[i]},{keys[j]}": terms_str(num, den) for i, j, num, den in family_products(fam)
    }
    counts = {"graph_points": config.samples, "taus": len(config.taus), "tau_pairs": len(products)}
    evidence = {"closure_margin": str(fam.total), "distinctness_products": products}
    return failures, counts, evidence


def _run_gap(config: SuiteConfig, rng: random.Random, family: _Family) -> tuple:
    failures = _Failures()
    fam = family()
    _whole_graph_proof(fam, failures)
    first, varies = {}, set()  # each tau's first value; the taus where another differs
    for k, num, den in _evaluations(config, rng, fam, fitzpatrick_value_terms, (0, 1)):
        first_num, first_den = first.setdefault(k, (num, den))
        if num * first_den != first_num * den:
            varies.add(k)
    exp_num, exp_den = fam.total.numerator, fam.total.denominator
    per_tau = {}
    for k, (ep, diagonal) in enumerate(zip(fam.points, fam.diagonal)):
        if k in varies:
            failures.append("Fitzpatrick values not constant at tau = {}", ep.tau)
            continue
        # the gap is the self-pairing diagonal / self_den minus the value num / den
        num, den = first[k]
        self_den = ep.xstar.den * ep.xstarstar.den
        gap_num, gap_den = diagonal * den - num * self_den, self_den * den
        gap = terms_str(gap_num, gap_den)
        if gap_num * exp_den != exp_num * gap_den or gap_num <= 0:
            failures.append("gap {} != expected {} at tau = {}", gap, fam.total, ep.tau)
        per_tau[str(ep.tau)] = {
            "fitzpatrick_value": terms_str(num, den),
            "self_pairing": terms_str(diagonal, self_den),
            "gap": gap,
        }
    counts = {"graph_points": config.samples, "taus": len(config.taus)}
    evidence = {"expected_gap": str(fam.total), "per_tau": per_tau}
    return failures, counts, evidence


_RUNNERS = {
    "skew": _run_skew,
    "monotone": _run_monotone,
    "maximal": _run_maximal,
    "extensions": _run_extensions,
    "gap": _run_gap,
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute the selected suites; certificate errors become suite failures.

    Each runner is called as ``runner(config, rng, family)``: ``rng`` is the
    suite's own generator, and ``family`` returns the report's
    ``ExtensionFamily``, built at most once per call, for the first family
    suite that runs.  A build that raises is not cached, so each family
    suite records the crash.  A runner returns ``(failures, counts,
    evidence)``, with ``failures`` a ``_Failures``: the result keeps its at
    most MAX_FAILURES_SHOWN messages, and its counts add ``failures``, the
    number of messages the runner appended.  A crash is recorded as the
    one failure ``Type: message (file.py:LINE)``, naming the innermost
    frame of its traceback, with no counts and no evidence.
    """

    @cache
    def family() -> ExtensionFamily:
        return extension_family(config.taus, config.ytilde)

    results = []
    for name in config.suites:
        started = time.perf_counter()
        try:
            failures, counts, evidence = _RUNNERS[name](config, _rng(config, name), family)
            counts = {**counts, "failures": failures.total}
        except Exception as exc:  # a crash is itself a failed certificate
            tb = exc.__traceback__
            while tb.tb_next is not None:  # walk to the innermost frame
                tb = tb.tb_next
            where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
            failures, counts, evidence = [f"{type(exc).__name__}: {exc} ({where})"], {}, {}
        duration = time.perf_counter() - started
        results.append(SuiteResult(name, counts, evidence, list(failures), duration))
    return SuiteReport(config, results)


# --- report rendering ------------------------------------------------------


def report_obj(report: SuiteReport, with_timing: bool) -> dict:
    suites = []
    for r in report.results:
        entry = {
            "name": r.name,
            "status": "pass" if r.passed else "fail",
            "counts": r.counts,
            "evidence": r.evidence,
            "failures": r.failures,
        }
        if with_timing:
            entry["duration_s"] = round(r.duration, 3)
        suites.append(entry)
    obj = {
        "overall": "pass" if report.passed else "fail",
        "config": report.config.to_obj(),
        "suites": suites,
    }
    if with_timing:
        from datetime import datetime, timezone  # only timed reports need the clock

        obj["generated_at"] = datetime.now(timezone.utc).isoformat()
    return obj


def _indented(value: object, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, one string per item.

    ``value`` is a JSON tree with str keys; ``pad`` is the newline and the
    indent of the line that closes it.  Containers are laid out here; each
    string and key goes to ``json``'s own ``encode_basestring_ascii`` and
    every other scalar to ``json.dumps``, so escaping and number formats are
    ``json``'s.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        # a str item is quoted here, not in a call of its own; (value[key],)
        # binds each item once, as a plain assignment
        items = [
            f"{_quoted(key)}: {_quoted(item) if isinstance(item, str) else _indented(item, inner)}"
            for key in sorted(value)
            for item in (value[key],)
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [
            _quoted(item) if isinstance(item, str) else _indented(item, inner) for item in value
        ]
        brackets = "[]"
    else:
        return _quoted(value) if isinstance(value, str) else json.dumps(value)
    if not items:
        return brackets
    body = f",{inner}".join(items)
    del items  # so the items and the body's copy below are not held at once
    return f"{brackets[0]}{inner}{body}{pad}{brackets[1]}"


def render_json(report: SuiteReport, with_timing: bool = True) -> str:
    return _indented(report_obj(report, with_timing)) + "\n"


def _flat(prefix: str, value: object):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flat(f"{prefix}.{key}" if prefix else str(key), value[key])
    else:
        yield prefix, json.dumps(value)


def render_markdown(report: SuiteReport, with_timing: bool = True) -> str:
    obj = report_obj(report, with_timing)
    lines = [
        "# Certificate report",
        "",
        f"Overall: **{obj['overall'].upper()}**",
        "",
        "Config: `" + json.dumps(obj["config"], sort_keys=True) + "`",
        "",
        "| suite | status | counts |",
        "| --- | --- | --- |",
    ]
    for entry in obj["suites"]:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(entry["counts"].items()))
        lines.append(f"| {entry['name']} | {entry['status']} | {counts} |")
    for entry in obj["suites"]:
        lines.append("")
        lines.append(f"## {entry['name']}: {entry['status']}")
        for key, value in _flat("", entry["evidence"]):
            lines.append(f"- {key} = {value}")
        for message in entry["failures"]:
            lines.append(f"- FAILURE: {message}")
        if with_timing:
            lines.append(f"- duration_s = {entry['duration_s']}")
    if with_timing:
        lines.append("")
        lines.append(f"Generated at {obj['generated_at']}")
    return "\n".join(lines) + "\n"


def emit_report(
    report: SuiteReport,
    format: str = "json",
    out: str | None = None,
    with_timing: bool = True,
) -> int:
    """Write the report; exit code 0 on overall pass, 1 on failure, 3 on I/O error."""
    text = render_json(report, with_timing) if format == "json" else render_markdown(
        report, with_timing
    )
    try:
        if out is None or out == "-":
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as f:
                f.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 3
    return 0 if report.passed else 1


# --- entry point -----------------------------------------------------------


def _build_parser():
    import argparse  # only main parses a command line

    parser = argparse.ArgumentParser(
        prog="certify",
        description="Run exact certificate suites for the skew operator construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"run": "run the suites selected by the config", "all": "run every suite"}
    for name in ("run", "all") + SUITE_NAMES:
        p = sub.add_parser(name, help=helps.get(name, f"run the {name} suite"))
        p.add_argument("--config", default=None, help="config file path, or '-' for stdin")
        p.add_argument("--format", choices=("json", "markdown"), default="json")
        p.add_argument("--out", default=None, help="report path (default: stdout)")
        p.add_argument(
            "--timestamp",
            choices=("on", "off"),
            default="on",
            help="'off' drops timestamp and durations for byte-identical reports",
        )
    return parser


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config is not None else SuiteConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command != "run":  # "all" and each suite name are suite selections
        config = config_from_obj({**config.to_obj(), "suites": [args.command]})
    report = run_suite(config)
    return emit_report(report, args.format, args.out, args.timestamp == "on")
