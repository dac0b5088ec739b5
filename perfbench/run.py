#!/usr/bin/env python3
"""c0cert benchmark: exact certificate-report latency, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py        # the benchmark's own checks

A run certifies a batch of reports, each the work of ``certify all
--timestamp off``: validated config -> ``run_suite`` ->
``render_json(with_timing=False)``.  The batch's configs are the workload's
config with ``seed`` = ``--seed`` * reports + j for j = 0 .. reports-1.  The
batch runs in a closed loop (one report at a time, in this process) for
``--seconds`` seconds.  Every report produced is checked against closed forms
the benchmark computes itself; at the pinned seed each report's sha256 must
also equal the one in ``pinned.json``.

On a shared 2-vCPU virtual machine (Python 3.11), other tenants move the
CPU between a fast state and one about 2x slower, often for well under a
second at a time, sometimes for tens of seconds.  There a median report
time swings with the share of time spent slow, by 15-35% between runs.  So each report's time is cut into short pieces at every call
from the cli layer into certify, gossez and seqspace (and the cli code
between those calls), and a timing is the sum over pieces of the fastest
time seen for each: the report's time on an uncontended host.  The median
is recorded beside it.  Batches are kept small so that a run repeats them
20-45 times.

End-to-end metrics (``--trace 0``):
  setup_s         median time of a fresh interpreter's ``import c0cert`` plus
                  ``config_from_obj``, over several interpreters
  report_s        seconds per report, as above (batch total / reports)
  checks_per_s    exact identities certified per second: skew samples +
                  monotone pairs + maximal members and violations +
                  extensions graph_points*taus + tau_pairs + gap
                  graph_points*taus, from the reports' own counts
  peak_alloc_mib  tracemalloc peak of one larger report (peak_samples,
                  seed --seed), in its own untimed pass

``--trace 1`` alternates untraced and traced rounds for ``--seconds``.
Spans are recorded around every layer boundary from outside the program,
kept in memory and written once to
``.perfbench/spans-<workload>-seed<seed>.tsv.gz``.  It prints per-layer
metrics: ``<span>.calls`` and ``<span>.self_s`` summed over the batch,
size counts, waste ratios, cli-layer times and ``trace.overhead_s`` (traced
minus untraced ``report_s``).

The result is the last line of standard output.  The line before it
records the environment, the workload's configs, a host reference loop
timed at the start and end (to tell a slow host from a slow change; no
metric is normalised by it) and the failure ratio (failed / attempted).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = HERE / "pinned.json"
TRACE_DIR = ROOT / ".perfbench"

BASE_CONFIG = {
    "samples": 25,
    "support_max": 16,
    "coeff_bound": 100,
    "taus": ["1", "2"],
    "ytilde": {"prefix": ["1"], "tail": "0"},
    "suites": ["all"],
}
# A batch is small enough that a run repeats it 20-45 times (see the module
# docstring) and large enough that its work varies by a few percent from
# seed to seed.  ``peak_samples`` sizes the one report whose memory is
# measured.
WORKLOADS = {
    # The shipped defaults, at a reduced sample count.
    "default": {"reports": 8, "peak_samples": 200, "config": {}},
    # ROADMAP's heavier config: multi-limb rationals, 64-entry supports.
    "long_support": {
        "reports": 3,
        "peak_samples": 60,
        "config": {"samples": 12, "support_max": 64, "coeff_bound": 10**4},
    },
    # Extension side dominates: 20 taus, 190 distinctness pairs per report.
    "many_taus": {
        "reports": 2,
        "peak_samples": 100,
        "config": {
            "samples": 20,
            "taus": [str(t) for t in range(1, 21)],
            "ytilde": {"prefix": ["3/7", "-1/5", "2/3", "1/11"], "tail": "0"},
        },
    },
}

EXCLUSIONS = (
    "Out of scope: t_solve is on no CLI path, so no workload reaches it; the\n"
    "tier-1 pytest time is left out, since it grows with every added test and\n"
    "is not user traffic."
)

SETUP_REPS = 15
MIN_ROUNDS = 3

# Per-layer spans reported as <name>.calls and <name>.self_s.
REPORTED_SPANS = (
    "seqspace.Seq.new",
    "seqspace.Seq.arith",
    "seqspace.pairing",
    "seqspace.total_sum",
    "seqspace.rat",
    "gossez.gossez_apply",
    "certify.random_graph_point",
    "certify.random_offgraph_pair",
    "certify.GraphPoint.new",
    "certify.violation_witness",
    "certify.monotone_product",
    "certify.extension_point",
    "certify.closure_margin",
    "certify.distinctness",
    "certify.fitzpatrick_value",
    "certify.fitzpatrick_gap",
)
RATIOS = (
    "certify.GraphPoint.gossez_per_point",
    "certify.fitzpatrick_value.per_eval",
    "certify.random_offgraph_pair.draws_per_pair",
)

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json, c0cert
from c0cert.cli import config_from_obj
config_from_obj(json.loads(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


def workload_configs(workload: str, seed: int) -> list[dict]:
    """The batch of config documents one run certifies."""
    w = WORKLOADS[workload]
    k = w["reports"]
    return [{**BASE_CONFIG, **w["config"], "seed": seed * k + j} for j in range(k)]


def peak_config(workload: str, seed: int) -> dict:
    """The config document of the report whose peak memory is measured."""
    first = workload_configs(workload, seed)[0]
    return {**first, "seed": seed, "samples": WORKLOADS[workload]["peak_samples"]}


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def import_program():
    """Import c0cert from the checkout's src/ (ImportError if it is absent)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from c0cert import certify, cli, gossez, seqspace

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"c0cert resolved to {cli.__file__}, outside {SRC}")
    return seqspace, gossez, certify, cli


# --- correctness oracle -----------------------------------------------------


def expected_report(config_obj: dict) -> dict:
    """Closed forms for the report's evidence, computed without c0cert."""
    taus = []
    for t in config_obj["taus"]:
        if Fraction(t) not in taus:
            taus.append(Fraction(t))
    total = sum(map(Fraction, config_obj["ytilde"]["prefix"]), Fraction(0))
    pairs = {
        f"{t1},{t2}": str((t1 - t2) * (1 / t1 - 1 / t2) * total)
        for i, t1 in enumerate(taus)
        for t2 in taus[i + 1 :]
    }
    return {"taus": taus, "total": total, "pairs": pairs}


def check_report(text: str, config_obj: dict) -> list[str]:
    """Problems found in a deterministic JSON report; empty when it is correct."""
    exp = expected_report(config_obj)
    total, taus, n = str(exp["total"]), exp["taus"], config_obj["samples"]
    obj = json.loads(text)
    problems = []

    def want(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    want(obj.get("overall") == "pass", "overall is not pass")
    want(obj.get("config", {}).get("seed") == config_obj["seed"], "config seed not echoed")
    want(obj.get("config", {}).get("samples") == n, "config samples not echoed")
    suites = {s["name"]: s for s in obj.get("suites", [])}
    want(sorted(suites) == ["extensions", "gap", "maximal", "monotone", "skew"], "suite set")
    if problems:
        return problems
    for s in suites.values():
        want(s["status"] == "pass" and s["counts"].get("failures") == 0, f"{s['name']} failed")

    skew, mono, maxi = suites["skew"], suites["monotone"], suites["maximal"]
    want(skew["counts"]["samples"] == n, "skew sample count")
    want(skew["evidence"].get("pairing_values") == ["0"], "skew pairings != {0}")
    want(mono["counts"]["pairs"] == n, "monotone pair count")
    want(mono["evidence"].get("products") == ["0"], "monotone products != {0}")
    want(maxi["counts"]["members"] == n and maxi["counts"]["violations"] == n, "maximal counts")
    worst = maxi["evidence"].get("max_violation_product")
    want(worst is not None and Fraction(worst) < 0, "max_violation_product not negative")

    ext, gap = suites["extensions"], suites["gap"]
    want(ext["counts"]["graph_points"] == n and ext["counts"]["taus"] == len(taus), "ext counts")
    want(ext["evidence"].get("closure_margin") == total, "closure margin != sum(ytilde)")
    want(ext["evidence"].get("distinctness_products") == exp["pairs"], "distinctness closed form")
    want(gap["counts"]["graph_points"] == n and gap["counts"]["taus"] == len(taus), "gap counts")
    want(gap["evidence"].get("expected_gap") == total, "expected_gap != sum(ytilde)")
    per_tau = gap["evidence"].get("per_tau", {})
    want(sorted(per_tau) == sorted(str(t) for t in taus), "gap taus")
    for tau, ev in per_tau.items():
        # skewness makes the graph evaluation 0 and the self-pairing sum(ytilde)
        want(ev == {"gap": total, "self_pairing": total, "fitzpatrick_value": "0"}, f"gap at tau {tau}")
    return problems


def counts(texts: list[str], suite: str) -> list[dict]:
    return [next(s["counts"] for s in json.loads(t)["suites"] if s["name"] == suite) for t in texts]


def checks_in(texts: list[str]) -> int:
    """Exact identities the reports certify, from their own counts."""
    return (
        sum(c["samples"] for c in counts(texts, "skew"))
        + sum(c["pairs"] for c in counts(texts, "monotone"))
        + sum(c["members"] + c["violations"] for c in counts(texts, "maximal"))
        + sum(c["graph_points"] * c["taus"] + c["tau_pairs"] for c in counts(texts, "extensions"))
        + sum(c["graph_points"] * c["taus"] for c in counts(texts, "gap"))
    )


class Checker:
    """Applies the oracle to every report a run produces and counts failures."""

    def __init__(self, config_objs: list[dict], pinned_shas: list[str] | None) -> None:
        self.config_objs = config_objs
        self.pinned_shas = pinned_shas
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, j: int, text: str) -> None:
        problems = check_report(text, self.config_objs[j])
        if self.pinned_shas is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != self.pinned_shas[j]:
                problems.append(f"report {j} sha256 {digest} != pinned {self.pinned_shas[j]}")
        self._count(problems)

    def extra(self, text: str, config_obj: dict) -> None:
        """Check a report made from a config outside the batch."""
        self._count(check_report(text, config_obj))

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems = problems


# --- measurements -------------------------------------------------------------


class CallClock:
    """Cuts each report's wall time at every call from cli into c0cert's lower layers.

    While active, every function the cli module imports from certify, gossez
    or seqspace appends its start and end times to ``marks``.  A report's
    time then splits into short pieces: those calls and the stretches of cli
    code between them.  The wrappers cost well under 1% of a report.
    """

    LAYERS = ("c0cert.certify", "c0cert.gossez", "c0cert.seqspace")

    def __init__(self, cli) -> None:
        self.cli = cli
        self.marks: list[float] = []
        self._saved: list[tuple[str, object]] = []

    def _timed(self, fn):
        marks, perf = self.marks, time.perf_counter

        def timed(*args, **kwargs):
            marks.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(perf())

        return timed

    def __enter__(self) -> CallClock:
        for name, value in list(vars(self.cli).items()):
            if isinstance(value, types.FunctionType) and value.__module__ in self.LAYERS:
                self._saved.append((name, value))
                setattr(self.cli, name, self._timed(value))
        return self

    def __exit__(self, *exc) -> None:
        for name, value in self._saved:
            setattr(self.cli, name, value)
        self._saved.clear()


def timed_report(cli, config, clock: CallClock | None = None):
    """Time run_suite + deterministic render_json.

    Returns the report's time cut into pieces by ``clock`` (one piece
    without it), the JSON text and the report.
    """
    marks = clock.marks if clock is not None else []
    marks.clear()
    t0 = time.perf_counter()
    report = cli.run_suite(config)
    text = cli.render_json(report, with_timing=False)
    edges = [t0, *marks, time.perf_counter()]
    return [b - a for a, b in zip(edges, edges[1:])], text, report


def timed_round(cli, configs, check, clock: CallClock | None = None):
    """One report per config: their time pieces and texts, each text checked."""
    times, texts = [], []
    for j, config in enumerate(configs):
        pieces, text, _ = timed_report(cli, config, clock)
        check(j, text)
        times.append(pieces)
        texts.append(text)
    return times, texts


def timed_rounds(cli, configs, check, seconds: float, min_rounds: int, between=None):
    """Rounds in a closed loop until ``seconds`` pass; their times and the last texts.

    ``between`` runs after each round, outside the timed reports.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        with CallClock(cli) as clock:
            times, texts = timed_round(cli, configs, check, clock)
        rounds.append(times)
        if between is not None:
            between()
    return rounds, texts


def fastest_s(rounds: list[list[list[float]]]) -> float:
    """Sum over every report's pieces of the fastest time seen for that piece."""
    total = 0.0
    for report in zip(*rounds):
        if len({len(pieces) for pieces in report}) != 1:
            raise RuntimeError("a report made a different sequence of calls in another round")
        total += sum(min(seen) for seen in zip(*report))
    return total


def median_round_s(rounds: list[list[list[float]]]) -> float:
    return statistics.median(sum(map(sum, r)) for r in rounds)


class SetupTimer:
    """Times fresh interpreters doing `import c0cert` + config_from_obj.

    One sample is taken after each round until there are SETUP_REPS, so
    their median spans much of the run rather than one moment of the host.
    """

    def __init__(self, config_obj: dict) -> None:
        self.cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), json.dumps(config_obj)]
        self.times: list[float] = []
        self._run()  # fills the bytecode cache; not recorded

    def _run(self) -> float:
        out = subprocess.run(self.cmd, capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)

    def sample(self) -> None:
        if len(self.times) < SETUP_REPS:
            self.times.append(self._run())

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self.sample()
        return statistics.median(self.times)


def peak_alloc_mib(cli, config_obj: dict) -> tuple[float, str]:
    """tracemalloc peak of one untimed report, and the report text."""
    # A full collection empties the interpreter's free lists (tuples above
    # all).  Objects reused from them are not traced allocations, so without
    # it the peak depends on what ran before, by up to 4x.
    gc.collect()
    tracemalloc.start()
    try:
        _, text, _ = timed_report(cli, cli.config_from_obj(config_obj))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, text


def reference_loop_s() -> float:
    """A fixed pure-Fraction loop, timed to tell a slow host from a slow change."""
    t0 = time.perf_counter()
    for i in range(1, 20001):
        Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, 3)
    return time.perf_counter() - t0


def end_to_end(program, config_objs: list[dict], peak_obj: dict, seconds: float, check) -> tuple[dict, dict]:
    """End-to-end metrics, and notes for the environment record.

    Peak memory is measured on one larger report, ``peak_obj``: the peak of
    a small report swings with its few largest draws.
    """
    cli = program[3]
    setup = SetupTimer(config_objs[0])
    configs = [cli.config_from_obj(c) for c in config_objs]
    rounds, texts = timed_rounds(cli, configs, check, seconds, MIN_ROUNDS, setup.sample)
    batch_s = fastest_s(rounds)
    peak, text = peak_alloc_mib(cli, peak_obj)
    check.extra(text, peak_obj)
    metrics = {
        "setup_s": setup.median(),
        "report_s": batch_s / len(configs),
        "checks_per_s": checks_in(texts) / batch_s,
        "peak_alloc_mib": peak,
    }
    notes = {"rounds": len(rounds), "report_median_s": median_round_s(rounds) / len(configs)}
    return metrics, notes


# --- traced run ---------------------------------------------------------------


def install(tracer: Tracer, program) -> None:
    seqspace, gossez, certify, cli = program
    tracer.patch(seqspace.Seq, "__init__", "seqspace.Seq.new")
    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        tracer.patch(seqspace.Seq, op, "seqspace.Seq.arith")
    tracer.patch(certify.GraphPoint, "__init__", "certify.GraphPoint.new")
    tracer.patch(certify.GraphPoint, "from_y", "certify.GraphPoint.from_y")
    functions = {
        seqspace: ("pairing", "total_sum", "rat"),
        gossez: ("gossez_apply",),
        certify: (
            "random_summable",
            "random_graph_point",
            "random_offgraph_pair",
            "violation_witness",
            "monotone_product",
            "extension_point",
            "closure_margin",
            "distinctness",
            "fitzpatrick_value",
            "fitzpatrick_gap",
        ),
        cli: ("config_from_obj", "run_suite", "render_json", "render_markdown"),
    }
    for module, names in functions.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.patch_function(getattr(module, name), f"{layer}.{name}")
    for name in list(cli._RUNNERS):
        tracer.patch_item(cli._RUNNERS, name, f"cli.suite.{name}")


def traced_round(program, config_objs: list[dict], check):
    """One traced pass over the batch: config, report and both renderings.

    Returns the tracer, the traced time pieces of run_suite + render_json
    per report (cut as in the untraced rounds), and the JSON reports.
    """
    cli = program[3]
    tracer = Tracer()
    times, texts = [], []
    install(tracer, program)
    try:
        with CallClock(cli) as clock:
            for config_obj in config_objs:
                config = cli.config_from_obj(config_obj)
                pieces, text, report = timed_report(cli, config, clock)
                times.append(pieces)
                texts.append(text)
                cli.render_markdown(report, with_timing=False)
    finally:
        tracer.restore()
    for j, text in enumerate(texts):
        check(j, text)
    return tracer, times, texts


def layer_metrics(tracer: Tracer, texts: list[str]) -> dict:
    """Per-layer counts, self times and waste ratios from one traced pass."""
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict:
        return summary.get(name, zero)

    out = {}
    for name in REPORTED_SPANS:
        out[f"{name}.calls"] = span(name)["calls"]
        out[f"{name}.self_s"] = span(name)["self_s"]
    # G evaluations made while building a graph point through from_y: the
    # from_y body plus the validation in the GraphPoint it constructs.
    from_y = span("certify.GraphPoint.from_y")["calls"]
    under = tracer.count_under("gossez.gossez_apply", "certify.GraphPoint.from_y")
    out["certify.GraphPoint.gossez_per_point"] = under / from_y if from_y else 0.0
    evals = sum(c["graph_points"] * c["taus"] for c in counts(texts, "gap"))
    out["certify.fitzpatrick_value.per_eval"] = span("certify.fitzpatrick_value")["calls"] / evals
    pairs = span("certify.random_offgraph_pair")["calls"]
    draws = tracer.count_under("certify.random_summable", "certify.random_offgraph_pair")
    out["certify.random_offgraph_pair.draws_per_pair"] = draws / pairs if pairs else 0.0
    out["cli.config_from_obj.s"] = span("cli.config_from_obj")["total_s"]
    for suite in ("extensions", "gap", "maximal", "monotone", "skew"):
        out[f"cli.suite.{suite}.s"] = span(f"cli.suite.{suite}")["total_s"]
    out["cli.render_json.s"] = span("cli.render_json")["total_s"]
    out["cli.render_markdown.s"] = span("cli.render_markdown")["total_s"]
    out["cli.report.bytes"] = sum(len(t.encode("utf-8")) for t in texts)
    return out


def is_exact(name: str) -> bool:
    """Whether a per-layer metric is a count or ratio that repeats exactly at a seed."""
    return name.endswith(".calls") or name in RATIOS or name == "cli.report.bytes"


def sizes(program, configs, check) -> dict:
    """Prefix entries stored by Seq construction and the largest numerator/denominator."""
    seqspace, cli = program[0], program[3]
    original = seqspace.Seq.__post_init__
    entries = bits = 0

    def measured(self) -> None:
        nonlocal entries, bits
        original(self)
        entries += len(self.prefix)
        for v in (*self.prefix, self.tail):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())

    seqspace.Seq.__post_init__ = measured
    try:
        timed_round(cli, configs, check)
    finally:
        seqspace.Seq.__post_init__ = original
    return {"seqspace.Seq.new.entries": entries, "seqspace.max_bits": bits}


def per_layer(program, config_objs: list[dict], seconds: float, check, spans_path: Path):
    """Untraced and traced rounds, alternating, until ``seconds`` pass.

    Alternating keeps a change in the host's state from landing on one side
    of ``trace.overhead_s``.  Returns the metrics, and notes for the
    environment record that say whether every traced round gave the same
    counts.
    """
    cli = program[3]
    configs = [cli.config_from_obj(c) for c in config_objs]
    untraced, traced, runs, tracer = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        with CallClock(cli) as clock:
            untraced.append(timed_round(cli, configs, check, clock)[0])
        tracer = None  # release the previous round's spans first
        tracer, times, texts = traced_round(program, config_objs, check)
        traced.append(times)
        runs.append(layer_metrics(tracer, texts))
    metrics = {
        name: runs[0][name] if is_exact(name) else statistics.median(r[name] for r in runs)
        for name in runs[0]
    }
    steady = all(r[n] == runs[0][n] for r in runs for n in r if is_exact(n))
    metrics.update(sizes(program, configs, check))
    metrics["trace.overhead_s"] = (fastest_s(traced) - fastest_s(untraced)) / len(configs)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    notes = {
        "traced_rounds": len(runs),
        "trace_counts_repeat": steady,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, notes


# --- entry point ----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, without looking above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def help_epilog(spec: dict) -> str:
    lines = ["workloads:"]
    for w in spec["workloads"]:
        first = {k: v for k, v in workload_configs(w["name"], 0)[0].items() if k != "seed"}
        lines.append(f"  {w['name']}: {w['why']}")
        lines.append(f"    {WORKLOADS[w['name']]['reports']} reports per batch, each {json.dumps(first)}")
        lines.append(f"    peak memory on one report of {WORKLOADS[w['name']]['peak_samples']} samples")
    lines.append("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']} [{m['unit']}], {m['better']} is better, bound {m['bound']}")
    lines.append("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        lines.append(f"  {m['name']} [{m['unit']}]")
    lines.append("")
    lines.append(EXCLUSIONS)
    return "\n".join(lines)


def parse_args(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__,
        epilog=help_epilog(spec),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(workload: str, seed: int, seconds: float, trace: int, program, samples: int | None = None):
    """One benchmark run. Returns (result, env); ``samples`` shrinks the reports for self-tests."""
    spec, pinned = load_json(SPEC_PATH), load_json(PINNED_PATH)
    config_objs = workload_configs(workload, seed)
    at_pin = seed == pinned["seed"] and samples is None
    if samples is not None:
        config_objs = [{**c, "samples": samples} for c in config_objs]
    check = Checker(config_objs, pinned["workloads"][workload]["report_sha256"] if at_pin else None)
    ref_start = reference_loop_s()
    if trace:
        spans = TRACE_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
        values, notes = per_layer(program, config_objs, seconds, check, spans)
        wanted = spec["per_layer"]
    else:
        peak_obj = peak_config(workload, seed)
        if samples is not None:
            peak_obj["samples"] = samples
        values, notes = end_to_end(program, config_objs, peak_obj, seconds, check)
        wanted = spec["end_to_end"]
    ref_end = reference_loop_s()
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metrics differ from {SPEC_PATH.name}: {sorted(set(values) ^ names)}")
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "configs": config_objs,
        "host_reference_loop_s": {"start": ref_start, "end": ref_end},
        "fail_ratio": check.failed / check.attempted,
        "problems": check.problems,
        **notes,
    }
    if trace and at_pin:
        base = pinned["workloads"][workload]["counts"]
        env["pinned_count_diff"] = {k: [v, values[k]] for k, v in base.items() if values[k] != v}
    result = {
        "correct": check.failed == 0 and notes.get("trace_counts_repeat", True),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, env


def main(argv=None) -> int:
    spec = load_json(SPEC_PATH)
    args = parse_args(argv, spec)
    try:
        program = import_program()
    except ImportError as exc:
        print(f"error: cannot import c0cert from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, env = measure(args.workload, args.seed, args.seconds, args.trace, program)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
