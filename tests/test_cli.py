"""Config parsing, suite runner, report rendering, exit codes."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import re
import tracemalloc
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import c0cert.certify
import c0cert.cli
from c0cert.certify import (
    ExtensionFamily,
    Member,
    Related,
    Violation,
    closure_margin,
    distinctness,
    extension_point,
    fitzpatrick_value,
)
from c0cert.cli import (
    MAX_COEFF_BOUND,
    MAX_FAILURES_SHOWN,
    MAX_SAMPLES,
    MAX_SUPPORT,
    MAX_TAUS,
    SUITE_NAMES,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    SuiteResult,
    config_from_obj,
    emit_report,
    main,
    parse_config,
    render_json,
    render_markdown,
    run_suite,
)
from c0cert.gossez import gossez_apply
from c0cert.seqspace import ONES, Seq, _derived, pairing, unit

from strategies import fraction_of

FAST = {"samples": 25}


def fast_config(**overrides) -> SuiteConfig:
    obj = dict(FAST)
    obj.update(overrides)
    return config_from_obj(obj)


# --- config parsing ---------------------------------------------------------


def test_minimal_config_gets_defaults():
    cfg = config_from_obj(
        {"seed": 7, "ytilde": {"prefix": ["1"], "tail": "0"}, "taus": [1, 2]}
    )
    assert cfg.seed == 7
    assert cfg.samples == 1000
    assert cfg.support_max == 16
    assert cfg.coeff_bound == 100
    assert cfg.suites == ("extensions", "gap", "maximal", "monotone", "skew")
    assert cfg.taus == ((1, 1), (2, 1))
    assert cfg.ytilde == unit(1)
    assert config_from_obj({}) == SuiteConfig()


def test_duplicate_taus_are_deduplicated():
    cfg = config_from_obj({"taus": [1, 1]})
    assert cfg.taus == ((1, 1),)


def test_taus_equal_as_rationals_are_one_tau():
    """Each tau is held in lowest terms, so "2/2" is the tau 1 again."""
    assert config_from_obj({"taus": ["1", "2/2"]}).taus == ((1, 1),)
    assert config_from_obj({"taus": ["3/6", "4/8", 1]}).taus == ((1, 2), (1, 1))


def test_rational_strings_parse():
    cfg = config_from_obj({"taus": ["1/3", "2", "1/3"]})
    assert cfg.taus == ((1, 3), (2, 1))


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ({"ytilde": {"prefix": ["-1", "1"], "tail": "0"}}, "ytilde"),  # zero total
        ({"ytilde": {"prefix": [], "tail": "1"}}, "ytilde"),
        ({"ytilde": {"prefix": ["1/x"], "tail": "0"}}, "prefix[0]"),
        ({"taus": []}, "taus"),
        ({"taus": [0]}, "taus[0]"),
        ({"taus": ["-1/2"]}, "taus[0]"),
        ({"taus": ["2/0"]}, "taus[0]"),
        ({"taus": [0.5]}, "taus[0]"),
        ({"suites": []}, "suites"),
        ({"suites": ["spam"]}, "suites[0]"),
        ({"seed": -1}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"samples": 0}, "samples"),
        ({"support_max": 1}, "support_max"),
        ({"mystery": 1}, "mystery"),
        ([], "object"),
    ],
)
def test_config_errors_name_the_field(obj, fragment):
    with pytest.raises(ConfigError) as excinfo:
        config_from_obj(obj)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "field, bound",
    [
        ("samples", MAX_SAMPLES),
        ("support_max", MAX_SUPPORT),
        ("coeff_bound", MAX_COEFF_BOUND),
        ("taus", MAX_TAUS),
        ("ytilde", MAX_SUPPORT),
    ],
)
def test_config_bounds_the_requested_work(tmp_path, capsys, field, bound):
    def value(k):
        if field == "ytilde":  # the raw length counts, trailing zeros included
            return {"prefix": ["1"] + ["0"] * (k - 1), "tail": "0"}
        return [str(t) for t in range(1, k + 1)] if field == "taus" else k

    config_from_obj({field: value(bound)})  # the bound itself is admitted
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value(bound + 1)}), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


@pytest.mark.parametrize(
    "field, document, site",
    [
        ("taus", {"samples": 5, "taus": ["1/1000001", "2"]}, "taus[0]"),
        (
            "ytilde",
            {"samples": 5, "ytilde": {"prefix": ["1/1000001", "1"], "tail": "0"}},
            "ytilde: prefix[0]",
        ),
    ],
    ids=["taus", "ytilde"],
)
def test_config_bounds_each_rational(monkeypatch, capsys, field, document, site):
    def obj(entry):
        if field == "taus":
            return {"taus": [entry, "2"]}
        return {"ytilde": {"prefix": [entry, str(MAX_COEFF_BOUND)], "tail": "0"}}

    b = MAX_COEFF_BOUND
    # the bound applies in lowest terms, to the numerator and the denominator alike
    for entry in (f"1/{b}", f"{b}/{b - 1}", f"{2 * b}/2"):
        config_from_obj(obj(entry))
    for entry in (f"1/{b + 1}", f"{b + 1}", f"-{b + 1}", f"{b + 1}/{b}"):
        with pytest.raises(ConfigError) as excinfo:
            config_from_obj(obj(entry))
        message = str(excinfo.value)
        assert message.startswith(field) and str(b + 1) not in message
    # the same bound end to end, on a config read from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    assert main(["run", "--config", "-", "--timestamp", "off"]) == 2
    assert capsys.readouterr() == (
        "",
        f"config error: {site}: |numerator| and denominator must be at most {b}\n",
    )


def test_main_rejects_rationals_past_the_bound(tmp_path, capsys):
    # Each entry is within the int/str digit limit, but values built from
    # them would not be.
    p = 10**1499
    prefix = [f"1/{p + 1}", f"1/{p + 3}", f"1/{p + 7}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5, "ytilde": {"prefix": prefix, "tail": "0"}}))
    assert main(["run", "--config", str(cfg), "--timestamp", "off"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ytilde: prefix[0]") and len(err) < 200


def test_extensions_at_the_tau_cap():
    # k / (2k + 1) is increasing in k and in lowest terms: MAX_TAUS distinct taus
    taus = [Fraction(k, 2 * k + 1) for k in range(1, MAX_TAUS + 1)]
    ytilde = ["3/7", "-1/5", "2/3"]
    config = fast_config(
        samples=5,
        taus=[str(t) for t in taus],
        ytilde={"prefix": ytilde, "tail": "0"},
        suites=["extensions", "gap"],  # the two suites that read taus
    )
    result, gap = run_suite(config).results
    assert result.passed and gap.passed
    assert len(gap.evidence["per_tau"]) == MAX_TAUS
    assert result.counts["tau_pairs"] == MAX_TAUS * (MAX_TAUS - 1) // 2 == 2016
    total = sum(map(Fraction, ytilde))
    assert result.evidence["distinctness_products"] == {
        f"{t1},{t2}": str((t1 - t2) * (1 / t1 - 1 / t2) * total)
        for i, t1 in enumerate(taus)
        for t2 in taus[i + 1 :]
    }


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "samples": 10}), encoding="utf-8")
    assert parse_config(str(path)).seed == 3


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/no/such/config.json")


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "raw, fragment",
    [
        (b'{"seed": "\xff"}', "cannot read config"),  # not UTF-8
        (b'{"seed": ' + b"1" * 4301 + b"}", "cannot be decoded"),  # past the int digit limit
        (b"[" * 100_000 + b"]" * 100_000, "cannot be decoded"),  # nested too deep
    ],
    ids=["non-utf8", "long-integer", "deep-nesting"],
)
def test_undecodable_config_exits_2(tmp_path, capsys, raw, fragment):
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(str(path))
    assert main(["run", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_parse_config_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"seed": 9})))
    assert parse_config("-").seed == 9


def test_suites_expand_and_order():
    cfg = config_from_obj({"suites": ["gap", "skew", "gap"]})
    assert cfg.suites == ("gap", "skew")
    assert config_from_obj({"suites": ["all"]}).suites == SuiteConfig().suites


B1 = MAX_COEFF_BOUND + 1
YTILDE_PREFIX_CAP = f"ytilde: at most {MAX_SUPPORT} prefix entries, got {MAX_SUPPORT + 1}"


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "config must be a JSON object"),
        ({"mystery": 1}, "unknown config keys: ['mystery']"),
        ({"b": 1, "a": 2}, "unknown config keys: ['a', 'b']"),
        ({"seed": -1}, "seed: must be at least 0, got -1"),
        ({"seed": "7"}, "seed: expected an integer, got '7'"),
        ({"seed": True}, "seed: expected an integer, got True"),
        ({"samples": 0}, "samples: must be at least 1, got 0"),
        ({"samples": MAX_SAMPLES + 1}, "samples: must be at most 100000, got 100001"),
        ({"samples": None}, "samples: expected an integer, got None"),
        ({"support_max": 1}, "support_max: must be at least 2, got 1"),
        ({"support_max": MAX_SUPPORT + 1}, "support_max: must be at most 256, got 257"),
        ({"support_max": 2.0}, "support_max: expected an integer, got 2.0"),
        ({"coeff_bound": 0}, "coeff_bound: must be at least 1, got 0"),
        ({"coeff_bound": B1}, "coeff_bound: must be at most 1000000, got 1000001"),
        ({"coeff_bound": "5"}, "coeff_bound: expected an integer, got '5'"),
        ({"taus": []}, "taus: expected a nonempty list"),
        ({"taus": "1"}, "taus: expected a nonempty list"),
        ({"taus": [0]}, "taus[0]: must be positive, got 0"),
        ({"taus": ["-1/2"]}, "taus[0]: must be positive, got -1/2"),
        ({"taus": ["2/0"]}, "taus[0]: malformed rational string '2/0'"),
        ({"taus": ["1", "0.5"]}, "taus[1]: malformed rational string '0.5'"),
        ({"taus": [0.5]}, "taus[0]: expected an integer or a 'p/q' string, got 0.5"),
        ({"taus": [True]}, "taus[0]: expected an integer or a 'p/q' string, got True"),
        ({"taus": list(range(1, MAX_TAUS + 2))}, "taus: at most 64 values, got 65"),
        ({"taus": [f"1/{B1}"]}, "taus[0]: |numerator| and denominator must be at most 1000000"),
        ({"ytilde": []}, "ytilde: expected an object with 'prefix' and 'tail'"),
        ({"ytilde": {"prefix": "1"}}, "ytilde: 'prefix' must be a list"),
        ({"ytilde": {"x": 1}}, "ytilde: unknown keys ['x']"),
        ({"ytilde": {"prefix": ["1/x"]}}, "ytilde: prefix[0]: malformed rational string '1/x'"),
        (
            {"ytilde": {"prefix": [0.5]}},
            "ytilde: prefix[0]: expected an integer or a 'p/q' string, got 0.5",
        ),
        (
            {"ytilde": {"prefix": ["1"], "tail": None}},
            "ytilde: tail: expected an integer or a 'p/q' string, got None",
        ),
        ({"ytilde": {"prefix": [], "tail": "1"}}, "ytilde: must be finitely supported (tail 0)"),
        ({"ytilde": {"prefix": ["-1", "1"]}}, "ytilde: pairing with the ones sequence must be positive"),
        ({"ytilde": {}}, "ytilde: pairing with the ones sequence must be positive"),
        ({"ytilde": {"prefix": ["0"] * (MAX_SUPPORT + 1)}}, YTILDE_PREFIX_CAP),
        (
            {"ytilde": {"prefix": ["1/2", f"{B1}"]}},
            "ytilde: prefix[1]: |numerator| and denominator must be at most 1000000",
        ),
        ({"suites": []}, "suites: expected a nonempty list"),
        ({"suites": "all"}, "suites: expected a nonempty list"),
        ({"suites": ["gap", "spam"]}, "suites[1]: unknown suite name 'spam'"),
        ({"suites": [["gap"]]}, "suites[0]: unknown suite name ['gap']"),
        ({"seed": -1, "taus": []}, "seed: must be at least 0, got -1"),  # fields in order
        # each malformed shape of the ytilde document
        ({"ytilde": "not a dict"}, "ytilde: expected an object with 'prefix' and 'tail'"),
        ({"ytilde": {"prefix": "oops"}}, "ytilde: 'prefix' must be a list"),
        ({"ytilde": {"prefix": ["1/0"]}}, "ytilde: prefix[0]: malformed rational string '1/0'"),
        ({"ytilde": {"prefix": ["x"]}}, "ytilde: prefix[0]: malformed rational string 'x'"),
        (
            {"ytilde": {"prefix": [1.5]}},
            "ytilde: prefix[0]: expected an integer or a 'p/q' string, got 1.5",
        ),
        ({"ytilde": {"tail": "nope"}}, "ytilde: tail: malformed rational string 'nope'"),
        ({"ytilde": {"prefix": [], "tail": 0, "extra": 1}}, "ytilde: unknown keys ['extra']"),
        (
            {"ytilde": {"prefix": [True]}},
            "ytilde: prefix[0]: expected an integer or a 'p/q' string, got True",
        ),
        ({"ytilde": {"prefix": ["0.5"]}}, "ytilde: prefix[0]: malformed rational string '0.5'"),
        ({"ytilde": {"tail": "1e1"}}, "ytilde: tail: malformed rational string '1e1'"),
        # the tail is bounded like an entry, and the document's keys are checked first
        (
            {"ytilde": {"prefix": ["1"], "tail": f"1/{B1}"}},
            "ytilde: tail: |numerator| and denominator must be at most 1000000",
        ),
        ({"ytilde": {"x": 1, "prefix": ["0"] * (MAX_SUPPORT + 1)}}, "ytilde: unknown keys ['x']"),
    ],
)
def test_config_error_messages(obj, message):
    with pytest.raises(ConfigError) as excinfo:
        config_from_obj(obj)
    assert str(excinfo.value) == message


HUGE = 10**5000  # past the int/str digit limit: repr raises for it and any list holding it


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"seed": -HUGE}, "seed: must be at least 0, got <negative int of 16610 bits>"),
        ({"samples": HUGE}, "samples: must be at most 100000, got <int of 16610 bits>"),
        ({"support_max": HUGE}, "support_max: must be at most 256, got <int of 16610 bits>"),
        (
            {"coeff_bound": -HUGE},
            "coeff_bound: must be at least 1, got <negative int of 16610 bits>",
        ),
        ({"suites": [HUGE]}, "suites[0]: unknown suite name <int of 16610 bits>"),
        ({"seed": [HUGE]}, "seed: expected an integer, got <list that cannot be printed>"),
        (
            {"ytilde": {"prefix": [[HUGE]], "tail": "0"}},
            "ytilde: prefix[0]: expected an integer or a 'p/q' string, "
            "got <list that cannot be printed>",
        ),
        (
            {"taus": [[HUGE]]},
            "taus[0]: expected an integer or a 'p/q' string, got <list that cannot be printed>",
        ),
    ],
    ids=["seed", "samples", "support_max", "coeff_bound", "suites", "seed-list", "ytilde", "taus"],
)
def test_config_errors_show_an_unprintable_value_by_its_size_or_type(obj, message):
    with pytest.raises(ConfigError) as excinfo:
        config_from_obj(obj)
    assert str(excinfo.value) == message


def test_unknown_keys_of_mixed_types_are_a_config_error():
    """Only a Python caller passes a key that is not a str: it is listed after the str keys.

    The str keys keep their own order, which their reprs do not share
    ("'x y'" sorts before "'x'").
    """
    for obj, message in (
        ({1: 2, "zz": 3}, "unknown config keys: ['zz', 1]"),
        ({"ytilde": {1: 2, "q": 3}}, "ytilde: unknown keys ['q', 1]"),
        ({"x y": 1, "x": 2, (1,): 3}, "unknown config keys: ['x', 'x y', (1,)]"),
        ({HUGE: 1, "a": 2}, "unknown config keys: <list that cannot be printed>"),
    ):
        with pytest.raises(ConfigError) as excinfo:
            config_from_obj(obj)
        assert str(excinfo.value) == message


RATIONAL_FIELDS = {
    "taus[0]": lambda v: {"taus": [v]},
    "ytilde: prefix[0]": lambda v: {"ytilde": {"prefix": [v]}},
    "ytilde: tail": lambda v: {"ytilde": {"prefix": ["1"], "tail": v}},
}


@pytest.mark.parametrize("field", RATIONAL_FIELDS)
@pytest.mark.parametrize(
    "value, message",
    [
        (0.5, "expected an integer or a 'p/q' string, got 0.5"),
        (True, "expected an integer or a 'p/q' string, got True"),
        ("0.5", "malformed rational string '0.5'"),
        ("1/x", "malformed rational string '1/x'"),
        ("2/0", "malformed rational string '2/0'"),
        ([HUGE], "expected an integer or a 'p/q' string, got <list that cannot be printed>"),
        ((1, 2), "expected an integer or a 'p/q' string, got (1, 2)"),
        ("1/1000001", "|numerator| and denominator must be at most 1000000"),
    ],
    ids=[
        "float",
        "bool",
        "decimal",
        "not-a-number",
        "zero-denominator",
        "list",
        "pair",
        "past-the-bound",
    ],
)
def test_every_config_rational_gets_one_message_set(field, value, message):
    """taus, ytilde's prefix entries and its tail share one parser and its messages."""
    with pytest.raises(ConfigError) as excinfo:
        config_from_obj(RATIONAL_FIELDS[field](value))
    assert str(excinfo.value) == f"{field}: {message}"


@pytest.mark.parametrize(
    "config",
    [
        SuiteConfig(),
        SuiteConfig(  # like the many_taus benchmark workload
            samples=20,
            taus=tuple((t, 1) for t in range(1, 21)),
            ytilde=Seq(["3/7", "-1/5", "2/3", "1/11"]),
        ),
        SuiteConfig(samples=20, support_max=MAX_SUPPORT, coeff_bound=MAX_COEFF_BOUND),
        SuiteConfig(ytilde=Seq(["1/2", 3])),
    ],
    ids=["default", "many-taus", "caps", "ytilde"],
)
def test_config_round_trips_through_its_document(config):
    assert config_from_obj(config.to_obj()) == config


def test_to_obj_round_trip():
    # a Seq is written and read only as a config's ytilde
    s = Seq(["1/2", -3], "7/5")
    assert SuiteConfig(ytilde=s).to_obj()["ytilde"] == {"prefix": ["1/2", "-3"], "tail": "7/5"}


bounded = st.integers(-MAX_COEFF_BOUND, MAX_COEFF_BOUND)
positive = st.integers(1, MAX_COEFF_BOUND)
configs = st.builds(
    SuiteConfig,
    seed=st.integers(min_value=0),
    samples=st.integers(1, MAX_SAMPLES),
    support_max=st.integers(2, MAX_SUPPORT),
    coeff_bound=st.integers(1, MAX_COEFF_BOUND),
    taus=st.lists(st.builds(Fraction, positive, positive), min_size=1, max_size=8, unique=True)
    .map(lambda taus: tuple((t.numerator, t.denominator) for t in taus)),
    ytilde=st.lists(st.builds(Fraction, bounded, positive), max_size=8)
    .filter(lambda entries: sum(entries) > 0)
    .map(Seq),
    suites=st.sets(st.sampled_from(SUITE_NAMES), min_size=1)
    .map(lambda names: tuple(n for n in SUITE_NAMES if n in names)),
)


@given(configs)
def test_obj_round_trip_property(config):
    """Every admitted config reads back from its JSON document as itself."""
    assert config_from_obj(json.loads(json.dumps(config.to_obj()))) == config


def test_suite_shortcut_keeps_config_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["spam"]}), encoding="utf-8")
    assert main(["gap", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: suites[0]: unknown suite name 'spam'\n"


LONG = 100_000


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"seed": "x" * LONG}, "seed"),
        ({"taus": ["1" * LONG]}, "taus[0]"),  # a well-formed integer past the digit limit
        ({"ytilde": {"prefix": ["1" * LONG]}}, "ytilde: prefix[0]"),
        ({"ytilde": {"prefix": ["1"], "tail": "x" * LONG}}, "ytilde: tail"),
        ({"suites": ["s" * LONG]}, "suites[0]"),
        ({f"mystery{k:03d}" + "x" * 90: 1 for k in range(1000)}, "unknown config keys"),
    ],
    ids=["seed", "taus", "ytilde-prefix", "ytilde-tail", "suites", "unknown-keys"],
)
def test_config_error_is_one_short_line(tmp_path, capsys, obj, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert len(cfg.read_bytes()) > LONG
    assert main(["run", "--config", str(cfg), "--timestamp", "off"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode("utf-8")) < 200
    assert err.startswith(f"config error: {field}") and err.endswith("...\n")


# --- suite runner -----------------------------------------------------------


def test_default_suites_all_pass():
    report = run_suite(fast_config())
    assert report.passed
    assert [r.name for r in report.results] == list(SuiteConfig().suites)
    gap = next(r for r in report.results if r.name == "gap")
    assert gap.evidence["expected_gap"] == "1"
    assert gap.evidence["per_tau"]["1"]["gap"] == "1"


def test_three_tau_distinctness_products():
    report = run_suite(fast_config(taus=[1, 2, 3], suites=["extensions"]))
    (result,) = report.results
    assert result.passed
    assert result.evidence["distinctness_products"] == {
        "1,2": "-1/2",
        "1,3": "-4/3",
        "2,3": "-1/6",
    }


def test_single_tau_fails_extensions():
    report = run_suite(fast_config(taus=[1, 1], suites=["extensions"]))
    (result,) = report.results
    assert not result.passed
    assert any("insufficient distinct taus" in msg for msg in result.failures)
    assert not report.passed


def test_scaled_direction_doubles_gap():
    report = run_suite(
        fast_config(ytilde={"prefix": ["2"], "tail": "0"}, suites=["gap"])
    )
    (result,) = report.results
    assert result.passed
    assert result.evidence["expected_gap"] == "2"


def test_runner_is_deterministic():
    a = render_json(run_suite(fast_config()), with_timing=False)
    b = render_json(run_suite(fast_config()), with_timing=False)
    assert a == b


def test_seed_changes_draws_not_verdicts():
    r1 = run_suite(fast_config(seed=1, suites=["maximal"]))
    r2 = run_suite(fast_config(seed=2, suites=["maximal"]))
    assert r1.passed and r2.passed
    e1 = r1.results[0].evidence["max_violation_product"]
    e2 = r2.results[0].evidence["max_violation_product"]
    assert e1 != e2  # different sample, same conclusion


# --- rendering and exit codes -----------------------------------------------


def test_json_report_shape():
    report = run_suite(fast_config(suites=["skew"]))
    obj = json.loads(render_json(report, with_timing=False))
    assert obj["overall"] == "pass"
    assert obj["suites"][0]["name"] == "skew"
    assert obj["suites"][0]["evidence"]["pairing_values"] == ["0"]
    assert "generated_at" not in obj
    assert "duration_s" not in obj["suites"][0]


def test_json_report_with_timing():
    report = run_suite(fast_config(suites=["skew"]))
    obj = json.loads(render_json(report, with_timing=True))
    assert datetime.fromisoformat(obj["generated_at"]).utcoffset() == timedelta(0)
    assert "duration_s" in obj["suites"][0]


# --- the JSON emitter ------------------------------------------------------
#
# render_json lays out containers itself and leaves every scalar to json's own
# encoders, so its bytes must be json.dumps(sort_keys=True, indent=2)'s.

# Text with what json escapes: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.
json_text = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800')
    | st.characters(exclude_categories=()),
    max_size=6,
)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=24,
)


@given(json_trees)
@example(float("nan"))
@example([float("inf"), float("-inf"), -0.0, 0.0, 10**30, -(2**64), 1e-300])
@example({"": {}, "a": [], "b": (), "c": [[], {}], "d": ({"e": ()},)})
@example({"\u00e9\"\\": ["\x00\n\ud800", True, False, None]})
def test_emitter_lays_out_like_json_dumps(value):
    assert c0cert.cli._indented(value) == json.dumps(value, sort_keys=True, indent=2)


def assert_rendered_by_json(report, with_timing):
    text = render_json(report, with_timing)
    obj = c0cert.cli.report_obj(report, with_timing)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "passed, overrides",
    [(False, {"taus": [1], "suites": ["extensions", "skew"]}), (True, {})],
    ids=["failing", "passing"],
)
def test_failing_and_passing_reports_are_rendered_as_json_dumps_renders_them(passed, overrides):
    report = run_suite(fast_config(**overrides))
    assert report.passed is passed
    assert_rendered_by_json(report, with_timing=False)


def test_crash_report_is_rendered_as_json_dumps_renders_it(monkeypatch):
    def crashing_runner(config, rng, family, failures):
        raise ValueError('a "quoted" \\ value, \u03b5 \u2013 \u00fc, \U0001f600\n')

    monkeypatch.setitem(c0cert.cli._RUNNERS, "skew", crashing_runner)
    report = run_suite(fast_config(suites=["skew"]))
    [message] = report.results[0].failures
    assert message.startswith('ValueError: a "quoted"') and "\u03b5" in message
    assert_rendered_by_json(report, with_timing=False)


def test_a_caller_built_report_with_tuple_failures_is_rendered_as_json_dumps_renders_it():
    """``SuiteResult`` is public, so a result that a caller builds may hold tuples."""
    result = SuiteResult("skew", {"samples": 1}, {}, ("first failure", "second failure"), 0.0)
    assert_rendered_by_json(SuiteReport(fast_config(), (result,)), with_timing=False)


class FixedDatetime(datetime):
    @classmethod
    def now(cls, tz=None):
        return cls(2024, 2, 29, 12, 34, 56, 789012, tzinfo=tz)


def test_timed_report_is_rendered_as_json_dumps_renders_it(monkeypatch):
    ticks = iter([0.0, 0.1234567, 1.0, 3.5, 10.0, 10.0004999, 20.0, 21.0, 30.0, 30.0625])
    monkeypatch.setattr(c0cert.cli.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr("datetime.datetime", FixedDatetime)
    report = run_suite(fast_config())
    obj = c0cert.cli.report_obj(report, with_timing=True)
    assert obj["generated_at"] == "2024-02-29T12:34:56.789012+00:00"
    assert [s["duration_s"] for s in obj["suites"]] == [0.123, 2.5, 0.0, 1.0, 0.062]
    assert_rendered_by_json(report, with_timing=True)


def test_render_json_peaks_under_3_3_times_its_text():
    """Each item is one string: no list of small chunks is built first.

    Nor are a container's items held beside the body joined from them.
    """
    # the tau cap end-to-end config of CI: 64 taus, 2,016 distinctness products
    taus = [f"{k}/{2 * k + 1}" for k in range(1, MAX_TAUS + 1)]
    report = run_suite(config_from_obj({"samples": 5, "taus": taus}))
    gc.collect()  # empty the free lists first: objects reused from them are not traced
    tracemalloc.start()
    try:
        text = render_json(report, with_timing=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and text.isascii()
    assert peak <= 3.3 * len(text), (peak, len(text))


def test_markdown_report_mentions_suites():
    report = run_suite(fast_config())
    text = render_markdown(report, with_timing=False)
    assert "Overall: **PASS**" in text
    for name in SuiteConfig().suites:
        assert f"| {name} |" in text


def test_failing_markdown_report_with_timing(monkeypatch):
    def failing_runner(config, rng, family, failures):
        failures.append("pairing(G(y), y) = {} for y = {}", 1, unit(1))
        return {"samples": 1}, {"pairing_values": ["1"]}

    monkeypatch.setitem(c0cert.cli._RUNNERS, "skew", failing_runner)
    ticks = iter([0.0, 0.25, 1.0, 1.5])
    monkeypatch.setattr(c0cert.cli.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr("datetime.datetime", FixedDatetime)
    report = run_suite(fast_config(suites=["monotone", "skew"]))
    text = render_markdown(report, with_timing=True)
    assert text.startswith("# Certificate report\n\nOverall: **FAIL**\n")
    assert text.endswith(
        "| suite | status | counts |\n"
        "| --- | --- | --- |\n"
        "| monotone | pass | failures=0, pairs=25 |\n"
        "| skew | fail | failures=1, samples=1 |\n"
        "\n"
        "## monotone: pass\n"
        '- products = ["0"]\n'
        "- duration_s = 0.25\n"
        "\n"
        "## skew: fail\n"
        '- pairing_values = ["1"]\n'
        "- FAILURE: pairing(G(y), y) = 1 for y = (1, 0, 0, ...)\n"
        "- duration_s = 0.5\n"
        "\n"
        "Generated at 2024-02-29T12:34:56.789012+00:00\n"
    )


def test_emit_report_exit_codes(tmp_path, capsys):
    report = run_suite(fast_config(suites=["skew"]))
    out = tmp_path / "report.json"
    assert emit_report(report, "json", str(out), with_timing=False) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["overall"] == "pass"

    failing = run_suite(fast_config(taus=[1], suites=["extensions"]))
    assert emit_report(failing, "json", str(out), with_timing=False) == 1

    bad_path = tmp_path / "missing_dir" / "report.json"
    assert emit_report(report, "json", str(bad_path), with_timing=False) == 3
    assert "cannot write report" in capsys.readouterr().err


def test_main_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 25, "seed": 5}), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(
        ["run", "--config", str(cfg), "--out", str(out), "--timestamp", "off"]
    )
    assert code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["overall"] == "pass"
    assert capsys.readouterr().out == ""


def test_main_writes_to_out_the_bytes_it_writes_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 25, "taus": ["1/3", 2]}), encoding="utf-8")
    assert main(["all", "--config", str(cfg), "--timestamp", "off"]) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["all", "--config", str(cfg), "--out", str(out), "--timestamp", "off"]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == shown.encode("utf-8")


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taus": [0]}), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    # an empty path, such as an unset shell variable, is not the built-in config
    assert main(["skew", "--config", ""]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [True, "0.5", "1e1"])
@pytest.mark.parametrize("field", ["taus", "ytilde"])
def test_main_rejects_rationals_outside_the_wire_format(tmp_path, capsys, field, bad):
    obj = {"taus": [bad]} if field == "taus" else {"ytilde": {"prefix": [bad], "tail": "0"}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


def test_main_suite_shortcut(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 25, "suites": ["gap"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["skew", "--config", str(cfg), "--out", str(out), "--timestamp", "off"]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert [s["name"] for s in obj["suites"]] == ["skew"]


def test_main_all_shortcut(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 25, "suites": ["gap"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["all", "--config", str(cfg), "--out", str(out), "--timestamp", "off"]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert [s["name"] for s in obj["suites"]] == list(SuiteConfig().suites)


def test_main_stdin_config(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"samples": 25})))
    out = tmp_path / "report.json"
    assert main(["gap", "--config", "-", "--out", str(out), "--timestamp", "off"]) == 0


# sha256 of the stdout of `certify run --config - --timestamp off` for this
# config: every field at its cap, where numerators and denominators run to
# hundreds of bits.  A kernel change must keep these bytes.
CAP_CONFIG = {"samples": 20, "support_max": MAX_SUPPORT, "coeff_bound": MAX_COEFF_BOUND}
CAP_REPORT_SHA256 = "89e31e0fce4bdd4506f60e28d43df84c8d614215560e60ec97c3d3ac24bdbc82"
# sha256 of the stdout of `certify all --format markdown --timestamp off`.
MARKDOWN_REPORT_SHA256 = "423a496b2f55173508e8d4c71893312397b612671b084b57b16178411dadffb8"


def test_report_at_the_config_caps_is_byte_identical(monkeypatch, capsys):
    assert CAP_CONFIG == {"samples": 20, "support_max": 256, "coeff_bound": 1000000}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CAP_CONFIG)))
    assert main(["run", "--config", "-", "--timestamp", "off"]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == CAP_REPORT_SHA256


def test_markdown_report_is_byte_identical(capsys):
    assert main(["all", "--format", "markdown", "--timestamp", "off"]) == 0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == MARKDOWN_REPORT_SHA256


def test_run_suite_records_the_crash_site(monkeypatch):
    def crashing_runner(config, rng, family, failures):
        return distinctness(1, 1, unit(1))

    monkeypatch.setitem(c0cert.cli._RUNNERS, "skew", crashing_runner)
    report = run_suite(fast_config(suites=["skew", "monotone"]))
    passed, crashed = report.results  # suites run in name order
    assert not crashed.passed and passed.passed
    [message] = crashed.failures
    found = re.fullmatch(
        r"InvalidParameter: distinctness needs two different parameters \(certify\.py:(\d+)\)",
        message,
    )
    assert found, message
    # the innermost frame: the raise inside certify, not the runner that called it
    line = Path(c0cert.certify.__file__).read_text(encoding="utf-8").splitlines()[
        int(found.group(1)) - 1
    ]
    assert "raise InvalidParameter" in line


# --- family points ---------------------------------------------------------
#
# run_suite builds the report's family at most once, evaluating G on ytilde
# once, and shares it between the extensions and gap suites; nothing is kept
# across reports.


def test_family_values_are_computed_once_per_report(monkeypatch):
    # The default ytilde unit(1) has sum 1, so no zero-sum graph y equals it.
    taus = [1, 2, "1/3"]
    ytilde = SuiteConfig().ytilde
    on_ytilde, families = [], []
    real_apply, real_family = c0cert.certify.gossez_apply, c0cert.cli.extension_family

    def counted_apply(y):
        if y == ytilde:
            on_ytilde.append(y)
        return real_apply(y)

    def counted_family(taus, ytilde):
        families.append(taus)
        return real_family(taus, ytilde)

    monkeypatch.setattr(c0cert.certify, "gossez_apply", counted_apply)
    monkeypatch.setattr(c0cert.cli, "extension_family", counted_family)
    for config in (fast_config(taus=taus), fast_config(taus=taus, suites=["gap"])):
        assert run_suite(config).passed
        assert len(on_ytilde) == 1 and len(families) == 1
        on_ytilde.clear()
        families.clear()
    config = fast_config(taus=taus, suites=["extensions", "gap"])
    first, second = run_suite(config), run_suite(config)
    assert len(on_ytilde) == 2 and len(families) == 2
    assert render_json(first, with_timing=False) == render_json(second, with_timing=False)


def test_family_suites_fail_on_an_empty_sample():
    """A config built without config_from_obj may ask for no sample at all."""
    report = run_suite(SuiteConfig(samples=0, suites=("extensions", "gap")))
    for result in report.results:
        [message] = result.failures
        found = re.fullmatch(r"EmptySample: need at least one graph point \(cli\.py:\d+\)", message)
        assert found, message


def test_a_family_point_crash_fails_both_family_suites(monkeypatch, tmp_path, capsys):
    def crashing(taus, ytilde):
        raise ValueError(f"no family point at tau = {Fraction(*taus[0])}")

    monkeypatch.setattr(c0cert.cli, "extension_family", crashing)
    report = run_suite(fast_config(suites=["extensions", "gap", "skew"]))
    crashed = {r.name: r for r in report.results if not r.passed}
    assert sorted(crashed) == ["extensions", "gap"]
    line = crashing.__code__.co_firstlineno + 1  # the raise: the innermost frame
    for result in crashed.values():
        assert result.failures == [f"ValueError: no family point at tau = 1 (test_cli.py:{line})"]
        assert result.counts == {} and result.evidence == {}

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["all", "--config", str(cfg), "--out", str(out), "--timestamp", "off"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    suites = {s["name"]: s for s in json.loads(out.read_text(encoding="utf-8"))["suites"]}
    assert [n for n, s in sorted(suites.items()) if s["status"] == "fail"] == ["extensions", "gap"]


# --- integer verdicts -------------------------------------------------------
#
# Each runner compares the certify layer's (numerator, denominator) results
# as integers, or leaves the comparison to certify itself (the maximal
# suite).  A core raised (or, for the sign checks, lowered) by exactly 1
# must fail the suite with the message text the Fraction comparisons
# produced.


def raised_by_one(core, step=1):
    def raised(*args):
        num, den = core(*args)
        return num + step * den, den

    return raised


def test_extensions_runner_reports_a_wrong_margin(monkeypatch):
    # a margin of 8/35, not 1, so numerator and denominator cannot trade places
    config = fast_config(ytilde={"prefix": ["3/7", "-1/5"], "tail": "0"}, suites=["extensions"])
    assert run_suite(config).passed
    core = c0cert.cli.closure_margin
    monkeypatch.setattr(c0cert.cli, "closure_margin", raised_by_one(core))
    (result,) = run_suite(config).results
    assert not result.passed
    # the first point at both taus, then point i at tau_(i mod 2)
    assert result.counts["failures"] == 2 + 24
    assert result.failures == [f"margin 43/35 != 8/35 at tau = {tau}" for tau in (1, 2, 2, 1, 2)]
    assert result.evidence["closure_margin"] == "8/35"


def test_monotone_runner_reports_a_nonzero_product(monkeypatch):
    core = c0cert.cli.monotone_product
    for step in (1, -1):  # a product of either sign fails the suite
        monkeypatch.setattr(c0cert.cli, "monotone_product", raised_by_one(core, step))
        (result,) = run_suite(fast_config(suites=["monotone"])).results
        assert not result.passed
        assert result.counts["failures"] == 25
        assert result.failures == [f"monotone product {step} for a graph pair"] * 5
        assert result.evidence["products"] == [str(step)]


def test_skew_runner_reports_a_negative_pairing(monkeypatch):
    core = c0cert.cli.pairing_numerator
    monkeypatch.setattr(c0cert.cli, "pairing_numerator", lambda a, b: core(a, b) - 1)
    (result,) = run_suite(fast_config(suites=["skew"])).results
    assert not result.passed
    assert result.counts == {"samples": 25, "failures": 25}
    assert len(result.failures) == 5
    assert all(message.startswith("pairing(G(y), y) = -") for message in result.failures)
    values = result.evidence["pairing_values"]
    assert values and all(value.startswith("-") for value in values)


def test_maximal_runner_reports_a_failed_recheck(monkeypatch):
    # violation_witness re-verifies each witness product itself; the runner
    # records the raised AssertionError as the suite's one crash record
    core = c0cert.certify.difference_terms
    monkeypatch.setattr(c0cert.certify, "difference_terms", raised_by_one(core))
    (result,) = run_suite(fast_config(suites=["maximal"])).results
    assert not result.passed
    [message] = result.failures
    found = re.fullmatch(
        r"AssertionError: witness normalization failed \(certify\.py:(\d+)\)", message
    )
    assert found, message
    line = Path(c0cert.certify.__file__).read_text(encoding="utf-8").splitlines()[
        int(found.group(1)) - 1
    ]
    assert 'raise AssertionError("witness normalization failed")' in line
    assert result.counts == {} and result.evidence == {}


def test_maximal_runner_reports_a_perturbed_pair_taken_for_a_member(monkeypatch):
    monkeypatch.setattr(c0cert.cli, "violation_witness", lambda x, y: Member())
    (result,) = run_suite(fast_config(samples=7, suites=["maximal"])).results
    assert not result.passed
    assert result.counts == {"members": 7, "violations": 7, "failures": 7}
    assert result.failures == ["perturbed pair misclassified: Member()"] * 5
    assert result.evidence == {}  # no violation, so no worst product


def test_maximal_runner_names_the_verdict_a_perturbed_pair_got(monkeypatch):
    verdicts = iter([Member()] * 7 + [Related((1, 1))] * 7)
    monkeypatch.setattr(c0cert.cli, "violation_witness", lambda x, y: next(verdicts))
    (result,) = run_suite(fast_config(samples=7, suites=["maximal"])).results
    assert not result.passed
    assert result.counts == {"members": 7, "violations": 7, "failures": 7}
    assert result.failures == ["perturbed pair misclassified: Related(margin=(1, 1))"] * 5
    assert result.evidence == {}


def test_maximal_runner_reports_a_graph_point_taken_for_a_violation(monkeypatch):
    verdict = Violation(c0cert.certify._ORIGIN, (-1, 1))
    monkeypatch.setattr(c0cert.cli, "violation_witness", lambda x, y: verdict)
    (result,) = run_suite(fast_config(samples=7, suites=["maximal"])).results
    assert not result.passed
    assert result.counts == {"members": 7, "violations": 7, "failures": 7}
    origin = "Seq(num=(), tnum=0, den=1)"
    assert result.failures[0] == (
        f"graph point misclassified: Violation(witness=GraphPoint(x={origin}, y={origin}), "
        "product=(-1, 1))"
    )
    assert result.failures == result.failures[:1] * 5
    assert result.evidence == {"max_violation_product": "-1"}


def test_maximal_evidence_is_the_violation_product_closest_to_zero(monkeypatch):
    """Products are compared as rationals: not by numerator, not by denominator."""
    products = [(-3, 1), (-1, 4), (-2, 9), (-1, 3), (-5, 2)]
    verdicts = iter([Member()] * 5 + [Violation(c0cert.certify._ORIGIN, p) for p in products])
    monkeypatch.setattr(c0cert.cli, "violation_witness", lambda x, y: next(verdicts))
    (result,) = run_suite(fast_config(samples=5, suites=["maximal"])).results
    assert result.passed
    assert result.evidence == {"max_violation_product": "-2/9"}


def with_self_pairings_raised_by(step):
    """``extension_family`` with each self-pairing raised by ``step``: diagonal[k] by step * self_den."""

    def raised(taus, ytilde):
        fam = c0cert.certify.extension_family(taus, ytilde)
        diagonal = tuple(
            v + step * ep.xstar.den * ep.xstarstar.den for v, ep in zip(fam.diagonal, fam.points)
        )
        return _derived(ExtensionFamily, fam.points, fam.ytilde, fam.total, fam.g, diagonal)

    return raised


def test_gap_runner_reports_a_wrong_gap(monkeypatch):
    clean = run_suite(fast_config(suites=["gap"])).results[0].evidence
    core = c0cert.cli.fitzpatrick_value
    # a Fitzpatrick value of either sign fails at every evaluation; the gaps stay s = 1
    for step in (1, -1):
        monkeypatch.setattr(c0cert.cli, "fitzpatrick_value", raised_by_one(core, step))
        (result,) = run_suite(fast_config(suites=["gap"])).results
        assert not result.passed
        # the first point at both taus, then point i at tau_(i mod 2)
        assert result.counts["failures"] == 2 + 24
        assert result.failures == [
            f"Fitzpatrick value {step} != 0 at tau = {tau}" for tau in (1, 2, 2, 1, 2)
        ]
        assert result.evidence == clean
    monkeypatch.setattr(c0cert.cli, "fitzpatrick_value", core)
    # a gap of 0 fails both tests, a gap of 2 only the comparison with s = 1
    for step, gap in ((-1, 0), (1, 2)):
        monkeypatch.setattr(c0cert.cli, "extension_family", with_self_pairings_raised_by(step))
        (result,) = run_suite(fast_config(suites=["gap"])).results
        assert not result.passed
        assert result.failures == [
            f"gap {gap} != expected 1 at tau = 1",
            f"gap {gap} != expected 1 at tau = 2",
        ]
        assert result.evidence["per_tau"]["2"] == {
            "fitzpatrick_value": "0",
            "self_pairing": str(gap),
            "gap": str(gap),
        }


def test_gap_runner_reports_a_compensated_fault(monkeypatch):
    """Every value and every self-pairing off by +1 leaves each gap at s, and fails both checks."""
    core = c0cert.cli.fitzpatrick_value
    monkeypatch.setattr(c0cert.cli, "fitzpatrick_value", raised_by_one(core))
    monkeypatch.setattr(c0cert.cli, "extension_family", with_self_pairings_raised_by(1))
    (result,) = run_suite(fast_config(suites=["gap"])).results
    assert not result.passed
    # each evaluation misses 0, then each tau's gap misses s = 1
    assert result.counts == {"graph_points": 25, "taus": 2, "failures": 2 + 24 + 2}
    assert result.failures == [
        f"Fitzpatrick value 1 != 0 at tau = {tau}" for tau in (1, 2, 2, 1, 2)
    ]
    evidence = {"fitzpatrick_value": "0", "self_pairing": "2", "gap": "2"}
    assert result.evidence == {"expected_gap": "1", "per_tau": {"1": evidence, "2": evidence}}


# --- family evaluations against the direct loop -----------------------------
#
# The extensions and gap suites prove their verdicts for the whole graph
# from one tau-free call.  In one pass over the sample they evaluate the
# first point directly at every tau and each later point i at tau_(i mod n),
# and pass every evaluation on to the runner's checks.  Off-graph points
# swapped into the sample must leave every failure message, count and
# evidence value exactly as the direct loop over those evaluations gives them.


def reference_family_verdicts(config, sample):
    """The extensions failures and the gap failures and per-tau evidence, evaluation by evaluation.

    Each margin is checked against s, each Fitzpatrick value against 0, and
    each tau's self-pairing, its gap, against s.
    """
    expected = pairing(ONES, config.ytilde)
    taus = [fraction_of(tau) for tau in config.taus]
    points = [extension_point(tau, config.ytilde) for tau in taus]
    n = len(points)
    margin_failures, gap_failures, per_tau = [], [], {}
    for i, p in enumerate(sample):
        for k in [i % n] if i else range(n):
            margin = Fraction(*closure_margin(points[k], p))
            if margin != expected or margin <= 0:
                margin_failures.append(f"margin {margin} != {expected} at tau = {taus[k]}")
            value = Fraction(*fitzpatrick_value(points[k], p))
            if value != 0:
                gap_failures.append(f"Fitzpatrick value {value} != 0 at tau = {taus[k]}")
    for tau, ep in zip(taus, points):
        gap = pairing(ep.xstar, ep.xstarstar)  # the self-pairing minus the proven value 0
        if gap != expected or gap <= 0:
            gap_failures.append(f"gap {gap} != expected {expected} at tau = {tau}")
        per_tau[str(tau)] = {"fitzpatrick_value": "0", "self_pairing": str(gap), "gap": str(gap)}
    return margin_failures, gap_failures, per_tau


# With ytilde (3/7, -1/5), s = 8/35: x = -G(y) + delta for y = unit(4) and
# delta = 7/3 * unit(1) + 2 * unit(4) has Fitzpatrick value tau + 1/tau - 2
# and margin s minus that, by bilinearity (sum(y) = 1, pairing(delta,
# ytilde) = 1, pairing(delta, y) = 2).  Both are right at tau = 1 and wrong
# at every other tau, so it fails some taus and passes others.  As the first
# point it differs from the later points at the taus where it is wrong.
TAU_ONE_POINT = SimpleNamespace(
    x=-gossez_apply(unit(4)) + Fraction(7, 3) * unit(1) + 2 * unit(4), y=unit(4)
)
# Fitzpatrick value pairing(unit(1), xstar) = 3/7 * tau, margin 8/35 - 3/7 * tau.
SHIFTED_POINT = SimpleNamespace(x=unit(1), y=unit(4) - unit(5))


def moved_off_the_graph(p):
    """A sampler fault: ``p`` with unit(1) added to its x, so every tau misses."""
    return SimpleNamespace(x=p.x + unit(1), y=p.y)


class EveryPoint:
    """The swaps that move every drawn point off the graph."""

    @staticmethod
    def get(i, p):
        return moved_off_the_graph(p)


@pytest.mark.parametrize(
    "swaps",
    [
        {0: TAU_ONE_POINT},
        {11: TAU_ONE_POINT},
        {0: SHIFTED_POINT, 11: TAU_ONE_POINT},
        EveryPoint,
    ],
    ids=["first", "later", "both", "every"],
)
def test_family_runners_match_the_direct_loop_off_the_graph(monkeypatch, swaps):
    drawn = c0cert.cli._graph_sample

    def swapped(config, rng):
        for i, p in enumerate(drawn(config, rng)):
            yield swaps.get(i, p)

    config = fast_config(
        ytilde={"prefix": ["3/7", "-1/5"], "tail": "0"},
        taus=[1, 2, "1/3"],
        suites=["extensions", "gap"],
    )
    clean = {r.name: r for r in run_suite(config).results}
    monkeypatch.setattr(c0cert.cli, "_graph_sample", swapped)
    results = {r.name: r for r in run_suite(config).results}
    samples = {name: list(swapped(config, c0cert.cli._rng(config, name))) for name in results}
    margin_failures, _, _ = reference_family_verdicts(config, samples["extensions"])
    _, gap_failures, per_tau = reference_family_verdicts(config, samples["gap"])

    ext, gap = results["extensions"], results["gap"]
    assert margin_failures and gap_failures  # the swapped points are seen
    assert ext.failures == margin_failures[:5]
    assert ext.counts == {**clean["extensions"].counts, "failures": len(margin_failures)}
    assert ext.evidence == clean["extensions"].evidence
    assert gap.failures == gap_failures[:5]
    assert gap.counts == {**clean["gap"].counts, "failures": len(gap_failures)}
    assert gap.evidence == {**clean["gap"].evidence, "per_tau": per_tau}


def traced_run(config: SuiteConfig) -> tuple[int, SuiteReport]:
    """tracemalloc peak, in bytes, of ``run_suite(config)``, and its report."""
    # empty the free lists first: objects reused from them are not traced
    gc.collect()
    tracemalloc.start()
    try:
        report = run_suite(config)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def family_suites_peak(samples: int) -> int:
    """tracemalloc peak, in bytes, of ``run_suite`` over the two family suites."""
    return traced_run(fast_config(samples=samples, suites=["extensions", "gap"]))[0]


def test_family_suites_memory_does_not_grow_with_samples(monkeypatch):
    """The family suites draw their sample one point at a time and keep none of it.

    So too when a sampler fault moves every drawn point off the graph, and
    every evaluation reaches the runner.
    """
    small, large = family_suites_peak(50), family_suites_peak(400)
    assert large - small <= 16 * 1024, (small, large)
    assert large < 2**20, large
    drawn = c0cert.cli._graph_sample

    def moved(config, rng):
        return map(moved_off_the_graph, drawn(config, rng))

    monkeypatch.setattr(c0cert.cli, "_graph_sample", moved)
    small, large = family_suites_peak(500), family_suites_peak(2000)
    assert large - small <= 16 * 1024, (small, large)
    assert large < 2**20, large


def test_a_failing_family_suite_draws_its_sample_once(monkeypatch):
    """One point that misses at its tau costs no second draw of the sample."""
    drawn, yielded = c0cert.cli._graph_sample, []

    def swapped(config, rng):
        for i, p in enumerate(drawn(config, rng)):
            yielded.append(i)
            yield TAU_ONE_POINT if i == 11 else p

    monkeypatch.setattr(c0cert.cli, "_graph_sample", swapped)
    for suite in ("extensions", "gap"):
        yielded.clear()
        config = fast_config(
            ytilde={"prefix": ["3/7", "-1/5"], "tail": "0"},
            taus=[1, 2, "1/3", 3, "1/2"],
            suites=[suite],
        )
        (result,) = run_suite(config).results
        # point 11 is evaluated at tau_(11 mod 5) = 2 only
        assert result.counts["failures"] == 1, result.failures
        assert yielded == list(range(config.samples))


def test_every_family_evaluation_reaches_its_runner(monkeypatch):
    """Each drawn point is evaluated once, at its tau, and the first at every tau.

    Every one of those evaluations reaches the runner, in draw order.
    """
    calls = {"closure_margin": 0, "fitzpatrick_value": 0}
    evaluations, yielded = c0cert.cli._evaluations, []

    def watched(*args):
        for k, num, den in evaluations(*args):
            yielded.append(k)
            yield k, num, den

    def counted(name):
        core = getattr(c0cert.cli, name)

        def terms(ep, p):
            calls[name] += 1
            return core(ep, p)

        return terms

    for name in calls:
        monkeypatch.setattr(c0cert.cli, name, counted(name))
    monkeypatch.setattr(c0cert.cli, "_evaluations", watched)
    config = fast_config(
        samples=50,
        ytilde={"prefix": ["3/7", "-1/5"], "tail": "0"},
        taus=[1, 2, "1/3"],
        suites=["extensions", "gap"],
    )
    assert run_suite(config).passed
    assert calls == {"closure_margin": 3 + 49, "fitzpatrick_value": 3 + 49}
    # the extensions suite's, then the gap suite's
    assert yielded == ([0, 1, 2] + [i % 3 for i in range(1, 50)]) * 2


def test_each_later_point_is_evaluated_at_its_rotated_tau(monkeypatch):
    """Point i > 0 is evaluated at tau_(i mod n), and each miss there is a failure."""
    core, taus = c0cert.cli.closure_margin, []

    def missing_at_two(ep, p):
        # the first point's three evaluations pass; every later one misses at tau = 2
        taus.append(ep.tau)
        num, den = core(ep, p)
        return (num + den, den) if len(taus) > 3 and ep.tau == (2, 1) else (num, den)

    monkeypatch.setattr(c0cert.cli, "closure_margin", missing_at_two)
    config = fast_config(
        ytilde={"prefix": ["3/7", "-1/5"], "tail": "0"}, taus=[1, 2, "1/3"], suites=["extensions"]
    )
    (result,) = run_suite(config).results
    assert taus == [(1, 1), (2, 1), (1, 3)] + [config.taus[i % 3] for i in range(1, 25)]
    assert result.counts["failures"] == len(range(1, 25, 3)) == 8
    assert result.failures == ["margin 43/35 != 8/35 at tau = 2"] * 5


# the verdict (-G(ytilde), ytilde) gets when G is replaced by the identity
# and -G by the negation, as below; ytilde = unit(1), so s = 1
NON_SKEW_VERDICT = (
    "Violation(witness=GraphPoint(x=Seq(num=(), tnum=0, den=1), y=Seq(num=(), tnum=0, den=1)), "
    "product=(-1, 1))"
)


def test_an_unproven_gap_suite_states_no_fitzpatrick_value(monkeypatch):
    """With G not skew, the sampled values miss 0, and no tau's evidence says they are 0.

    Each tau's evidence is its self-pairing alone: the gap is the self-pairing
    minus the Fitzpatrick value, which the failed proof did not establish.
    """
    monkeypatch.setattr("c0cert.certify.gossez_apply", lambda y: y)
    monkeypatch.setattr("c0cert.certify.neg_gossez_apply", lambda y: -y)
    (result,) = run_suite(fast_config(taus=[1, 2], suites=["gap"])).results
    assert result.failures[1] == "Fitzpatrick value 1208497/107648 != 0 at tau = 1"
    assert result.evidence == {
        "expected_gap": "1",
        "per_tau": {"1": {"self_pairing": "0"}, "2": {"self_pairing": "-3"}},
    }


def test_a_map_that_is_not_skew_leaves_the_family_margin_unproven(monkeypatch):
    monkeypatch.setattr("c0cert.certify.gossez_apply", lambda y: y)
    monkeypatch.setattr("c0cert.certify.neg_gossez_apply", lambda y: -y)
    # one tau: at two, the extensions suite crashes on the distinctness closed form
    for result in run_suite(fast_config(taus=[1], suites=["extensions", "gap"])).results:
        assert not result.passed
        assert result.failures[0] == f"margin 1 not proven on the whole graph: {NON_SKEW_VERDICT}"


@pytest.mark.parametrize("samples, kept", [(1, 3), (25, MAX_FAILURES_SHOWN)])
def test_a_crash_follows_the_failures_appended_before_it(monkeypatch, samples, kept):
    """With G not skew, the extensions suite at taus 1, 2 fails its proof and margins, then crashes.

    Its result keeps the failures appended before the crash, up to the cap,
    and the crash record after them, past the cap too.
    """
    monkeypatch.setattr("c0cert.certify.gossez_apply", lambda y: y)
    monkeypatch.setattr("c0cert.certify.neg_gossez_apply", lambda y: -y)
    config = fast_config(samples=samples, taus=[1, 2], suites=["extensions"])
    (result,) = run_suite(config).results
    *kept_failures, crash = result.failures
    assert len(kept_failures) == kept
    assert kept_failures[0] == f"margin 1 not proven on the whole graph: {NON_SKEW_VERDICT}"
    # the first point misses at both taus; with 25 samples, later points miss too
    taus = [message.rpartition(" != 1 at tau = ")[2] for message in kept_failures[1:]]
    assert taus == ["1", "2", "2", "1"][: kept - 1]
    found = re.fullmatch(
        r"AssertionError: distinctness mismatch: direct -3/2 != closed -1/2 \(certify\.py:\d+\)",
        crash,
    )
    assert found, crash
    assert result.counts == {} and result.evidence == {}


def test_a_family_suite_fails_on_any_verdict_but_related_with_margin_zero(monkeypatch):
    """Every evaluation passes, so the tau-free verdict is the one failure.

    Unproven, the gap suite states each tau's self-pairing alone.
    """
    clean = run_suite(fast_config(suites=["extensions", "gap"])).results
    monkeypatch.setattr(c0cert.cli, "violation_witness", lambda x, y: Related((1, 1)))
    results = run_suite(fast_config(suites=["extensions", "gap"])).results
    for result, passed in zip(results, clean):
        assert result.failures == ["margin 1 not proven on the whole graph: Related(margin=(1, 1))"]
        assert result.counts == {**passed.counts, "failures": 1}
    (extensions, gap), (clean_extensions, _) = results, clean
    assert extensions.evidence == clean_extensions.evidence
    per_tau = {"1": {"self_pairing": "1"}, "2": {"self_pairing": "1"}}
    assert gap.evidence == {"expected_gap": "1", "per_tau": per_tau}


def failing_extensions_peak(samples: int) -> tuple[int, SuiteResult]:
    """tracemalloc peak, in bytes, of ``run_suite`` over ``extensions``, and its result."""
    peak, report = traced_run(fast_config(samples=samples, suites=["extensions"]))
    return peak, report.results[0]


def test_failing_suite_memory_does_not_grow_with_its_failures(monkeypatch):
    """A runner keeps five failure messages and counts the rest as they arrive."""
    core = c0cert.cli.closure_margin
    monkeypatch.setattr(c0cert.cli, "closure_margin", raised_by_one(core))
    peaks = {}
    for samples in (50, 400):
        peaks[samples], result = failing_extensions_peak(samples)
        # the first point fails at both taus, and every later point at its tau
        assert result.counts["failures"] == samples + 1
        assert len(result.failures) == 5
    assert peaks[400] - peaks[50] <= 16 * 1024, peaks
    assert peaks[400] < 128 * 1024, peaks


# sha256 of render_json(report, with_timing=False) for extensions and gap at
# 2,000 samples with G replaced by the identity, which is not skew, and -G
# by the negation, with the crash site's line number written as LINE.
NON_SKEW_REPORT_SHA256 = {
    "1,2": "db384934d6e6ea56dd57ba16e6e8d1ed5fc6d20924e1260c3c0a5a706e7319bc",
    "1": "0d7708e34e3a3d0872a58b3982aab3818fe06dfe82da87fbd7467911acb074fb",
}


@pytest.mark.parametrize("taus", ["1,2", "1"])
def test_family_suites_hold_no_sample_when_the_proof_covers_no_point(monkeypatch, taus):
    """With G not skew the tau-free proof fails and points miss, and none is kept."""
    monkeypatch.setattr("c0cert.certify.gossez_apply", lambda y: y)
    monkeypatch.setattr("c0cert.certify.neg_gossez_apply", lambda y: -y)
    peaks = {}
    for samples in (500, 2000):
        config = fast_config(samples=samples, taus=taus.split(","), suites=["extensions", "gap"])
        peaks[samples], report = traced_run(config)
    text = re.sub(r"\(certify\.py:\d+\)", "(certify.py:LINE)", render_json(report, False))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NON_SKEW_REPORT_SHA256[taus]
    assert peaks[2000] - peaks[500] <= 16 * 1024, peaks


def test_seen_values_keep_zero_and_the_first_distinct_failing_values():
    # "0" seen before the five failing values, and seen only after them
    for values in ("3 0 1 3 2 5 4 6 0 7", "3 1 3 2 5 4 6 0 7 0"):
        seen = c0cert.cli._Seen()
        for value in values.split():
            seen.add(value)
        assert seen == {"0", "1", "2", "3", "4", "5"}  # MAX_FAILURES_SHOWN = 5 nonzero values


def test_failing_values_equal_as_rationals_are_listed_once(monkeypatch):
    """Every pairing is 1, through terms that differ from sample to sample."""
    monkeypatch.setattr(c0cert.cli, "pairing_numerator", lambda a, b: a.den * b.den)
    (result,) = run_suite(fast_config(suites=["skew"])).results
    assert result.evidence == {"pairing_values": ["1"]}
    assert result.counts == {"samples": 25, "failures": 25}
    assert len(result.failures) == 5


def test_failing_skew_suite_lists_at_most_six_values(monkeypatch):
    """Its evidence, like its messages, does not grow with its failures."""
    core = c0cert.cli.pairing_numerator
    monkeypatch.setattr(c0cert.cli, "pairing_numerator", lambda a, b: core(a, b) + 1)
    peak, report = traced_run(fast_config(samples=2000, suites=["skew"]))
    (result,) = report.results
    assert result.counts == {"samples": 2000, "failures": 2000}
    assert len(result.failures) == 5
    # the first five distinct values, listed sorted as strings
    assert result.evidence["pairing_values"] == [
        "1/19043797766400",
        "1/2516949632024100",
        "1/625",
        "1/6693995030355360000",
        "1/73296302492651041440000",
    ]
    assert peak < 128 * 1024, peak
