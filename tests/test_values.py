"""Value classes: compared, hashed and shown by their fields, and pickle and copy keep them."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from c0cert.certify import (
    ExtensionFamily,
    ExtensionPoint,
    GraphPoint,
    Member,
    Related,
    Violation,
    extension_family,
    violation_witness,
)
from c0cert.cli import (
    SUITE_NAMES,
    SuiteConfig,
    SuiteReport,
    SuiteResult,
    config_from_obj,
    run_suite,
)
from c0cert.gossez import unit_u
from c0cert.seqspace import ZERO, Seq, unit

# Each value class with its fields, in order.
FIELDS = {
    Seq: ("num", "tnum", "den"),
    GraphPoint: ("x", "y"),
    ExtensionPoint: ("tau", "ytilde", "xstar", "xstarstar"),
    ExtensionFamily: ("points", "ytilde", "total", "g", "diagonal"),
    Member: (),
    Related: ("margin",),
    Violation: ("witness", "product"),
    SuiteConfig: ("seed", "samples", "support_max", "coeff_bound", "taus", "ytilde", "suites"),
    SuiteResult: ("name", "counts", "evidence", "failures", "duration"),
    SuiteReport: ("config", "results"),
}


def instances() -> list:
    """One instance of each value class, in ``FIELDS`` order."""
    family = extension_family(["1/2", 3], Seq(["1/3", "-1/5", 2]))
    related = violation_witness(Seq([1], 2), unit(1))
    violation = violation_witness(unit(1), ZERO)
    assert isinstance(related, Related) and isinstance(violation, Violation)
    config = config_from_obj({"samples": 3, "suites": ["gap", "maximal"]})
    report = run_suite(config)
    return [
        Seq(["1/2", -3], "1/3"),
        GraphPoint.from_y(unit_u(2)),
        family.points[1],
        family,
        Member(),
        related,
        violation,
        config,
        report.results[0],
        report,
    ]


def values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def test_every_value_class_has_an_instance():
    assert [type(obj) for obj in instances()] == list(FIELDS)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips_to_an_equal_object(protocol):
    for obj in instances():
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is type(obj)
        assert back == obj
        assert values(back) == values(obj)


def test_copy_and_deepcopy_give_equal_objects():
    for obj in instances():
        for dup in (copy.copy(obj), copy.deepcopy(obj)):
            assert type(dup) is type(obj)
            assert dup == obj
            assert values(dup) == values(obj)


def test_value_classes_have_no_instance_dict():
    for obj in instances():
        assert not hasattr(obj, "__dict__")
        for field in FIELDS[type(obj)]:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError):
                delattr(obj, field)
        # a new name is refused with exactly AttributeError
        with pytest.raises(AttributeError) as refused:
            obj.extra = 1
        assert type(refused.value) is AttributeError
        # not even the raw object protocol finds a place to store a new name
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)


def test_pinned_reprs():
    assert repr(unit(2)) == "Seq(num=(0, 1), tnum=0, den=1)"
    assert repr(Member()) == "Member()"
    assert repr(Related(Fraction(1))) == "Related(margin=Fraction(1, 1))"
    p = GraphPoint.from_y(unit_u(1))
    assert repr(p) == f"GraphPoint(x={p.x!r}, y={p.y!r})"
    assert repr(SuiteConfig()) == (
        "SuiteConfig(seed=0, samples=1000, support_max=16, coeff_bound=100, "
        "taus=(Fraction(1, 1), Fraction(2, 1)), ytilde=Seq(num=(1,), tnum=0, den=1), "
        f"suites={SUITE_NAMES!r})"
    )


def test_hash_is_the_hash_of_the_field_tuple():
    s = Seq(["1/2", -3], "1/3")
    assert hash(s) == hash((s.num, s.tnum, s.den))
    for obj in instances():
        if type(obj) not in (SuiteResult, SuiteReport):  # they hold dicts and lists
            assert hash(obj) == hash(values(obj))


def test_equality_needs_the_same_class_and_equal_fields():
    objs = instances()
    for a in objs:
        for b in objs:
            if type(a) is not type(b):
                assert a != b
                assert not a == b
    p, q = GraphPoint.from_y(unit_u(1)), GraphPoint.from_y(unit_u(2))
    assert p == GraphPoint(p.x, p.y)
    assert p != q
    assert Member() == Member()


def test_suite_config_defaults_and_field_order():
    assert SuiteConfig() == config_from_obj({})
    assert SuiteConfig().ytilde == unit(1)
    assert SuiteConfig().taus == (Fraction(1), Fraction(2))
    args = (3, 10, 8, 50, (Fraction(1, 2),), unit(2), ("gap",))
    keywords = dict(zip(FIELDS[SuiteConfig], args))
    assert SuiteConfig(*args) == SuiteConfig(**keywords)
    assert values(SuiteConfig(*args)) == args
