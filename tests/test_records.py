"""Value semantics of the package's record classes: constructor parameters and
defaults, normalisation, validation, ==, hash, repr, pickling, and refused
attribute assignment on the immutable ones."""

import inspect
import pickle

import pytest

from groupdet import (
    AbelianGroup,
    BoundCheck,
    Character,
    CheckResult,
    CongruenceCheck,
    CyclotomicInt,
    ExponentFact,
    FactorizationReport,
    MembershipSpec,
    SearchReport,
    membership_spec,
)

EMPTY = inspect.Parameter.empty
G42 = AbelianGroup((4, 2))
Z5 = CyclotomicInt(5, (1, -2, 0, 3))


def parameters(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


# (class, parameters with defaults, field values, other values, repr)
FROZEN = [
    (AbelianGroup, [("orders", EMPTY)], ((4, 2),), ((2, 4),), "AbelianGroup(orders=(4, 2))"),
    (
        Character,
        [("group", EMPTY), ("exponents", EMPTY)],
        (G42, (3, 1)),
        (AbelianGroup((4, 4)), (1, 1)),
        "Character(group=AbelianGroup(orders=(4, 2)), exponents=(3, 1))",
    ),
    (
        FactorizationReport,
        [("split", EMPTY), ("factors", EMPTY), ("product", EMPTY), ("direct_det", EMPTY),
         ("match", EMPTY)],
        ("dedekind", (Z5,), 7, 7, True),
        ("laquer", (), 8, 8, False),
        "FactorizationReport(split='dedekind', factors=(CyclotomicInt(5, (1, -2, 0, 3)),), "
        "product=7, direct_det=7, match=True)",
    ),
    (
        ExponentFact,
        [("orders", EMPTY), ("exponent", EMPTY), ("source", EMPTY)],
        ((2,), 2, "classical"),
        ((4,), 3, "other"),
        "ExponentFact(orders=(2,), exponent=2, source='classical')",
    ),
    (
        BoundCheck,
        [("status", EMPTY), ("det", EMPTY), ("valuation", EMPTY), ("bound_exponent", EMPTY)],
        ("pass", -256, 8, 8),
        ("fail", 256, 7, 9),
        "BoundCheck(status='pass', det=-256, valuation=8, bound_exponent=8)",
    ),
    (
        CongruenceCheck,
        [("status", EMPTY), ("factors", EMPTY)],
        ("fail", (3, 2)),
        ("pass", (3,)),
        "CongruenceCheck(status='fail', factors=(3, 2))",
    ),
    (
        CheckResult,
        [("name", EMPTY), ("status", EMPTY), ("violations", EMPTY)],
        ("membership in Z4Z2", "fail", ((2, (2, 0)),)),
        ("other", "pass", ()),
        "CheckResult(name='membership in Z4Z2', status='fail', violations=((2, (2, 0)),))",
    ),
]
IDS = [case[0].__name__ for case in FROZEN]


@pytest.mark.parametrize("cls,params,fields,others,text", FROZEN, ids=IDS)
def test_frozen_record_semantics(cls, params, fields, others, text):
    assert parameters(cls) == params
    names = [name for name, _ in params]
    a = cls(*fields)
    assert [getattr(a, name) for name in names] == list(fields)
    assert cls(**dict(zip(names, fields))) == a
    assert hash(a) == hash(cls(*fields)) == hash(fields)
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == fields[names.index(name)]
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls,params,fields,others,text", FROZEN, ids=IDS)
def test_frozen_record_compares_every_field(cls, params, fields, others, text):
    a = cls(*fields)
    for i, other in enumerate(others):
        b = cls(*fields[:i], other, *fields[i + 1:])
        assert a != b and not a == b


def test_abelian_group_normalises_and_validates():
    g = AbelianGroup([2, 2])
    assert g.orders == (2, 2) and type(g.orders) is tuple
    assert g == AbelianGroup((2, 2)) and hash(g) == hash(((2, 2),))
    assert AbelianGroup((2, 2)) != (2, 2)
    assert AbelianGroup((4, 2)) != AbelianGroup((2, 4))
    with pytest.raises(ValueError, match="at least one cyclic factor"):
        AbelianGroup(())
    for bad in [(0,), (2, -1), ("2",), (2.0,)]:
        with pytest.raises(ValueError, match="invalid cyclic factor order"):
            AbelianGroup(bad)
    assert {AbelianGroup([3]), AbelianGroup((3,))} == {AbelianGroup((3,))}


def test_character_validates_against_its_group():
    assert Character(G42, (3, 1)).is_trivial is False
    assert Character(G42, (0, 0)).is_trivial is True
    for bad in [(4, 0), (0, 2), (1,), (-1, 0)]:
        with pytest.raises(ValueError, match="is not valid in 4x2"):
            Character(G42, bad)
    assert Character(G42, (1, 0)) != Character(AbelianGroup((4, 4)), (1, 0))


def test_cyclotomic_int_semantics():
    assert parameters(CyclotomicInt) == [("level", EMPTY), ("coeffs", EMPTY)]
    a = CyclotomicInt(5, [1, -2, 0, 3])
    assert a.coeffs == (1, -2, 0, 3) and type(a.coeffs) is tuple
    assert CyclotomicInt(level=5, coeffs=(1, -2, 0, 3)) == a == Z5
    assert hash(a) == hash((5, (1, -2, 0, 3)))
    assert repr(a) == "CyclotomicInt(5, (1, -2, 0, 3))"
    assert str(a) == "1 - 2*z + 3*z^3 (level 5)"
    assert a != CyclotomicInt(5, (1, -2, 0, 4))
    assert CyclotomicInt(4, (3, 0)) == 3 and 3 == CyclotomicInt(4, (3, 0))
    assert CyclotomicInt(1, (3,)) != CyclotomicInt(2, (3,))
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(ValueError, match="level 5 needs exactly 4 coefficients, got 2"):
        CyclotomicInt(5, (1, 2))
    for name in ("level", "coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    for name in ("level", "coeffs"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.level == 5 and a.coeffs == (1, -2, 0, 3)


def test_membership_spec_compares_by_name_only():
    assert parameters(MembershipSpec) == [("name", EMPTY), ("predicate", EMPTY)]
    a = MembershipSpec("odd", lambda v: v % 2 == 1)
    b = MembershipSpec(name="odd", predicate=lambda v: True)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(("odd",))
    assert a != MembershipSpec("even", a.predicate)
    assert repr(a).startswith("MembershipSpec(name='odd', predicate=<function ")
    assert a.predicate(3) and not a.predicate(2)
    spec = membership_spec("Z4Z2")
    assert pickle.loads(pickle.dumps(spec)) == spec
    for name in ("name", "predicate"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


def test_search_report_is_a_mutable_record():
    assert parameters(SearchReport) == [
        ("orders", EMPTY), ("box", EMPTY), ("evaluated", EMPTY), ("achieved", EMPTY),
        ("pruned", False), ("value_cap", None),
    ]
    r = SearchReport((2,), 1, 9, {0: (0, 0), 1: (1, 0)})
    assert (r.pruned, r.value_cap, r.distinct) == (False, None, 2)
    assert repr(r) == (
        "SearchReport(orders=(2,), box=1, evaluated=9, achieved={0: (0, 0), 1: (1, 0)}, "
        "pruned=False, value_cap=None)"
    )
    same = SearchReport(orders=(2,), box=1, evaluated=9, achieved={0: (0, 0), 1: (1, 0)},
                        pruned=False, value_cap=None)
    assert r == same and not r != same
    for field, value in [("orders", (3,)), ("box", 2), ("evaluated", 8), ("achieved", {}),
                         ("pruned", True), ("value_cap", 5)]:
        other = SearchReport((2,), 1, 9, {0: (0, 0), 1: (1, 0)})
        setattr(other, field, value)
        assert getattr(other, field) == value
        assert other != r
    assert r != ((2,), 1, 9, {0: (0, 0), 1: (1, 0)}, False, None)
    with pytest.raises(TypeError):
        hash(r)
    r.achieved[-3] = (1, 1)
    assert r.distinct == 3
    assert pickle.loads(pickle.dumps(r)) == r
