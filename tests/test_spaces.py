"""Space descriptors: dimensions, partitions, sections, serialization."""

import json

import pytest
from hypothesis import given, settings

from conftest import internal_space, space_strategy
from mdspline import MDSpace, SpaceValidationError


def worked_space():
    return MDSpace.create((0.0, 4.0), (1.0, 2.0, 3.0), (2, 2, 4, 3), (1, 2, 3))


def test_dimension_worked_space():
    sp = worked_space()
    assert sp.dimension == 6
    assert sp.associated_c0().dimension == 11


def test_dimension_known_spaces():
    from mdspline.presets import cox, table7, test1, test3, test5, test6
    sub = MDSpace.create((2.0, 4.0), (3.0,), (4, 3), (3,))
    assert sub.dimension == 5
    assert sub.associated_c0().dimension == 8
    assert test1().dimension == 9
    assert test3().dimension == 17
    assert test3().associated_c0().dimension == 53
    assert test5().dimension == 43
    assert test6().dimension == 41
    assert test6().associated_c0().dimension == 71
    assert cox().dimension == 43
    for k1 in range(5, 20):
        assert table7(k1).dimension == 40 - k1


def test_extended_partitions_by_hand():
    s, t = worked_space().extended_partitions()
    assert s == (0.0, 0.0, 0.0, 1.0, 2.0, 2.0)
    assert t == (1.0, 3.0, 4.0, 4.0, 4.0, 4.0)
    # no zero slots in a public space
    assert all(si < ti for si, ti in zip(s, t))


def test_extended_partitions_internal_head_deficit():
    # d_0 + 1 < 0 deletes the shortfall from the front of s
    sp = internal_space((0.0, 2.0), (1.0,), (-2, 1), (-2,))
    assert sp.dimension == 2
    s, t = sp.extended_partitions()
    assert s == (1.0, 1.0)
    assert t == (2.0, 2.0)


def test_extended_partitions_match_dimension_under_derivatives():
    sp = worked_space()
    for r in range(4):
        dsp = sp.derivative_space(r)
        s, t = dsp.extended_partitions()
        assert len(s) == len(t) == dsp.dimension == sp.dimension - r


def test_derivative_space_shifts_raw():
    dsp = worked_space().derivative_space(2)
    assert dsp.internal
    assert dsp.degrees == (0, 0, 2, 1)
    assert dsp.continuities == (-1, 0, 1)
    # the third derivative vanishes on the quadratic intervals
    assert worked_space().derivative_space(3).degrees == (-1, -1, 1, 0)


def test_associated_c0():
    c0 = worked_space().associated_c0()
    assert c0.continuities == (1, 0, 0)
    assert c0.degrees == worked_space().degrees
    # equal-degree seams keep their continuity
    conv = MDSpace.create((0.0, 2.0), (1.0,), (2, 2), (1,))
    assert conv.associated_c0() == conv


def test_directly_evaluable():
    assert not worked_space().is_directly_evaluable()
    assert worked_space().associated_c0().is_directly_evaluable()
    assert MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (0,)).is_directly_evaluable()
    assert not MDSpace.create((0.0, 2.0), (1.0,), (2, 1), (1,)).is_directly_evaluable()


def test_section_decomposition():
    dec = worked_space().section_decomposition()
    assert dec.boundaries == (0, 2, 3, 4)
    assert [str(s) for s in dec.sections] == [
        "(2_1 2) on [0.0, 2.0]", "(4) on [2.0, 3.0]", "(3) on [3.0, 4.0]"]
    assert [(j.x, j.continuity) for j in dec.join_order] == [(3.0, 3), (2.0, 2)]
    assert [(j.x, j.continuity) for j in dec.joins] == [(2.0, 2), (3.0, 3)]
    assert dec.joins is dec.joins


def test_find_interval():
    sp = worked_space()
    assert sp.find_interval(0.0) == 0
    assert sp.find_interval(1.0) == 1
    assert sp.find_interval(2.5) == 2
    assert sp.find_interval(4.0) == 3
    with pytest.raises(ValueError):
        sp.find_interval(4.5)


def test_restrict():
    sub = worked_space().restrict(1, 3)
    assert (sub.a, sub.b) == (1.0, 3.0)
    assert sub.degrees == (2, 4)
    assert sub.continuities == (2,)
    head = worked_space().restrict(0, 2)
    assert str(head) == "(2_1 2) on [0.0, 2.0]"


def test_json_round_trip():
    sp = worked_space()
    assert MDSpace.from_json(json.dumps(sp.to_dict())) == sp
    assert MDSpace.from_dict(sp.to_dict()) == sp


@pytest.mark.parametrize("kwargs", [
    dict(interval=(0.0, 0.0), breakpoints=(), degrees=(2,), continuities=()),
    dict(interval=(0.0, 2.0), breakpoints=(1.0,), degrees=(2,), continuities=(1,)),
    dict(interval=(0.0, 2.0), breakpoints=(1.0,), degrees=(2, 2), continuities=()),
    dict(interval=(0.0, 2.0), breakpoints=(3.0,), degrees=(2, 2), continuities=(1,)),
    dict(interval=(0.0, 2.0), breakpoints=(1.0, 1.0), degrees=(2, 2, 2),
         continuities=(1, 1)),
    dict(interval=(0.0, 2.0), breakpoints=(1.0,), degrees=(2, -1), continuities=(0,)),
    dict(interval=(0.0, 2.0), breakpoints=(1.0,), degrees=(3, 1), continuities=(2,)),
])
def test_validation_rejects(kwargs):
    with pytest.raises(SpaceValidationError):
        MDSpace.create(**kwargs)


@pytest.mark.parametrize("interval, breakpoints", [
    ((0.0, float("inf")), (1.0,)),
    ((float("-inf"), 2.0), (1.0,)),
    ((0.0, 2.0), (float("nan"),)),
    ((float("nan"), 2.0), (1.0,)),
])
def test_non_finite_knots_rejected(interval, breakpoints):
    with pytest.raises(SpaceValidationError, match="finite"):
        MDSpace.create(interval, breakpoints, (2, 2), (1,))
    space = MDSpace(float(interval[0]), float(interval[1]), breakpoints, (2, 2), (1,))
    with pytest.raises(SpaceValidationError, match="finite"):
        space.validate()


@pytest.mark.parametrize("interval, breakpoints, what", [
    ((0.0, 1e-320), (), "reciprocal"),
    ((0.0, 2.0), (1e-320,), "reciprocal"),
    ((-1e308, 1e308), (), "span"),
    ((-1e308, 1e308), (0.0,), "span"),
])
def test_widths_a_double_cannot_invert_rejected(interval, breakpoints, what):
    # each is finite and increasing, but 1 / width or b - a overflows
    with pytest.raises(SpaceValidationError, match=what):
        MDSpace.create(interval, breakpoints, (3,) * (len(breakpoints) + 1),
                       (2,) * len(breakpoints))


@pytest.mark.parametrize("degrees, continuities", [
    ((3.7, 3), (2,)),
    ((3, 3), (1.5,)),
    (("3", 3), (2,)),
    ((None, 3), (2,)),
])
def test_non_integral_orders_rejected(degrees, continuities):
    with pytest.raises(SpaceValidationError, match="integers"):
        MDSpace.create((0.0, 2.0), (1.0,), degrees, continuities)
    with pytest.raises(SpaceValidationError, match="integers"):
        MDSpace.from_dict({"interval": [0.0, 2.0], "breakpoints": [1.0],
                           "degrees": list(degrees), "continuities": list(continuities)})


@pytest.mark.parametrize("doc, what", [
    ({"interval": "01", "degrees": [2]}, "interval"),
    ({"interval": [0, 1, 7], "degrees": [2]}, "interval"),
    ({"interval": [0, True], "degrees": [2]}, "interval"),
    ({"interval": [0, 3], "breakpoints": "12", "degrees": [1, 2, 3],
      "continuities": [1, 2]}, "breakpoints"),
    ({"interval": [0, 3], "breakpoints": [1, 2], "degrees": [True, 2, 3],
      "continuities": [1, 2]}, "degrees"),
    ({"interval": [0, 3], "breakpoints": [1, 2], "degrees": [1, 2, 3],
      "continuities": [1, True]}, "continuities"),
    ({"interval": [0, 1], "breakpoints": {}, "degrees": [3]}, "breakpoints"),
    ({"interval": [0, 1], "degrees": [3], "continuities": {}}, "continuities"),
    ({"interval": [0, 1], "degrees": [3], "continuities": ""}, "continuities"),
    ({"interval": [0, 10 ** 400], "degrees": [3]}, "interval"),
])
def test_schema_types_rejected(doc, what):
    # the schema asks for an interval of exactly 2 numbers and integer
    # orders: a string is not read as its characters, a third number is not
    # dropped and a bool is not read as 0 or 1
    with pytest.raises(SpaceValidationError, match=what):
        MDSpace.from_dict(doc)
    with pytest.raises(SpaceValidationError, match=what):
        MDSpace.create(doc["interval"], doc.get("breakpoints", ()), doc["degrees"],
                       doc.get("continuities", ()))


def test_integral_floats_accepted():
    sp = MDSpace.create((0.0, 2.0), (1.0,), (3.0, 3), (2.0,))
    assert sp.degrees == (3, 3) and sp.continuities == (2,)
    assert all(type(v) is int for v in sp.degrees + sp.continuities)


def test_internal_invariant_rejects():
    # k <= min degree but d_i - k_i < 0 is still inconsistent
    with pytest.raises(SpaceValidationError):
        internal_space((0.0, 2.0), (1.0,), (3, 1), (2,))


def test_malformed_json():
    with pytest.raises(SpaceValidationError):
        MDSpace.from_json("{not json")
    with pytest.raises(SpaceValidationError):
        MDSpace.from_dict({"interval": [0, 1]})


@pytest.mark.parametrize("doc", [
    # a misspelt key is not dropped, which would read this as a degree-3 interval
    {"interval": [0.0, 3.0], "degrees": [3], "continuity": [2]},
    {"interval": [0.0, 2.0], "breakpoints": [1.0], "degrees": [2, 2],
     "continuities": [1], "comment": "C1 quadratic"},
])
def test_unknown_keys_rejected(doc):
    with pytest.raises(SpaceValidationError, match="unknown keys"):
        MDSpace.from_dict(doc)


@pytest.mark.parametrize("doc", [[0.0, 3.0], "interval", 3, None])
def test_a_document_that_is_not_an_object_is_malformed(doc):
    with pytest.raises(SpaceValidationError, match="malformed space description"):
        MDSpace.from_dict(doc)


def test_absent_breakpoints_and_continuities_are_empty():
    sp = MDSpace.from_dict({"interval": [0.0, 3.0], "degrees": [3]})
    assert sp.breakpoints == () and sp.continuities == ()


@settings(max_examples=25, deadline=None)
@given(space_strategy())
def test_partition_lengths_and_supports(sp):
    s, t = sp.extended_partitions()
    assert len(s) == len(t) == sp.dimension
    assert all(si < ti for si, ti in zip(s, t))
    assert s[0] == sp.a and t[-1] == sp.b
    # support starts and ends are both nondecreasing
    assert all(x <= y for x, y in zip(s, s[1:]))
    assert all(x <= y for x, y in zip(t, t[1:]))


@settings(max_examples=25, deadline=None)
@given(space_strategy())
def test_sections_are_conventional_and_cover(sp):
    dec = sp.section_decomposition()
    assert sum(s.q + 1 for s in dec.sections) == sp.q + 1
    for s in dec.sections:
        assert all(d == s.degrees[0] for d in s.degrees)
    assert [j.x for j in dec.joins] == sorted(j.x for j in dec.join_order)
    ks = [j.continuity for j in dec.join_order]
    assert ks == sorted(ks, reverse=True)
