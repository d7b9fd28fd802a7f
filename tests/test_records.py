"""The result and input records are named tuples: immutable, equal to the
plain tuple of their fields, and checked on every route to a new record."""

import pytest

from sarithdim.covolume import invariants, sl2_covolume
from sarithdim.errors import NotSquarefree, OutOfRange
from sarithdim.formal_degree import LocalRepDatum
from sarithdim.numberfield import NumberField, Place, SSet, build_S, parse_field
from sarithdim.quaternion import pdx_candidates
from sarithdim.vndim import check_identities, steinberg_vn_dim
from sarithdim.zeta import functional_equation_check, zeta_F_minus1


def all_records():
    F = parse_field("Q(sqrt 5)")
    S = build_S(F, [11])
    report = check_identities(F, S)
    return [
        F,
        Place(3, 1, 1),
        S,
        LocalRepDatum(Place(), 2),
        zeta_F_minus1(F),
        functional_equation_check(F, 1e-8),
        invariants(F, S),
        sl2_covolume(F, S),
        pdx_candidates(F),
        steinberg_vn_dim(F, S, "pgl"),
        report.checks[0],
        report,
    ]


RECORDS = all_records()


def test_twelve_distinct_record_types():
    assert len({type(record) for record in RECORDS}) == 12


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert tuple(record) == record and record._replace() == record


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_only_the_s_set_has_an_instance_dict(record):
    # an S-set keeps its places and its Invariants record in its dict
    assert hasattr(record, "__dict__") == (type(record) is SSet)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Place(3, 1, 1)._replace(p=4), ValueError),
        (lambda: Place(3, 1, 1)._replace(e=0), ValueError),
        (lambda: Place._make((3, 1, 1.0, 0)), ValueError),
        (lambda: NumberField(5)._replace(d=4), NotSquarefree),
        (lambda: NumberField._make((4,)), NotSquarefree),
        (lambda: build_S(NumberField(5), [3])._replace(field=NumberField()), ValueError),  # 3 is inert
        (lambda: LocalRepDatum(Place(), 2)._replace(value=1), OutOfRange),
    ],
    ids=["Place-p", "Place-e", "Place-make", "NumberField", "NumberField-make", "SSet", "LocalRepDatum"],
)
def test_validation_survives_replace_and_make(build, error):
    with pytest.raises(error):
        build()


def test_replaced_s_set_builds_its_own_invariants():
    F = parse_field("Q(sqrt 5)")
    S = build_S(F, [11])
    invariants(F, S)
    T = S._replace(finite_places=build_S(F, [19]).finite_places)
    assert "invariants" not in T.__dict__
    assert invariants(F, T) == invariants(F, build_S(F, [19])) != invariants(F, S)
