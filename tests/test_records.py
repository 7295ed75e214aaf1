"""The package's records are immutable named tuples: field order, equality and hashing."""

import pytest

from toricfano import conjectures, criteria, io, lp, measures, polytope, symmetry
from toricfano.conjectures import check_bishop, check_conj11, check_ehrhart_bound, check_eq1
from toricfano.io import _plain
from toricfano.measures import cone_measures, fano_index
from toricfano.polytope import hull
from toricfano.symmetry import polytope_automorphisms

MODULES = (conjectures, criteria, io, lp, measures, polytope, symmetry)
RECORDS = {
    "conjectures": {"Eq1Record", "FacetFeasibility", "EhrhartBoundRecord", "BishopRecord"},
    "criteria": {"KEVerdict"},
    "io": {"PolytopeFile", "ScanOptions"},
    "lp": {"LPResult"},
    "measures": {"EhrhartPolynomial"},
    "polytope": {"Facet", "LatticePolytope", "DualPair", "SubspacePolytope"},
    "symmetry": {"SymmetryGroup", "FixedSpace"},
}


def _records():
    """Every tuple subclass a module defines, as (module stem, class)."""
    return [(m.__name__.rsplit(".", 1)[1], obj) for m in MODULES for obj in vars(m).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == m.__name__]


def test_every_record_is_listed():
    found = {}
    for stem, cls in _records():
        found.setdefault(stem, set()).add(cls.__name__)
    assert found == RECORDS


@pytest.mark.parametrize("cls", [cls for _, cls in _records()], ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    r = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        r.extra = None      # __slots__ = (): no instance dict
    assert r == cls._make(range(len(cls._fields)))


def _assert_ignores_cache(record, bare, changed):
    """``bare`` differs from ``record`` only in the cache, ``changed`` in a canonical field."""
    assert record[-1] is not None and bare[-1] is None
    assert record == bare and bare == record
    assert not record != bare and not bare != record
    assert hash(record) == hash(bare)
    assert record != changed and not record == changed
    assert record != tuple(record)      # a record is not a plain tuple of its fields


def test_facet_equality_ignores_inverse(q1_pair):
    f = q1_pair.q.facets[0]
    _assert_ignores_cache(f, f._replace(inverse=None), f._replace(rhs=f.rhs - 1))


def test_polytope_equality_ignores_cone_inverses(q1_pair):
    p = q1_pair.p
    _assert_ignores_cache(p, p._replace(cone_inverses=None), p._replace(facets=p.facets[1:]))
    bare = q1_pair.q._replace(facets=tuple(f._replace(inverse=None) for f in q1_pair.q.facets))
    assert bare == q1_pair.q == hull(q1_pair.q.vertices) and hash(bare) == hash(q1_pair.q)


def test_group_equality_reads_permutations(q1_pair):
    # the search order is fixed, so one polytope gives one record, and the permutations are its data
    g, again = polytope_automorphisms(q1_pair.q), polytope_automorphisms(q1_pair.q)
    assert g is not again and g == again and hash(g) == hash(again)
    assert len(g.permutations) > 1 and g != g._replace(permutations=g.permutations[::-1])
    assert g != g._replace(order=g.order + 1)


def test_conjecture_records_serialize_in_field_order(cx5_pair):
    dp = cx5_pair
    measured = cone_measures(dp.p, with_ehrhart=True)
    records = [check_eq1(dp, measured), check_conj11(dp)[0], check_ehrhart_bound(dp, measured),
               check_bishop(dp, measured, fano_index(dp.p))]
    keys = [
        ["a_n_minus_2", "third_of_codim2_vol", "holds", "equality"],
        ["facet_index", "facet_normal", "feasible"],
        ["vol", "bound", "holds", "equality", "simplex_shape", "known_bound", "known_bound_holds"],
        ["index", "degree", "lhs", "bound", "holds", "sharp"],
    ]
    for record, names in zip(records, keys):
        plain = _plain(record)
        assert list(plain) == names
        assert list(plain.values()) == [_plain(x) for x in record]
