"""Embedded fixture polytopes and the mixed scan corpus.

Vertex data is stored row-per-vertex.  The three transcribed matrices (q1,
q3, cx5) are frozen by hash in the test suite; q2 and the product
family are generated by free sums rather than transcribed.

Run ``python -m toricfano.fixtures`` to print the corpus in the native
polytope-file format.
"""

from .io import unparse
from .polytope import LatticePolytope, free_sum, hull, segment

# 7-dimensional Fano polytope with 12 vertices (non-symmetric, dual
# barycenter zero)
Q1_VERTICES = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0),
    (0, 0, -1, 0, 0, 0, -1),
    (0, -1, 0, 0, 0, 0, -1),
    (-1, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, -1, -1, -1, 2),
    (0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, -1),
)

# 8-dimensional Fano polytope with 16 vertices (non-symmetric, dual
# barycenter zero)
Q3_VERTICES = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 0, 0, 0, 0, -1),
    (0, -1, 0, 0, 0, 0, 0, -1),
    (-1, 0, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, -1, -1, -1, 0, 2),
    (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, 0, 0, -1),
)

# 5-dimensional Fano polytope whose dual has barycenter zero but fails the
# half-bound facet-point criterion on two facets
CX5_VERTICES = (
    (-1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0),
    (0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, -1),
    (1, 0, 1, 2, 0),
    (0, 1, 0, -2, 1),
)

# the half-bound criterion fails exactly at the dual facets of these two
CX5_BAD_DUAL_VERTICES = ((0, 0, 0, -1, 0), (0, 0, 0, 1, 0))

HEXAGON_VERTICES = (
    (1, 0),
    (0, 1),
    (1, 1),
    (-1, 0),
    (0, -1),
    (-1, -1),
)


def simplex_fano(n) -> LatticePolytope:
    """Fano polytope of n-dimensional projective space: conv{e_i, -sum e_i}."""
    pts = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    pts.append(tuple(-1 for _ in range(n)))
    return hull(pts)


def cross_polytope(n) -> LatticePolytope:
    pts = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        pts.append(e)
        pts.append(tuple(-x for x in e))
    return hull(pts)


def cube(n) -> LatticePolytope:
    from itertools import product

    return hull(list(product((-1, 1), repeat=n)))


def q1() -> LatticePolytope:
    return hull(Q1_VERTICES)


def q2() -> LatticePolytope:
    return free_sum(q1(), segment())


def q3() -> LatticePolytope:
    return hull(Q3_VERTICES)


def cx5() -> LatticePolytope:
    return hull(CX5_VERTICES)


def hexagon() -> LatticePolytope:
    return hull(HEXAGON_VERTICES)


def product_family(extra_factors=2) -> LatticePolytope:
    """q1 free-summed with segments (products with projective lines)."""
    p = q1()
    for _ in range(extra_factors):
        p = free_sum(p, segment())
    return p


def corpus_entries():
    """The mixed scan corpus: (name, vertex rows), in scan order.

    Cubes of dimension >= 2 are deliberately not smooth and exercise the
    failure-certificate path.
    """
    entries = [
        ("p1", simplex_fano(1).vertices),
        ("p2", simplex_fano(2).vertices),
        ("p3", simplex_fano(3).vertices),
        ("p4", simplex_fano(4).vertices),
        ("cross2", cross_polytope(2).vertices),
        ("cross3", cross_polytope(3).vertices),
        ("cross4", cross_polytope(4).vertices),
        ("cube2", cube(2).vertices),
        ("cube3", cube(3).vertices),
        ("cube4", cube(4).vertices),
        ("hexagon", HEXAGON_VERTICES),
        ("cx5", CX5_VERTICES),
        ("q1", Q1_VERTICES),
        ("q2", q2().vertices),
        ("q3", Q3_VERTICES),
    ]
    return entries


def corpus_text(entries=None):
    """The corpus rendered in the native polytope-file grammar."""
    if entries is None:
        entries = corpus_entries()
    return "# mixed fixture corpus\n" + unparse((name, len(rows[0]), rows) for name, rows in entries)


if __name__ == "__main__":
    print(corpus_text(), end="")
