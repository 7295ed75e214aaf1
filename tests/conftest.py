import pytest

from toricfano import fixtures
from toricfano.io import ScanOptions, parse, scan
from toricfano.polytope import dual
from toricfano.symmetry import automorphism_group


@pytest.fixture(scope="session")
def p2_pair():
    return dual(fixtures.simplex_fano(2))


@pytest.fixture(scope="session")
def p3_pair():
    return dual(fixtures.simplex_fano(3))


@pytest.fixture(scope="session")
def cross2_pair():
    return dual(fixtures.cross_polytope(2))


@pytest.fixture(scope="session")
def cross3_pair():
    return dual(fixtures.cross_polytope(3))


@pytest.fixture(scope="session")
def hexagon_pair():
    return dual(fixtures.hexagon())


@pytest.fixture(scope="session")
def cx5_pair():
    return dual(fixtures.cx5())


@pytest.fixture(scope="session")
def q1_pair():
    return dual(fixtures.q1())


@pytest.fixture(scope="session")
def q1_groups(q1_pair):
    return automorphism_group(q1_pair)


@pytest.fixture(scope="session")
def q2_pair():
    return dual(fixtures.q2())


@pytest.fixture(scope="session")
def q2_groups(q2_pair):
    return automorphism_group(q2_pair)


@pytest.fixture(scope="session")
def corpus_file():
    return parse(fixtures.corpus_text())


@pytest.fixture(scope="session")
def corpus_reports(corpus_file):
    return scan(corpus_file, ScanOptions(conjectures=True, ehrhart_max_dim=5))
