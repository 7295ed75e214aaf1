"""Checks on the package source itself."""

import ast
import cProfile
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import toricfano
from toricfano import fixtures
from toricfano.cli import main
from toricfano.conjectures import check_conj11
from toricfano.criteria import full_verdict, lct
from toricfano.linalg import dot
from toricfano.measures import (
    boundary_volume,
    count_lattice_points,
    count_lattice_points_bruteforce,
    ehrhart,
    volume_and_barycenter,
)
from toricfano.polytope import dual, free_sum, is_smooth_fano, segment
from toricfano.symmetry import automorphism_group, fixed_space, trivial_group, vertex_sum

SOURCES = sorted(Path(toricfano.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "polytope.py" for path in SOURCES)


def test_no_assert_invariants():
    """Runtime invariants raise named exceptions, so ``python -O`` keeps them."""
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert offenders == []


def test_no_unused_imports():
    """Every name a module imports is referenced in it (``__init__`` re-exports)."""
    offenders = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert offenders == []


def test_no_dataclasses():
    """Records are named tuples: importing ``dataclasses`` pulls ``inspect`` into every process start."""
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_cli_import_skips_heavy_modules():
    """A fresh ``import toricfano.cli`` loads none of ``dataclasses``, ``inspect`` and ``csv``
    (``csv`` only when ``emit`` writes CSV)."""
    code = "import sys; before = set(sys.modules); import toricfano.cli; print(' '.join(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(Path(toricfano.__file__).parent.parent))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "toricfano.cli" in loaded.stdout.split()
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(loaded.stdout.split())


def test_no_nested_functions():
    """No ``def`` inside a function: a recursive closure keeps its frame alive
    in a reference cycle.  Lambdas are allowed."""
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [
                    f"{path.name}:{inner.lineno}: {inner.name} in {node.name}"
                    for inner in ast.walk(node)
                    if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    assert offenders == []


def test_no_floats():
    """Every verdict is exact: no float literal and no ``float(`` call."""
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                offenders.append(f"{path.name}:{node.lineno}: float(")
    assert offenders == []


def test_all_is_what_init_imports():
    """``toricfano.__all__`` lists each name ``__init__`` imports, once."""
    tree = ast.parse(Path(toricfano.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(toricfano.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)


CACHES = {"lru_cache", "cache"}


def _cache_node(node):
    """The ``lru_cache``/``cache`` name a decorator or reference is, else None."""
    node = node.func if isinstance(node, ast.Call) else node
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return node if name in CACHES and isinstance(node, (ast.Name, ast.Attribute)) else None


def test_caches_are_pinned():
    """Only ``volume_and_barycenter`` is memoized, and only for the tracer's ``CACHED``.

    A scan reads its measures from one ``cone_measures`` pass per entry, so
    this cache stays only because ``benchmarks/tracer.py`` reads its
    ``cache_info()``.  A cache keeps results alive across entries and skews
    the traced layer times, so a new one edits this list and is logged in
    ``CHANGES.md``.
    """
    cached, stray = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in filter(None, map(_cache_node, node.decorator_list)):
                    decorators.add(dec)
                    cached.append(f"{path.stem}.{node.name}")
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _cache_node(node) is node and node not in decorators]
    assert cached == ["measures.volume_and_barycenter"]
    assert stray == []


def test_no_private_imports_across_modules():
    """No module imports a ``_``-prefixed name from a sibling: a shared helper is public."""
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("toricfano")):
                offenders += [f"{path.name}:{node.lineno}: {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_ehrhart_cap_read_only_by_io_and_cli():
    """The scan's Ehrhart cap is decided in ``io`` (set from ``cli``), not again in a check."""
    readers = [path.name for path in SOURCES if "ehrhart_max_dim" in path.read_text()]
    assert readers == ["cli.py", "io.py"]


def test_insertion_hull_and_counter_are_integer_only():
    """The insertion hull, its ridge crossings, the pivot of its eliminations and the lattice-point
    counter name no ``Fraction``: normals, incidences, inverses and slice bounds stay ``int``."""
    walk = {"polytope.py": {"hull", "_insertion_hull", "_facet", "_ridge_inverses", "_cross"},
            "linalg.py": {"bareiss_pivot"},
            "measures.py": {"count_lattice_points", "_count_level"}}
    found, offenders = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in walk.get(path.name, ()):
                found.add(node.name)
                offenders += [f"{path.name}:{inner.lineno}: {node.name}" for inner in ast.walk(node)
                              if getattr(inner, "id", getattr(inner, "attr", None)) == "Fraction"]
    assert found == set().union(*walk.values())
    assert offenders == []


def _scopes_of(match):
    """"module.function" of each AST node in ``src/`` that ``match`` accepts, in source order."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if match(node):
                scope = next((f.name for f in scopes if f.lineno <= node.lineno <= f.end_lineno), "<module>")
                found.append(f"{path.stem}.{scope}")
    return found


def test_generator_matrices_read_only_by_fixed_space():
    """Every group holds its permutations of vert(Q), so no ``src/`` code reads ``.generators`` but
    ``symmetry.fixed_space``, the stacked-kernel check of the verdict's orbit-sum basis.  A new reader
    fails here, not only on the fixture corpus that counts the reads at run time."""
    readers = _scopes_of(lambda node: isinstance(node, ast.Attribute) and node.attr == "generators")
    assert readers == ["symmetry.fixed_space"]


def _callers(name):
    """"module.function" of each call of ``name`` in ``src/``, bare or as an attribute."""
    return _scopes_of(lambda node: isinstance(node, ast.Call)
                      and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_facet_inverses_formed_only_by_the_hull_and_vertex_cones():
    """``hull`` gives every facet of n vertices off the origin its ``Facet.inverse``, so smoothness and the
    automorphism search read it and never invert or take a determinant again: ``inverse_columns`` is
    called where the hull forms the inverses and where ``vertex_cones`` inverts a P built by ``hull``,
    and no ``src/`` code calls ``det``."""
    assert _callers("inverse_columns") == ["measures.vertex_cones", "polytope._ridge_inverses"]
    assert _callers("det") == []


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _defined():
    """{code object: "module.name" or "module.Class.name"} of each top-level function and method in ``src/``."""
    out = {}
    for info in pkgutil.iter_modules(toricfano.__path__):
        module = importlib.import_module(f"toricfano.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
            for attr, member in members:
                fn = getattr(member, "__func__", getattr(member, "fget", getattr(member, "__wrapped__", member)))
                if isinstance(fn, types.FunctionType):
                    out[fn.__code__] = ".".join(filter(None, (info.name, name, attr)))
    return out


def _run_the_cli_and_acceptance_imports(tmp_path):
    corpus, bad = tmp_path / "corpus.txt", tmp_path / "bad.txt"
    corpus.write_text(fixtures.corpus_text())
    bad.write_text("polytope a\n")
    for argv in (["scan", corpus, "--conjectures", "--out", tmp_path / "r.json"],
                 ["scan", corpus, "--conjectures", "--format", "csv", "--out", tmp_path / "r.csv"],
                 ["check", corpus, "--name", "cx5"],
                 ["dual", corpus, "--name", "cx5"]):
        assert main([str(a) for a in argv]) == 0
    with pytest.raises(SystemExit):
        main(["check", str(bad)])
    # one call of each name tests/test_acceptance.py imports
    for polytope in (fixtures.simplex_fano(2), fixtures.cross_polytope(2), fixtures.cube(2), fixtures.q1(),
                     fixtures.q2(), fixtures.q3(), fixtures.cx5(), fixtures.product_family(1)):
        is_smooth_fano(polytope)
    dp = dual(fixtures.hexagon())
    dot((1, 2), (3, 4))
    for measure in (boundary_volume, count_lattice_points, count_lattice_points_bruteforce, ehrhart, volume_and_barycenter):
        measure(dp.p)
    groups = automorphism_group(dp)
    assert full_verdict(dp).alpha == full_verdict(dp, groups=groups).lct == lct(dp, trivial_group(2)) * 2
    check_conj11(dp)
    fixed_space(groups[0])
    vertex_sum(dp.q)
    free_sum(fixtures.simplex_fano(2), segment())


# tracer.TARGETS names these, and nothing else keeps them: the benchmark change that retargets the
# tracer deletes them (ROADMAP item 1)
TRACED = {
    "criteria.alpha_invariant", "criteria.tian_condition", "linalg.det", "linalg.matrix_inverse_unimodular",
    "linalg.solve_exact", "measures.codim2_volume", "measures.coefficient_of_asymmetry", "polytope.faces_codim2",
    "polytope.restrict_to_subspace",
}
UNREACHED = {
    **{name: "tracer.TARGETS" for name in TRACED},
    "io._analyze_star": "benchmarks/tracer.py wraps it in each forked pool worker",
    "linalg.rank": "called only by polytope.faces_codim2 and restrict_to_subspace (tracer.TARGETS)",
    "polytope.SubspacePolytope.ambient_vertices": "the record restrict_to_subspace returns (tracer.TARGETS)",
    "polytope.WithCache.__ne__": "tuple's own != would read the cache field (tests/test_records.py)",
}


def test_every_function_is_reached(tmp_path, capsys):
    """A CLI scan of the fixture corpus (JSON and CSV, with conjectures), ``check``, ``dual``, a parse
    error and one call of each acceptance import reach every top-level function and method in
    ``src/`` but the named ``UNREACHED``; a stale entry fails too."""
    assert TRACED <= set(_benchmark_tracer().NAMES)
    volume_and_barycenter.cache_clear()    # a cached call would not reach the function
    profile = cProfile.Profile()
    profile.enable()
    try:
        _run_the_cli_and_acceptance_imports(tmp_path)
    finally:
        profile.disable()
    reached = {stat.code for stat in profile.getstats()}
    assert {name for code, name in _defined().items() if code not in reached} == set(UNREACHED)
