"""The package's modules form layers: imports run at module level only, and
the import graph between the package's modules has no cycle, with
``diamond`` at the bottom above ``errors``.  Nothing outside the package and
the standard library is imported, as ``dependencies = []`` promises, and no
module imports ``dataclasses``, so the CLI starts without it or
``inspect``.  Only ``errors.Record`` defines equality, hashing and the
unvalidated construction path, which is called only where a theorem
guarantees the result.  The sweep's walk, in ``checks``, composes the public
path chain's own steps, the one ear clipper included; it gets its ballot
table only from the sweep, which builds it, and it builds no Dyck word.  No
``dyck`` function takes a table, and only the walk computes a key.  One
predicate says what an integer is, one guard checks a scalar argument's
range, a frieze's entries are typed by its constructor alone, messages show
values through one formatter, and the one cache is the enumeration's, which
callers can inspect through ``enumerate_all.cache_info``.  The frieze's row
recurrence is written once, in ``diamond._frieze_rows``, which builds
friezes and cycles and decides the glide from its own rows, with no
monodromy matrix; ``diagonal`` computes single columns only.  A closed
frieze is decided in one place, ``from_quiddity``: the frieze check
compares with it and reads no rows of its own, and the sweep's closure
check takes its word alone.  It and ``from_cycle``, which builds from a
cycle's members with no kernel, are the trusted frieze builders, and the
sweep verifies what ``from_cycle`` builds.  ``from_quiddity`` alone sets a
frieze's proof, ``_closed``, which the frieze check trusts.
Every function the benchmark's tracer wraps by name still exists.  Every
module parses as Python 3.10, the floor ``pyproject.toml`` declares, and
names the byte order of each ``int`` byte conversion, which has a default
only from 3.11."""

import ast
import graphlib
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from dyckfrieze import Diamond, checks, dyck
from dyckfrieze.checks import CheckResult

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dyckfrieze"


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _internal_imports(tree):
    """Package modules named by the relative imports anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_no_import_inside_a_function():
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{name}.{fn.name} imports at line {node.lineno}"
                    )


def test_import_graph_is_acyclic_with_diamond_above_errors():
    graph = {name: _internal_imports(tree) for name, tree in _trees().items()}
    assert graph["diamond"] == {"errors"}
    assert graph["errors"] == set()
    assert all(deps <= graph.keys() for deps in graph.values())
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_only_package_and_standard_library_imports():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level <= 1, f"{name} imports above the package"
                modules = [] if node.level else [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                # the value types are plain records: dataclasses would load
                # inspect, ast, dis and tokenize on every start
                assert top in sys.stdlib_module_names - {"dataclasses"}, (
                    f"{name} imports {module} at line {node.lineno}"
                )


def test_every_module_keeps_to_the_python_3_10_floor():
    # the byte order of int.from_bytes and int.to_bytes, and the length of
    # int.to_bytes, have defaults only from 3.11
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(), feature_version=(3, 10))
        for node in ast.walk(tree):
            method = getattr(getattr(node, "func", None), "attr", None)
            if isinstance(node, ast.Call) and method in ("from_bytes", "to_bytes"):
                named = {keyword.arg for keyword in node.keywords}
                assert len(node.args) >= 2 or "byteorder" in named, (
                    f"{path.name}:{node.lineno}"
                )
                assert node.args or named & {"bytes", "length"}, (
                    f"{path.name}:{node.lineno}"
                )


def test_package_import_loads_only_the_package():
    # a fresh interpreter with the usual startup: ``import dyckfrieze`` adds
    # no standard-library module to what the interpreter loads anyway
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import dyckfrieze; "
        "print(sorted(m for m in sys.modules.keys() - before "
        "if m != '__future__' and m.partition('.')[0] != 'dyckfrieze'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_cli_starts_without_dataclasses_or_inspect():
    # -I -S: a fresh interpreter that loads nothing the site would add
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import dyckfrieze.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def _callers(name):
    """(module, function) pairs whose bodies call ``name`` or ``x.name``."""
    found = set()
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        f = node.func
                        if getattr(f, "attr", getattr(f, "id", None)) == name:
                            found.add((module, fn.name))
    return found


def _trusted_builders():
    """For each receiver ``X`` of a call ``X._trusted(...)``, the (module,
    function) pairs that make it."""
    found = {}
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    f = getattr(node, "func", None)
                    if getattr(f, "attr", None) == "_trusted":
                        receiver = ast.unparse(f.value)
                        found.setdefault(receiver, set()).add((module, fn.name))
    return found


def test_trusted_paths_are_called_only_where_a_theorem_holds():
    assert _trusted_builders() == {
        "Diamond": {("diamond", "complete_diamond"), ("diamond", "minimal_cycle")},
        "Cycle": {("diamond", "minimal_cycle")},
        "DyckPath": {
            ("dyck", "all_paths"),
            ("dyck", "from_v_vector"),
            ("dyck", "vector_to_path"),
        },
        "FriezePattern": {("frieze", "from_quiddity"), ("frieze", "from_cycle")},
        "Triangulation": {
            ("triangulation", "realize"),
            ("triangulation", "path_to_triangulation"),
            ("triangulation", "rotate"),
            ("triangulation", "rotation_orbit"),
        },
    }
    # one checked profile per diamond vector, for the public map and the walk
    assert _callers("_reduced") == {
        ("dyck", "reduce_coordinate"),
        ("dyck", "_profile_of"),
    }
    assert _callers("_profile_of") == {("dyck", "vector_to_path"), ("checks", "_walk")}
    # the boundary for a caller's profile vector: the package derives its
    # own profiles, already checked, so it never goes through it
    assert _callers("from_v_vector") == set()
    # the walk does not check its vector, so only the sweep, which built
    # the vector itself, may call it, with a table it builds once per call;
    # the key is the sweep's format, so only the walk computes one, and no
    # dyck function takes a table
    assert _callers("_walk") == {("checks", "_sweep")}
    assert _callers("_ballot_rows") == {("checks", "run_checks")}
    assert list(inspect.signature(checks._walk).parameters) == ["u", "rows"]
    assert _callers("_key") == {("checks", "_walk")}
    assert not any(
        "rows" in inspect.signature(fn).parameters
        for fn in vars(dyck).values()
        if inspect.isfunction(fn) and fn.__module__ == dyck.__name__
    )
    assert _callers("_expand") == {
        ("enumeration", "expand"),
        ("enumeration", "_enumerate_all"),
    }


def test_the_row_recurrence_is_written_once():
    # the frieze's rows come from one kernel, which alone maps the product
    # and the difference over a row; diagonal is left for single columns
    trees = _trees()
    importers = {
        (module, alias.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name == "operator"
        or getattr(node, "module", None) == "operator" and alias.name in ("mul", "sub")
    }
    assert importers == {("diamond", "mul"), ("diamond", "sub")}
    users = {
        fn.name
        for fn in ast.walk(trees["diamond"])
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in ("mul", "sub")
    }
    assert users == {"_frieze_rows"}
    assert _callers("_frieze_rows") == {
        ("diamond", "minimal_cycle"),
        ("frieze", "from_quiddity"),
    }
    # the kernel decides the glide from its own rows, with no step matrix
    assert _callers("_monodromy_is_minus_identity") == set()
    assert not any(
        isinstance(fn, ast.FunctionDef) and fn.name == "_monodromy_is_minus_identity"
        for tree in trees.values()
        for fn in ast.walk(tree)
    )
    assert _callers("diagonal") == {
        ("dyck", "path_to_vector"),
        ("checks", "_sweep"),
    }


def test_a_closed_frieze_is_decided_by_from_quiddity_alone():
    # violations defers to from_quiddity and reads no rows of the kernel;
    # from_cycle builds from the members alone, checking nothing, so the
    # sweep compares what it builds with from_quiddity of the heads, which
    # also decides closure
    def names(tree):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)}

    trees = _trees()
    frieze = trees["frieze"]
    fns = {fn.name: fn for fn in ast.walk(frieze) if isinstance(fn, ast.FunctionDef)}
    named = names(fns["violations"])
    assert "from_quiddity" in named
    assert "_frieze_rows" not in named
    banned = {"from_quiddity", "_frieze_rows", "violations"}
    assert not names(fns["from_cycle"]) & banned
    imported = {
        alias.name
        for node in ast.walk(trees["checks"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"from_quiddity", "from_cycle"} <= imported
    assert not {"verify", "violations"} & imported


def test_the_frieze_proof_is_set_by_from_quiddity_alone():
    # violations accepts a pattern marked _closed without a look at its
    # rows, so only the one trusted frieze builder names the mark, to set
    # it, and violations reads it; the class default is False
    trees = _trees()
    named = set()
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if getattr(node, "value", None) == "_closed":
                        named.add((module, fn.name, "by name"))
                    if getattr(node, "attr", None) == "_closed":
                        named.add((module, fn.name, type(node.ctx).__name__))
    assert named == {
        ("frieze", "from_quiddity", "by name"),
        ("frieze", "violations", "Load"),
    }
    defaults = {
        (cls.name, ast.unparse(node))
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.Assign) and "_closed" in ast.unparse(node.targets[0])
    }
    assert defaults == {("FriezePattern", "_closed = False")}


def test_only_record_defines_the_value_protocol():
    # equality, hashing and unchecked construction are written once, in
    # errors.Record; DyckPath's builder takes a profile instead of its word
    protocol = {"__eq__", "__hash__", "_trusted"}
    defined = set()
    for module, tree in _trees().items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        names = {node.name}
                    elif isinstance(node, ast.Assign):
                        names = {getattr(t, "id", None) for t in node.targets}
                    else:
                        continue
                    defined |= {(module, cls.name, name) for name in names & protocol}
    assert defined == {
        ("errors", "Record", "_trusted"),
        ("dyck", "DyckPath", "_trusted"),
    }


def test_trusted_construction_takes_one_value_per_field():
    assert Diamond._trusted((1,), (2,)) == Diamond((1,), (2,))
    for values in [((1,),), ((1,), (2,), (3,))]:
        with pytest.raises(TypeError):
            Diamond._trusted(*values)
    with pytest.raises(TypeError):
        CheckResult._trusted("counts", True)


def test_walk_and_public_chain_share_each_formula():
    # the ballot term and the descent bisect, once each; the walk reads the
    # terms from a table
    assert _callers("comb") == {
        ("dyck", "_ballot_term"),
        ("dyck", "catalan"),
        ("enumeration", "ballot_count"),
    }
    assert _callers("_ballot_term") == {("dyck", "path_rank"), ("dyck", "_ballot_rows")}
    assert _callers("bisect_right") == {("dyck", "_descents")}
    assert _callers("_descents") == {("dyck", "to_lambda"), ("checks", "_walk")}
    # realize checks a descent encoding from outside; the others clip one
    # derived from a path already checked
    assert _callers("_clip") == {
        ("dyck", "path_to_vector"),
        ("triangulation", "realize"),
        ("triangulation", "path_to_triangulation"),
        ("checks", "_walk"),
    }


def test_sweep_builds_no_word():
    # nor a Triangulation: it compares rotation-aware int keys
    tree = _trees()["checks"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert "_walk" in defined | imported
    banned = {
        "vector_to_path",
        "path_rank",
        "path_to_triangulation",
        "DyckPath",
        "Triangulation",
        "rotate",
    }
    assert not imported & banned
    assert "triangulation" not in _internal_imports(tree)


def test_only_the_enumeration_is_cached():
    # a cache decorator is named once, on the function behind
    # enumerate_all.cache_info; any other would keep state out of sight
    places = []
    for module, tree in _trees().items():
        decorating = {
            node: fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for dec in fn.decorator_list
            for node in ast.walk(dec)
        }
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in ("lru_cache", "cache"):
                places.append((module, decorating.get(node)))
    assert places == [("enumeration", "_enumerate_all")]


def test_one_integer_predicate_refuses_bool():
    trees = _trees()
    bool_checks = [
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))
    ]
    predicate = next(
        fn
        for fn in ast.walk(trees["errors"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "is_int"
    )
    assert len(bool_checks) == 1, bool_checks
    module, line = bool_checks[0]
    assert module == "errors"
    assert predicate.lineno <= line <= predicate.end_lineno


def test_scalar_arguments_are_checked_by_one_range_guard():
    # a hand-written scalar check would call is_int outside these: the
    # guard, the formatter, the loops that check each entry of a sequence
    # or a frieze's rows, and rotate, whose shift may be any int
    assert _callers("is_int") == {
        ("errors", "int_in"),
        ("errors", "format_int"),
        ("diamond", "as_vector"),
        ("dyck", "from_v_vector"),
        ("frieze", "__init__"),
        ("frieze", "from_quiddity"),
        ("triangulation", "_normalize_pair"),
        ("triangulation", "realize"),
        ("triangulation", "rotate"),
    }


def test_frieze_entries_are_typed_by_the_constructor_alone():
    # FriezePattern refuses non-integers, so violations checks arithmetic:
    # its body neither calls nor passes on type or isinstance
    violations = next(
        fn
        for fn in ast.walk(_trees()["frieze"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "violations"
    )
    names = {node.id for node in ast.walk(violations) if isinstance(node, ast.Name)}
    assert not names & {"type", "isinstance"}


def test_messages_show_values_only_through_format_int():
    # repr of an int past 4,300 digits raises; format_int shows its length
    conversions = [
        (module, node.lineno)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    ]
    assert conversions == []


def test_every_name_the_benchmark_traces_is_a_function():
    # perfbench/spans.py looks each name up with getattr, so a removal
    # here would break its traced runs; read its table without importing it
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    assert traced
    for module, names in traced.items():
        namespace = importlib.import_module(f"dyckfrieze.{module}")
        for name in names:
            assert inspect.isfunction(getattr(namespace, name, None)), (
                f"dyckfrieze.{module}.{name}"
            )
    enumerate_all = importlib.import_module("dyckfrieze.enumeration").enumerate_all
    assert callable(enumerate_all.cache_info)
