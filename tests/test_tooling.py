"""Repository-wide checks on the library source."""

import ast
import gc
import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import tropclust

SOURCE = Path(tropclust.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    """Invariant checks raise InvariantViolation, so they survive ``python -O``."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _defined_names(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _used_names(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _public_methods(stmt) -> list:
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        f for f in stmt.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_")
    ]


def _attributes(node) -> set[str]:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _overrides_outside_base(module: str, cls: str, name: str) -> bool:
    """Whether a base class from outside the library defines the method,
    so that the base's own code may call it (``argparse`` calls
    ``error``)."""
    klass = getattr(importlib.import_module(f"tropclust.{module}"), cls)
    return any(
        not base.__module__.startswith("tropclust") and name in vars(base)
        for base in klass.__mro__[1:]
    )


def test_public_names_have_a_caller():
    """Every public top-level name of a library module, and every public
    method defined in a class body, is used outside its own definition:
    elsewhere in the library, in a demo, in the benchmark, or in the
    acceptance tests.  A name that only its own unit tests reach is not
    part of the pipeline.

    A top-level name counts when it is used by name.  A method counts only
    when some attribute use ``.name`` reaches it, so a local variable of
    the same name does not; an override of a method that a base class from
    outside the library defines counts as called by that base.  Attribute
    uses are matched by bare name: any ``.zero`` counts for every class
    that defines a ``zero``."""
    definitions = []  # (module, name)
    methods = []  # (module, class, method)
    used = set()
    attributes = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            own = _defined_names(stmt)
            public = _public_methods(stmt)
            definitions += [(path.stem, n) for n in own if not n.startswith("_")]
            methods += [(path.stem, stmt.name, f.name) for f in public]
            # a definition's or method's reference to itself (recursion) does not count
            for node in ast.iter_child_nodes(stmt):
                recursion = {node.name} if node in public else set()
                used |= _used_names(node) - own - recursion
                attributes |= _attributes(node) - recursion
    callers = [REPO / "tests" / "test_acceptance.py"]
    callers += sorted((REPO / "demos").glob("*.py"))
    callers += sorted((REPO / "perfbench").glob("*.py"))
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _used_names(tree)
        attributes |= _attributes(tree)
    unused = [f"{m}.py:{n}" for m, n in definitions if n not in used]
    unused += [
        f"{m}.py:{c}.{f}"
        for m, c, f in methods
        if f not in attributes and not _overrides_outside_base(m, c, f)
    ]
    assert sorted(unused) == []


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "deque"}


def _is_mutable_container(value) -> bool:
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def test_library_binds_no_module_level_mutable_container():
    """A module-level dict, list or set would be state that every caller in
    the process shares, such as a memo table that only grows; results must
    not depend on call history."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{stmt.lineno}"
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and _is_mutable_container(stmt.value)
        ]
    assert found == []


def test_library_has_no_unused_imports_or_orphaned_private_names():
    """Every name a library module imports is used in that module, and
    every private top-level name is referenced somewhere in the library
    outside its own definition, so deleting a caller leaves no orphans."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
    }
    found = []
    used_anywhere = set()
    private = []  # (module, name)
    for module, tree in trees.items():
        used_here = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            own = _defined_names(stmt)
            used_here |= _used_names(stmt)
            used_anywhere |= _used_names(stmt) - own
            private += [(module, n) for n in own if n.startswith("_")]
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{module}: import {a.asname or a.name.partition('.')[0]}"
                    for a in stmt.names
                    if (a.asname or a.name.partition(".")[0]) not in used_here
                ]
    found += [f"{m}: {n}" for m, n in private if n not in used_anywhere]
    assert sorted(found) == []


def _unbounded_caches(tree) -> list:
    """Lines that use ``functools.cache`` or ``lru_cache(maxsize=None)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if getattr(node.value, "id", None) == "functools":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if name == "lru_cache" and any(
                isinstance(v, ast.Constant) and v.value is None for v in size
            ):
                lines.append(node.lineno)
    return lines


def _cached_functions(tree) -> list:
    """The functions decorated with ``lru_cache``, bare or called."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
        if "lru_cache" in _used_names(d)
    ]


# The library's process caches, one per per-N table or verdict a workload
# reads warm; adding or dropping one is a reviewed edit here.
_PROCESS_CACHES = {
    "atlas.py": ["_walk_plan"],
    "basis.py": ["_split_table", "_positive_piece"],
    "jsonio.py": ["_entry_heads"],
    "laminations.py": ["_compiled"],
    "weighted_graphs.py": ["_tables"],
}


def test_library_caches_are_bounded():
    """Every process cache has a ``maxsize``, so memory stays bounded in a
    long batch run, and the caches are exactly the six listed."""
    found, cached = [], {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _unbounded_caches(tree)]
        if names := _cached_functions(tree):
            cached[path.name] = names
    assert found == []
    assert cached == _PROCESS_CACHES


def test_chart_lists_keep_no_memory_once_dropped():
    """``triangulations`` and ``mutation_words`` build a Catalan-sized
    result per call and keep none of it in a process cache: once the
    1,430 charts of the 10-gon are dropped, traced memory is back within
    64 KiB of where it started."""
    from tropclust.atlas import mutation_words
    from tropclust.polygon import triangulations

    # a first call at a small size sets up what any call needs
    triangulations(5), mutation_words(2)
    gc.collect()
    tracemalloc.start()
    try:
        triangulations(10)
        mutation_words(7)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024, held


_RECORD_METHODS = {"_trusted", "__setattr__", "__delattr__"}


def test_only_the_value_base_freezes_records():
    """No library class but ``values.Value`` defines ``_trusted``,
    ``__setattr__`` or ``__delattr__``: every frozen record type is built,
    frozen and wrapped unchecked by the one base."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{f.lineno} {node.name}.{f.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and (path.name, node.name) != ("values.py", "Value")
            for f in node.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name in _RECORD_METHODS
        ]
    assert found == []


_FIELD_CHECKS = {"_is_int", "_is_number", "_normalize"}


def _int_type_tests(tree) -> list:
    """Lines that call ``isinstance(x, int)`` or ``isinstance(x, (..., int, ...))``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:2]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(getattr(k, "id", None) == "int" for k in kinds):
                lines.append(node.lineno)
    return lines


def test_only_values_checks_what_a_field_may_hold():
    """The rules for what a field may hold live in ``values`` alone: no other
    library module calls ``isinstance(x, int)``, which lets ``True``
    through, or defines its own ``_is_int``, ``_is_number`` or
    ``_normalize``.  Exact-type tests such as ``type(x) is int`` refuse
    bools already and are allowed."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "values.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} isinstance(..., int)" for line in _int_type_tests(tree)]
        found += [
            f"{path.name}:{stmt.lineno} defines {name}"
            for stmt in tree.body
            for name in sorted(_defined_names(stmt) & _FIELD_CHECKS)
        ]
    assert found == []


_LATTICE_MODULES = ("polygon", "weighted_graphs", "laminations", "polytopes")
_X_SIDE_MODULES = {"atlas", "laurent", "basis"}


def _relative_imports(tree) -> list:
    """(line, module) for each library module a relative import names:
    ``from .m import x`` names m, and ``from . import m`` names m."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append((node.lineno, node.module.partition(".")[0]))
            else:
                found += [(node.lineno, a.name) for a in node.names]
    return found


def test_lattice_modules_import_nothing_from_the_x_side():
    """The lattice side (``polygon``, ``weighted_graphs``, ``laminations``,
    ``polytopes``) compiles its charts from the tropical exchange relation
    alone, so none of its modules has a relative import from the x side
    (``atlas``, ``laurent``, ``basis``)."""
    found = []
    for name in _LATTICE_MODULES:
        path = SOURCE / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{line} imports {module}"
            for line, module in _relative_imports(tree)
            if module in _X_SIDE_MODULES
        ]
    assert found == []


def test_chart_oracle_shares_no_code_with_the_chart_compiler():
    """``tests/chart_oracle.py`` is the reference that the compiled charts
    of ``laminations`` are checked against, with an exit search of its own,
    so neither it nor a test module it imports takes anything from
    ``tropclust.laminations``."""
    found, seen, todo = [], set(), ["chart_oracle"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        path = REPO / "tests" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n == "tropclust.laminations"]
            todo += [n for n in names if (REPO / "tests" / f"{n}.py").exists()]
    assert found == []


# Modules that ``dataclasses`` pulls in for its code generation; each
# fresh CLI process would compile or load them before doing any work.
_START_UP_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _modules_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` of a fresh interpreter, run with the
    library on its path, once ``statement`` has run."""
    path = os.pathsep.join(filter(None, (str(SOURCE.parent), os.environ.get("PYTHONPATH"))))
    code = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_cli_start_up_loads_no_code_generation_modules():
    """``import tropclust, tropclust.cli`` adds none of ``dataclasses``,
    ``inspect``, ``ast``, ``dis`` or ``tokenize`` to what a bare
    interpreter loads: the value types are plain slotted classes."""
    added = _modules_after("import tropclust, tropclust.cli") - _modules_after("pass")
    assert sorted(added & set(_START_UP_HEAVY)) == []
