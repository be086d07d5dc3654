"""The package's public surface, and the README's library example."""

import ast
import importlib
from pathlib import Path

import gaussmoments
from gaussmoments import moments as M
from gaussmoments import recovery as R
from gaussmoments.rng import SplitMix64
from util import rand_mixture


def test_every_exported_name_resolves():
    missing = [name for name in gaussmoments.__all__
               if not hasattr(gaussmoments, name)]
    assert missing == []
    assert len(set(gaussmoments.__all__)) == len(gaussmoments.__all__)


def test_recover_returns_the_mixture_and_no_result_type():
    # recover returns the MixtureParams it verified; there is no wrapper
    # with a residual that could only ever be 0
    assert "RecoveryResult" not in gaussmoments.__all__
    assert not hasattr(gaussmoments, "RecoveryResult")
    assert not hasattr(R, "RecoveryResult")
    p = rand_mixture(SplitMix64(5), 3, 2, distinct_first=True)
    res = R.recover(M.mixture_moments(p, 3), p.components[0].mean[0],
                    p.components[1].mean[0])
    assert type(res) is M.MixtureParams and res == p


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    exec(example.split("```", 1)[0], {})


ROOT = Path(__file__).resolve().parents[1]


def _refs(*nodes) -> tuple[set[str], set[str]]:
    """The names some statements use bare and as an attribute: their
    names, and their attribute accesses (obj.name); a dotted string (the
    benchmark wraps functions by name) uses its first part bare and the
    others as attributes."""
    names, attrs = set(), set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            head, *tail = sub.value.split(".")
            names.add(head)
            attrs.update(tail)
    return names, attrs


def test_a_method_is_used_only_as_an_attribute():
    # a local variable named like a method does not use it; an attribute
    # access or a dotted string does
    names, attrs = _refs(ast.parse(
        "below = rows >= 3\nrng.next_u64()\nwrap('secant.rank_mod_p')"))
    assert "below" in names and "below" not in attrs
    assert {"next_u64", "rank_mod_p"} <= attrs
    assert "secant" in names and "secant" not in attrs


def _units(tree):
    """(owners, (bare names, attributes) used) per top-level statement,
    and per statement of a class body, whose owners are the class and that
    statement."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                yield {stmt, item}, _refs(item)
            yield {stmt}, _refs(*stmt.bases, *stmt.decorator_list)
        else:
            yield {stmt}, _refs(stmt)


def _definitions(module, tree):
    """Each module-level def and class, and each public method that no base
    class outside the package defines (the base calls an override)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            bases = getattr(module, stmt.name).__mro__[1:]
            for item in stmt.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not any(hasattr(b, item.name) for b in bases)):
                    yield f"{stmt.name}.{item.name}", item


def _functions(module, tree):
    """(qualified name, name its calls use, def, 1 if a method else 0) of
    each module-level function and each method that no base class
    defines (the base calls an override).  Calls to a class pass the
    arguments of its __init__."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt.name, stmt, 0
        if isinstance(stmt, ast.ClassDef):
            bases = getattr(module, stmt.name).__mro__[1:]
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield f"{stmt.name}.__init__", stmt.name, item, 1
                elif not any(hasattr(b, item.name) for b in bases):
                    yield f"{stmt.name}.{item.name}", item.name, item, 1


def _defaulted(fn, bound: int):
    """(argument position, name) of each parameter of fn that has a
    default, with the first ``bound`` parameters bound by the call (self);
    the position of a keyword-only one is None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - bound, a.arg) for i, a in enumerate(positional)
           if i >= first]
    out += [(None, a.arg) for a, v in zip(args.kwonlyargs, args.kw_defaults)
            if v is not None]
    return out


def _callee(call):
    """The name a call uses: f(...) or obj.f(...)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _passes(call, pos, name) -> bool:
    """Whether the call passes the parameter, at argument position ``pos``
    (None: keyword-only), by keyword, by position or through * or **."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if pos is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or pos < len(call.args))


def test_no_library_code_only_tests_call():
    # every def, class and public method of the package is used by another
    # definition of the package, the tools or the benchmark, or exported;
    # uses are matched by name, and a method's only as an attribute
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tools", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts}
    package = {}
    for path, tree in trees.items():
        if path.parent == ROOT / "src" / "gaussmoments":
            module = importlib.import_module(f"gaussmoments.{path.stem}")
            package[path.stem] = list(_definitions(module, tree))
    units = [unit for tree in trees.values() for unit in _units(tree)]
    unused = []
    for stem, defs in package.items():
        for qualname, node in defs:
            _, dot, name = qualname.rpartition(".")
            used = any(name in attrs or not dot and name in names
                       for owners, (names, attrs) in units
                       if node not in owners)
            if not used and qualname not in gaussmoments.__all__:
                unused.append(f"{stem}.{qualname}")
    assert unused == []

    # every defaulted parameter of a function that is not exported is
    # passed by some call: a default that no call overrides is a constant
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "gaussmoments":
            continue
        module = importlib.import_module(f"gaussmoments.{path.stem}")
        for qualname, called, fn, bound in _functions(module, tree):
            if qualname in gaussmoments.__all__:  # public API
                continue
            mine = [c for c in calls if _callee(c) == called]
            for pos, name in _defaulted(fn, bound):
                if not any(_passes(c, pos, name) for c in mine):
                    unpassed.append(f"{path.stem}.{qualname}({name}=)")
    assert unpassed == []
