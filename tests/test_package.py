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

# library code that only tests call, each with the reason it stays
TEST_ONLY = {
    "determinantal.singular_locus_rank":
        "the acceptance criteria check the singular line with it",
    "determinantal.gd_surface_degree":
        "ROADMAP item 6 derives the degree it states",
    "secant.dim_formula_d3_max_k":
        "ROADMAP item 4's survey bounds the d = 3 formula with it",
    "determinantal.hb_substituted_moments":
        "the acceptance criteria check that the minors give the moments",
    "polyring.Polynomial.coefficient":
        "the one reader of a single coefficient of a polynomial",
    "determinantal.gd_jacobian_rank":
        "only singular_locus_rank reaches it",
    "determinantal._gd_minor_gradients":
        "only singular_locus_rank reaches it, through gd_jacobian_rank",
    "polyring.Polynomial.differentiate":
        "only singular_locus_rank reaches it, through _gd_minor_gradients",
}


def _refs(node) -> set[str]:
    """The names a statement uses: its names and attributes, and the dotted
    parts of its strings (the benchmark wraps functions by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _units(tree):
    """(owners, names used) per top-level statement, and per statement of
    a class body, whose owners are the class and that statement."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                yield {stmt, item}, _refs(item)
            yield {stmt}, set().union(*map(_refs, stmt.bases
                                            + stmt.decorator_list))
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
    # definition of the package, the tools or the benchmark, or exported,
    # or listed in TEST_ONLY with its reason; uses are matched by name
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tools", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts}
    package = {}
    for path, tree in trees.items():
        if path.parent == ROOT / "src" / "gaussmoments":
            module = importlib.import_module(f"gaussmoments.{path.stem}")
            package[path.stem] = list(_definitions(module, tree))
    # a use inside a TEST_ONLY definition is no production use, so what
    # only such definitions reach must be listed too
    test_only = {node for stem, defs in package.items()
                 for qualname, node in defs
                 if f"{stem}.{qualname}" in TEST_ONLY}
    units = [unit for tree in trees.values() for unit in _units(tree)
             if not unit[0] & test_only]
    unused, listed = [], set()
    for stem, defs in package.items():
        for qualname, node in defs:
            name = qualname.rpartition(".")[2]
            used = any(name in refs for owners, refs in units
                       if node not in owners)
            key = f"{stem}.{qualname}"
            if used or qualname in gaussmoments.__all__:
                continue
            if key in TEST_ONLY:
                listed.add(key)
            else:
                unused.append(key)
    assert unused == []
    # no entry outlives the code it names, or gains a caller
    assert listed == set(TEST_ONLY)

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
