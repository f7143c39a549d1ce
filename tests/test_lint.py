"""Static checks on the package source that need no linter installed."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import padic_forms

SRC = Path(padic_forms.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict:
    """Name bound by each import statement -> its line, skipping
    statements marked `# noqa: F401`."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                continue
            name = alias.asname or alias.name.split(".")[0]
            out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Every name read in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"engine.py", "flat.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    unused = {name: line for name, line in _imported(tree, text.splitlines()).items()
              if name not in _used(tree)}
    assert not unused, f"{path.name}: imported but never used: {unused}"


# Every `assert` in the package, counted by module and enclosing function.
# `python -O` strips asserts, so an assert may only guard against a
# caller's misuse: argument-shape checks and preconditions, and ring.py's
# self-checks of its constants.  A check that carries a verdict raises a
# library error instead.  Add an entry here only after reviewing the new
# assert against that rule.
ASSERT_ALLOWLIST = {
    # argument shapes and preconditions
    ("forms.py", "AdditiveForm.__init__"): 3,
    ("forms.py", "AdditiveForm.evaluate"): 1,
    ("oracle.py", "PowerValueSet.root_of"): 1,
    ("ring.py", "F4.__init__"): 1,
    ("ring.py", "mul_pair"): 1,
    ("ring.py", "pow_pair"): 1,
    ("ring.py", "inv_unit_pair"): 1,
    ("ring.py", "RingElem.__init__"): 1,
    ("ring.py", "RingElem.reduce_to"): 1,
    # K >= 1; its two self-checks of the reps and roots raise SelfCheckError
    ("ring.py", "multiplier_set"): 1,
}


def _scoped(tree: ast.Module):
    """(qualified name of the innermost enclosing function or class, or
    `<module>`, node) for every node of the module but the definitions."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                yield from walk(child, scope + (child.name,))
            else:
                yield ".".join(scope) or "<module>", child
                yield from walk(child, scope)

    return walk(tree, ())


def _asserts(tree: ast.Module) -> Counter:
    """Qualified name of each enclosing function (or `<module>`) -> the
    number of asserts in its body outside nested functions and classes."""
    return Counter(scope for scope, node in _scoped(tree) if isinstance(node, ast.Assert))


def test_every_assert_is_reviewed():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for name, count in _asserts(ast.parse(path.read_text())).items():
            found[path.name, name] = count
    unreviewed = {k: v for k, v in found.items() if ASSERT_ALLOWLIST.get(k) != v}
    assert not unreviewed, f"asserts not in ASSERT_ALLOWLIST (module, function): {unreviewed}"
    gone = sorted(set(ASSERT_ALLOWLIST) - set(found))
    assert not gone, f"ASSERT_ALLOWLIST names asserts that no longer exist: {gone}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Definitions kept with no reference in src/ or perfbench/: an argparse
# hook that argparse calls by name.  Add an entry here only after
# reviewing why the definition must stay.
UNREFERENCED_ALLOWLIST = {"cli._Parser.error"}


def _definitions(tree: ast.Module) -> list:
    """(qualified name, node, whether it is a method) of every function,
    class and method, nested ones included."""
    out = []

    def walk(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                is_class = isinstance(child, ast.ClassDef)
                out.append((".".join(scope + (child.name,)), child, in_class and not is_class))
                walk(child, scope + (child.name,), is_class)
            else:
                walk(child, scope, in_class)

    walk(tree, (), False)
    return out


def _references(tree: ast.Module) -> list:
    """(line, name, whether it is a bare name) of every name read,
    attribute and string constant; strings cover `__all__` and names
    looked up with getattr."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.lineno, node.id, True))
        elif isinstance(node, ast.Attribute):
            out.append((node.lineno, node.attr, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.lineno, node.value, False))
    return out


def test_every_definition_is_used():
    # code that nothing outside its own tests uses is deleted, not kept;
    # dunder methods are called by Python itself and are not checked.  A
    # method is reached through an attribute or a string, so a bare name
    # that shares its spelling (a local variable, say) does not count
    package = sorted(SRC.glob("*.py"))
    paths = package + sorted(PERFBENCH.glob("*.py"))
    assert PERFBENCH / "spans.py" in paths
    trees = {p: ast.parse(p.read_text()) for p in paths}
    refs = {p: _references(tree) for p, tree in trees.items()}
    unused = set()
    for path in package:
        for name, node, method in _definitions(trees[path]):
            short = node.name
            if short.startswith("__") and short.endswith("__"):
                continue
            if not any(ref == short and not (method and bare)
                       and (p != path or not node.lineno <= line <= node.end_lineno)
                       for p, found in refs.items() for line, ref, bare in found):
                unused.add(f"{path.stem}.{name}")
    assert unused <= UNREFERENCED_ALLOWLIST, f"defined but never used: {unused - UNREFERENCED_ALLOWLIST}"
    gone = UNREFERENCED_ALLOWLIST - unused
    assert not gone, f"UNREFERENCED_ALLOWLIST names definitions now in use or gone: {gone}"


# Every import of a padic_forms.oracle name in the package, as (module,
# enclosing function or `<module>`, name).  The FFT oracle is a second
# decision procedure kept as the tests' reference; these are the users
# that still have to move before it can leave the package.  Do not add one.
ORACLE_USERS = {
    ("__init__.py", "<module>", "OracleDecision"),
    ("__init__.py", "<module>", "decide_isotropy_exhaustive"),
    ("__init__.py", "<module>", "power_value_set"),
    ("__init__.py", "<module>", "primitive_zero_mod"),
    ("artifacts.py", "agreement_experiment", "decide_isotropy_exhaustive"),
    ("cli.py", "<module>", "MAX_ORACLE_M"),
    ("cli.py", "<module>", "decide_isotropy_exhaustive"),
    ("cli.py", "<module>", "primitive_zero_mod"),
    ("solver.py", "<module>", "decide_isotropy_exhaustive"),
}


def _oracle_imports(tree: ast.Module) -> set:
    """(enclosing function or `<module>`, name) of every name imported from
    the oracle module, `from . import oracle` included."""
    out = set()
    for scope, node in _scoped(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".oracle", "padic_forms.oracle"):
                out.update((scope, a.name) for a in node.names)
            elif module in (".", "padic_forms"):
                out.update((scope, a.name) for a in node.names if a.name == "oracle")
        elif isinstance(node, ast.Import):
            out.update((scope, a.name) for a in node.names if a.name == "padic_forms.oracle")
    return out


def test_oracle_users_are_reviewed():
    found = {(path.name, where, name) for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"
             for where, name in _oracle_imports(ast.parse(path.read_text()))}
    new = sorted(found - ORACLE_USERS)
    assert not new, f"imports from oracle not in ORACLE_USERS (module, function, name): {new}"
    gone = sorted(ORACLE_USERS - found)
    assert not gone, f"ORACLE_USERS names imports that no longer exist: {gone}"


# Every function in the package that calls `bin()`, as (module, enclosing
# function): the left-to-right power loops.  `ring.pow_pair` is the one
# power on int pairs, and `oracle._pow_vec` its numpy copy, which the
# brute-force check of the power-value tables needs.  Call `pow_pair`
# rather than add one.
POWER_LOOPS = {
    ("ring.py", "pow_pair"),
    ("oracle.py", "_pow_vec"),
}


def _bin_callers(tree: ast.Module) -> set:
    """The enclosing function (or `<module>`) of every call of `bin`."""
    return {scope for scope, node in _scoped(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "bin"}


def test_power_loops_are_reviewed():
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _bin_callers(ast.parse(path.read_text()))}
    new = sorted(found - POWER_LOOPS)
    assert not new, f"calls of bin() not in POWER_LOOPS (module, function): {new}"
    gone = sorted(POWER_LOOPS - found)
    assert not gone, f"POWER_LOOPS names functions that no longer call bin(): {gone}"


# Every function in the package that calls itself, as (module, qualified
# name).  A call chain deeper than the interpreter's recursion limit (1000
# frames by default) raises RecursionError, so a recursive reader turns a
# deep but well-formed document into a traceback and a verdict-like exit
# code; the certificate reader keeps an explicit stack instead.  Add an
# entry here only after reviewing what bounds the new recursion's depth.
SELF_CALLERS: set = set()


def _self_calls(tree: ast.Module) -> set:
    """Qualified name of every function with a call of itself in its own
    body: by its bare name, or as a method through `self` or `cls`."""
    out = set()
    for scope, node in _scoped(tree):
        if not isinstance(node, ast.Call):
            continue
        name = scope.rsplit(".", 1)[-1]
        func = node.func
        if isinstance(func, ast.Name) and func.id == name or (
                isinstance(func, ast.Attribute) and func.attr == name
                and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
            out.add(scope)
    return out


def test_self_callers_are_reviewed():
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where in _self_calls(ast.parse(path.read_text()))}
    new = sorted(found - SELF_CALLERS)
    assert not new, f"functions that call themselves, not in SELF_CALLERS: {new}"
    gone = sorted(SELF_CALLERS - found)
    assert not gone, f"SELF_CALLERS names functions that no longer call themselves: {gone}"


# Every use of `normalize` and of the rotation's scale `scale_log` in the
# package, as (module, enclosing function, class or `<module>`, name):
# definitions, imports, references and string constants (the slot).  The
# deciders neither rotate levels nor read a scale: they decide the root
# form.  `normalize`, and the scale `_reframe` writes for it, stay only
# because the benchmark harness names `normalize` (perfbench/spans.py
# wraps it in solver, perfbench/worker.py imports it from the package);
# the contraction search and `map_to_origin` read the scale only to
# refuse a rotated frame.  They leave with the benchmark's refresh.  Do
# not add one.
ROTATION_USERS = {
    ("__init__.py", "<module>", "normalize"),
    ("forms.py", "<module>", "normalize"),
    ("forms.py", "AdditiveForm", "scale_log"),
    ("forms.py", "_reframe", "scale_log"),
    ("flat.py", "search_certificate", "scale_log"),
    ("solver.py", "<module>", "normalize"),
    ("witness.py", "map_to_origin", "scale_log"),
}


def _rotation_uses(tree: ast.Module) -> set:
    """(enclosing function, class or `<module>`, name) of every
    definition, import, name, attribute or string constant that is
    `normalize` or `scale_log`."""
    names = {"normalize", "scale_log"}
    out = set()
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in names:
            out.add((scope, name))
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name in names:
                scope = node.name if isinstance(node, ast.FunctionDef) else "<module>"
                out.add((scope, child.name))
    return out


def test_rotation_users_are_reviewed():
    found = {(path.name, where, name) for path in sorted(SRC.glob("*.py"))
             for where, name in _rotation_uses(ast.parse(path.read_text()))}
    new = sorted(found - ROTATION_USERS)
    assert not new, f"uses of normalize or scale_log not in ROTATION_USERS: {new}"
    gone = sorted(ROTATION_USERS - found)
    assert not gone, f"ROTATION_USERS names uses that no longer exist: {gone}"


# Every cache in the package that outlives a call: each `lru_cache` (or
# `functools.cache`) function and each module-level `_*_CACHE` table, as
# (module, name).  Each holds tables of a degree or precision, never a
# per-form result: the benchmark passes repeat the same form objects, so
# a result cache would count repeats as work done.  Add an entry here
# only after reviewing what the new cache is keyed on.
CACHES = {
    ("engine.py", "_unit_powers_mod8"),
    ("flat.py", "mod8_table"),
    ("flat.py", "_rows"),
    ("sweeps.py", "_tables"),
    ("sweeps.py", "_automata"),
    ("sweeps.py", "_free_ranks"),
    ("oracle.py", "power_value_set"),
    ("ring.py", "_MULTIPLIER_CACHE"),
    ("ring.py", "_seed_table"),
    ("ring.py", "_anchor_seed_table"),
}


def _caches(tree: ast.Module) -> set:
    """The names of the module's cached functions, at any depth, and of
    its module-level tables named `_*_CACHE`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    out.add(node.name)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        out.update(t.id for t in targets if isinstance(t, ast.Name)
                   and t.id.startswith("_") and t.id.endswith("_CACHE"))
    return out


def test_every_cache_is_reviewed():
    found = {(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in _caches(ast.parse(path.read_text()))}
    new = sorted(found - CACHES)
    assert not new, f"caches not in CACHES (module, name): {new}"
    gone = sorted(CACHES - found)
    assert not gone, f"CACHES names caches that no longer exist: {gone}"


# Every run is on the calling thread, and nothing in the package is set
# from the environment: a worker pool or an environment knob fails the
# check below.  The one module that imports threading is sweeps.py, for
# the lock of the sum-set automata that every sweep of a degree shares.
THREADING_USERS = {"sweeps.py"}


def _threads_and_environment(tree: ast.Module) -> set:
    """("reads", name) for every read of os.environ or os.getenv, and
    ("imports", module) for every absolute import of a module that starts
    threads or processes."""
    env, pools = ("environ", "getenv"), ("concurrent", "multiprocessing", "threading", "_thread")
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in env:
                out.add(("reads", f"os.{node.attr}"))
        elif isinstance(node, ast.Import):
            out.update(("imports", a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(("imports", node.module.split(".")[0]))
            if node.module == "os":
                out.update(("reads", f"os.{a.name}") for a in node.names if a.name in env)
    return {(kind, name) for kind, name in out if kind == "reads" or name in pools}


def test_no_worker_pools_or_environment_knobs():
    found = {path.name: _threads_and_environment(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    allowed = {name: {("imports", "threading")} if name in THREADING_USERS else set()
               for name in found}
    extra = {name: sorted(uses - allowed[name]) for name, uses in found.items() if uses - allowed[name]}
    assert not extra, f"environment reads or thread/process imports in the package: {extra}"
    gone = sorted(name for name in THREADING_USERS if ("imports", "threading") not in found[name])
    assert not gone, f"THREADING_USERS names modules that no longer import threading: {gone}"


def _imports_numpy_ma(calls: str) -> bool:
    """Whether running `calls` in a fresh process loads numpy.ma."""
    script = f"import sys\n{calls}print('numpy.ma' in sys.modules)\n"
    pkg_root = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split() != ["False"]


def test_warm_up_does_not_import_numpy_ma():
    # the first np.unique call in a process imports numpy.ma (about 14 ms);
    # importing the package and the benchmark workloads' warm-up calls
    # must not pay it
    assert not _imports_numpy_ma(
        "from padic_forms import multiplier_set, power_value_set, sweep_lemma\n"
        "for d, K in ((6, 10), (10, 14), (6, 3), (10, 3)):\n"
        "    multiplier_set(d, K)\n"
        "for d, top in ((6, 8), (10, 10)):\n"
        "    for M in range(3, top + 1):\n"
        "        power_value_set(d, M)\n"
        "for lid in ('0061', '5'):\n"
        "    sweep_lemma(lid, mode='SAMPLED', trials=16, seed=0)\n"
    )


def test_sweeps_do_not_import_numpy_ma():
    # every sweep of the benchmark's `sweeps` pass, and the minimality
    # probe, which shares the exhaustive join
    assert not _imports_numpy_ma(
        "from padic_forms.sweeps import minimality_probe, sampled_lemma_ids, sweep_lemma\n"
        "for lid in sampled_lemma_ids():\n"
        "    sweep_lemma(lid, mode='SAMPLED', trials=300, seed=1)\n"
        "for lid in ('025', '115'):\n"
        "    sweep_lemma(lid, mode='EXHAUSTIVE')\n"
        "minimality_probe('007')\n"
    )
