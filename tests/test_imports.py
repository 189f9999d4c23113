"""Every module-level import in the package is used by its module
(``__init__.py``, which re-exports, is exempt), every module-level
private name is used by some module of the package, every re-export is
named outside the module that defines it, and law reports are
built in one place: ``reporting.run_law``, with ``oracle_crosscheck``,
which adds up the reports of other checks, the one exception. The
brute-force oracles of ``verifier.py`` take their permutations from the
comparator, never from an order's ``lead``, and never memoize the
addition or the kernel. Only ``order.py`` and ``algebra.py`` key a dict
by carrier kind, and only ``order.py`` tests for an order's class or
takes its parameters. Only the catalog constructors of ``operator.py``
say that a kernel is tie-invariant."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "choquetlike"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_name():
    source = "import os\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["line 2: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level functions, classes and assignments named ``_name``
    (dunders excepted), with their line numbers."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken, and names imported anywhere in a
    syntax tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    used = set().union(*(referenced_names(ast.parse(s)) for s in sources.values()))
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for name, line in private_definitions(source).items() if name not in used]


def test_detects_a_dead_private_name():
    sources = {"a.py": "_TABLE = {}\n_KEPT = 1\n__all__ = []\n"
                       "def _helper():\n    return _KEPT\n",
               "b.py": "from a import _helper\n_helper()\n"}
    assert dead_private_names(sources) == ["a.py line 1: _TABLE"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert dead_private_names(sources) == []


def unnamed_exports(init: str, modules: dict[str, str], texts: list[str]) -> list[str]:
    """Names that ``init`` re-exports from a package module and that no
    other module of ``modules`` (module name to source) references, and
    no text of ``texts`` holds as a word."""
    words = set().union(*(re.findall(r"\w+", text) for text in texts))
    referenced = {name: referenced_names(ast.parse(source))
                  for name, source in modules.items()}
    return [alias.name for node in ast.parse(init).body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name not in words
            and not any(alias.name in used for module, used in referenced.items()
                        if module != node.module)]


def test_detects_an_unnamed_export():
    init = "from .a import kept, named, shared, unused\n"
    modules = {"a": "def kept(): pass\ndef shared(): pass\nunused = kept\n",
               "b": "from .a import shared\n"}
    assert unnamed_exports(init, modules, ["call `named()`"]) == ["kept", "unused"]


def test_every_export_is_named_outside_its_module():
    """A re-export is used by another module of the package, or named by a
    demo, a ``perfbench/`` file or README; otherwise only tests reach it."""
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    outside = [ROOT / "README.md", *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py"), *(ROOT / "perfbench").glob("*.md")]
    texts = [p.read_text(encoding="utf-8") for p in outside]
    assert unnamed_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"),
                           modules, texts) == []


def law_report_calls(sources: dict[str, str]) -> list[str]:
    """Every call of ``LawReport``, by name or as an attribute, as
    ``module:function`` for the top-level function or class around it,
    or ``module`` at module level."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            where = f"{module}:{top.name}" if named else module
            found += [where for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == "LawReport"]
    return found


def test_detects_a_law_report_call():
    sources = {"a.py": "def f():\n    return LawReport('x', 'pass')\n"
                       "r = reporting.LawReport('y', 'fail')\n",
               "b.py": "def g():\n    return run_law('x', [])\n"}
    assert law_report_calls(sources) == ["a.py:f", "a.py"]


def test_law_reports_come_from_run_law():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    assert law_report_calls(sources) == ["reporting.py:run_law",
                                         "verifier.py:oracle_crosscheck"]


def reached_names(source: str, function: str) -> set[str]:
    """Names read and attributes taken in the top-level ``function`` and
    in every top-level function of the same module that it names, in
    turn."""
    tops = {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reached, todo, seen = set(), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        reached |= referenced_names(tops[name])
        todo += [n for n in reached if n in tops]
    return reached


def test_detects_a_reached_name():
    source = ("def oracle(xs, order):\n    return _helper(xs, order)\n"
              "def _helper(xs, order):\n    return sorted(xs, key=order.lead)\n"
              "def other():\n    return _strict_chain()\n")
    assert reached_names(source, "oracle") == {"_helper", "xs", "order", "sorted", "lead"}


# The oracles enumerate every admissible permutation from the comparator
# and fold each on elements; the operator's lead sort must not reach them.
@pytest.mark.parametrize("oracle", ["brute_force_wd", "brute_force_monotonicity",
                                    "_value_table"])
def test_oracles_stay_on_the_comparator(oracle):
    reached = reached_names((PACKAGE / "verifier.py").read_text(encoding="utf-8"), oracle)
    assert {"PermutationSet", "_eval_sorted"} <= reached
    assert not reached & {"lead", "_strict_chain", "choquet_aggregate", "_Fold"}


# The law checks memoize the addition and the kernel within one case
# enumeration; the oracles that check them call both afresh.
MEMO_HELPERS = {"_memoized", "_terms"}


@pytest.mark.parametrize("oracle", ["brute_force_wd", "brute_force_monotonicity",
                                    "_value_table", "_spot_check_consistency"])
def test_oracles_never_memoize(oracle):
    reached = reached_names((PACKAGE / "verifier.py").read_text(encoding="utf-8"), oracle)
    assert reached and not reached & MEMO_HELPERS


def test_test_oracles_never_memoize():
    source = (Path(__file__).resolve().parent / "oracles.py").read_text(encoding="utf-8")
    assert not referenced_names(ast.parse(source)) & MEMO_HELPERS


# What a carrier kind is lives in its record in ``order.py``, and its
# operations in ``algebra.py``'s table; other modules read those.
KIND_NAMES = {"SCALAR", "INTERVAL", "VECTOR"}
KIND_VALUES = {"scalar", "interval", "vector"}


def kind_keyed_dicts(source: str) -> list[int]:
    """Lines of the dict displays with a key that names a carrier kind:
    ``SCALAR``, ``INTERVAL`` or ``VECTOR``, bare or as an attribute, or
    the string it stands for."""
    def names_a_kind(key) -> bool:
        return (isinstance(key, ast.Name) and key.id in KIND_NAMES
                or isinstance(key, ast.Attribute) and key.attr in KIND_NAMES
                or isinstance(key, ast.Constant) and key.value in KIND_VALUES)

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Dict) and any(map(names_a_kind, node.keys))]


def test_detects_a_kind_keyed_dict():
    source = ("_T = {SCALAR: 1, 'x': 2}\nd = {order.VECTOR: f}\n"
              "e = {'interval': 3}\nf = {'table': 4, **d}\ng = {INTERVALS: 5}\n")
    assert kind_keyed_dicts(source) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("order.py", "algebra.py")],
                         ids=lambda p: p.name)
def test_carrier_facts_stay_in_their_records(path):
    assert kind_keyed_dicts(path.read_text(encoding="utf-8")) == []


# Every operation is pure: no function writes into a container that its
# module, or a module it imports from, binds at module level.
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse",
            "appendleft", "extendleft", "popleft", "difference_update",
            "intersection_update", "symmetric_difference_update"}


def module_state_writes(source: str) -> list[str]:
    """``line: name`` for each place where a function assigns into or
    deletes from ``name[...]`` or ``name.attr`` (at any depth, as in
    ``name.attr[...]``), calls a mutating method of one of them, or
    declares a name ``global``; ``name`` is bound at module level (by an
    assignment, an import or a definition) and nowhere in the top-level
    definition around that function."""
    tree = ast.parse(source)
    module_names = {n.id for top in tree.body
                    if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                    for n in ast.walk(top)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    for top in tree.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            module_names.update((a.asname or a.name).split(".")[0] for a in top.names)
        elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_names.add(top.name)
    found = set()
    for top in tree.body:
        local = {n.id for n in ast.walk(top)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {a.arg for n in ast.walk(top) if isinstance(n, ast.arguments)
                  for a in n.posonlyargs + n.args + n.kwonlyargs
                  + [n.vararg, n.kwarg] if a is not None}
        functions = [n for n in ast.walk(top) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        for node in (n for fn in functions for n in ast.walk(fn)):
            if isinstance(node, ast.Global):
                found.update((node.lineno, name) for name in node.names)
                continue
            if (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            while isinstance(target, (ast.Subscript, ast.Attribute)):
                target = target.value
            if (isinstance(target, ast.Name) and target.id in module_names
                    and target.id not in local):
                found.add((node.lineno, target.id))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_a_module_state_write():
    source = ("import os\nfrom .a import _SHARED\n_TABLE = {}\n_SEEN: list = []\n"
              "def register(k):\n    _TABLE[k.name] = k\n"
              "def note(x):\n    _SEEN.append(x)\n    return sorted(_SEEN)\n"
              "class Env:\n    def put(self):\n        os.environ['X'] = '1'\n"
              "def bump():\n    global _COUNT\n    _COUNT = 1\n"
              "def share(v):\n    _SHARED.update(v)\n"
              "def local():\n    _TABLE = {}\n    _TABLE['a'] = 1\n"
              "    acc = []\n    acc.append(_TABLE.get('a'))\n    return acc\n"
              "def forget(k):\n    del _TABLE[k]\n")
    assert module_state_writes(source) == [
        "line 6: _TABLE", "line 8: _SEEN", "line 12: os", "line 14: _COUNT",
        "line 17: _SHARED", "line 25: _TABLE"]


def test_no_function_writes_module_state():
    found = {p.name: module_state_writes(p.read_text(encoding="utf-8"))
             for p in ALL_MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


# An order's internals are its own: other modules reach an order through
# ``compare``, ``lead``, ``sort``, ``kind`` and ``dim``, never by its class
# or its parameters.
ORDER_CLASSES = {"ScalarUsual", "AlphaBeta", "VectorLex"}
ORDER_PARAMETERS = {"alpha", "beta", "priority"}


def order_internals(source: str) -> list[str]:
    """``line: what`` for each ``isinstance`` call whose class argument
    names an order class (bare, as an attribute, or in a tuple), and each
    ``alpha``, ``beta`` or ``priority`` attribute taken."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            found.update((node.lineno, f"isinstance {name}")
                         for name in referenced_names(node.args[1]) & ORDER_CLASSES)
        elif isinstance(node, ast.Attribute) and node.attr in ORDER_PARAMETERS:
            found.add((node.lineno, f".{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_detects_order_internals():
    source = ("def f(order, x):\n    if isinstance(order, AlphaBeta):\n"
              "        return order.alpha\n"
              "    if isinstance(x, (order_mod.VectorLex, Interval)):\n"
              "        return x.priority[0]\n    order.beta = 1\n"
              "    return isinstance(x, Scalar), x.alphas, AlphaBeta(0.5, 1.0)\n")
    assert order_internals(source) == [
        "line 2: isinstance AlphaBeta", "line 3: .alpha", "line 4: isinstance VectorLex",
        "line 5: .priority", "line 6: .beta"]


@pytest.mark.parametrize("path", [p for p in ALL_MODULES if p.name != "order.py"],
                         ids=lambda p: p.name)
def test_order_internals_stay_in_order_module(path):
    assert order_internals(path.read_text(encoding="utf-8")) == []


# A kernel's tie invariance is a theorem about its family, so only the
# catalog constructors of ``operator.py`` may state it.
CATALOG_CONSTRUCTORS = {"_component_kernel", "delta_scale_kernel", "affine_f_kernel",
                        "b_scale_d_kernel"}


def tie_invariance_claims(source: str) -> list[str]:
    """``where line`` for each ``tie_invariant=`` keyword and each string
    ``"tie_invariant"`` (as ``setattr`` would take it); ``where`` is the
    top-level definition around it, or ``<module>``."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        found += [f"{where} line {node.lineno}" for node in ast.walk(top)
                  if isinstance(node, ast.keyword) and node.arg == "tie_invariant"
                  or isinstance(node, ast.Constant) and node.value == "tie_invariant"]
    return found


def test_detects_a_tie_invariance_claim():
    source = ("class KernelL:\n    tie_invariant: bool = False\n"
              "def kernel_catalog(k):\n    return replace(k, tie_invariant=True)\n"
              "def other(k):\n    object.__setattr__(k, 'tie_invariant', True)\n"
              "    return k.tie_invariant, KernelL(f, 'x', tie_invariant=True)\n"
              "K = KernelL(f, 'y', tie_invariant=False)\n")
    assert tie_invariance_claims(source) == [
        "kernel_catalog line 4", "other line 6", "other line 7", "<module> line 8"]


def test_only_the_catalog_states_tie_invariance():
    claims = {p.name: tie_invariance_claims(p.read_text(encoding="utf-8"))
              for p in ALL_MODULES}
    catalog = claims.pop("operator.py")
    assert catalog and all(c.split()[0] in CATALOG_CONSTRUCTORS for c in catalog)
    assert {name: found for name, found in claims.items() if found} == {}
