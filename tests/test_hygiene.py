"""Source hygiene checks that need no linter: stdlib ``ast`` only."""
import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icp_lab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_imports(scope) -> dict[str, int]:
    """Names bound by the imports of one scope, the module or a function, and
    their lines; the imports of nested functions belong to those."""
    imported = {}
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif not isinstance(node, _FUNCTIONS):
            pending.extend(ast.iter_child_nodes(node))
    return imported


def _unused_imports(source: str) -> list[str]:
    """Imported names that their scope never reads: a module import must be
    used in the module, a function's import in that function."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        found += [(line, name) for name, line in _scope_imports(scope).items() if name not in used]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_unused_import_check_finds_an_unused_name():
    assert _unused_imports("import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n") == [
        "line 2: Iterable"
    ]


def test_unused_import_check_reads_each_function_on_its_own():
    source = (
        "import os\n"
        "def a():\n    from json import dumps, loads\n    return dumps\n"  # line 3: loads
        "def b(x):\n    if x:\n        import re\n        return lambda: re\n"  # read in a nested scope
        "def c():\n    import sys\n    def d():\n        import math\n        return sys\n    return os\n"
        "def e():\n    return math\n"  # math is imported by d alone, and d never reads it: line 12
    )
    assert _unused_imports(source) == ["line 3: loads", "line 12: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _reads(node) -> Counter:
    """How often each name is read under ``node``: as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of ``sources``
    (file name -> source) that no source reads outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _reads(node)
            found += [
                f"{module}:{node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and total[name] == own[name]
            ]
    return found


def test_dead_code_check_finds_each_unread_name():
    sources = {
        "a.py": (
            "_A = 1\n_B = 2\n__all__ = ['x']\n"
            "def _f(n):\n    return _f(n - 1) if n else _A\n"  # line 4: read only by itself
            "class _C:\n    pass\n"
            "def _g():\n    pass\n"
        ),
        "b.py": "from . import a\nfrom .a import _g\nx = a._C\n_g()\n",
    }
    assert _unread_private_names(sources) == ["a.py:2: _B", "a.py:4: _f"]


def test_every_private_module_name_is_read_in_the_package():
    # tests do not count: a helper only a test reads is dead code
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_dirichlet_draws_go_through_the_sampling_helper(path):
    # info._dirichlet_ones draws the same numbers without Generator.dirichlet's per-call checks
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dirichlet"
    ]
    assert calls == []


def _ravel_multi_index_calls(source: str) -> list[int]:
    """Lines that call ``ravel_multi_index``, as ``np.ravel_multi_index`` or by name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None))
        == "ravel_multi_index"
    ]


def test_ravel_multi_index_check_finds_a_call():
    source = (
        "import numpy as np\nfrom numpy import ravel_multi_index\n"
        "a = np.ravel_multi_index(x.T, shape)\n"
        "b = ravel_multi_index(x.T, shape)\n"
        "c = np.unravel_index(i, shape)\n"
    )
    assert _ravel_multi_index_calls(source) == [3, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_register_cells_go_through_the_flat_index_helper(path):
    # engine._flat_index is the one row-major index of register cells
    assert _ravel_multi_index_calls(path.read_text(encoding="utf-8")) == []


def _complex_gaussian_draws(source: str) -> list[str]:
    """Functions that both draw with ``.normal(`` or ``.standard_normal(``
    and multiply by ``1j``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        draws = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("normal", "standard_normal")
            for n in nodes
        )
        imaginary = any(
            isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == 1j for side in (n.left, n.right))
            for n in nodes
        )
        if draws and imaginary:
            found.append(func.name)
    return found


def test_complex_gaussian_check_finds_a_draw():
    source = (
        "def a(rng, d):\n    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))\n"
        "def b(rng, d):\n    g = rng.normal(size=(2, d, d))\n    return g[0] + g[1] * 1j\n"
        "def c(rng, x):\n    return rng.normal(size=3), 1j * x\n"
        "def d(x):\n    return 1j * x\n"
        "def e(rng, g):\n    rng.standard_normal(out=g)\n    return g[0] + 1j * g[1]\n"
    )
    assert _complex_gaussian_draws(source) == ["a", "b", "c", "e"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_complex_gaussians_go_through_the_sampling_helper(path):
    # info._density_draw_parts draws the Gaussian parts and
    # info._haar_from_gaussian alone combines them, the real part first
    assert _complex_gaussian_draws(path.read_text(encoding="utf-8")) == []


def _unbounded_caches(source: str) -> list[str]:
    """``lru_cache`` uses without an explicit finite ``maxsize``, and every
    ``functools.cache``, as "line N"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            size = next((k.value for k in node.keywords if k.arg == "maxsize"), args[0] if args else None)
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "lru_cache" and not (
                isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
            ):
                found.append(f"line {node.lineno}")
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # a bare decorator: ``@lru_cache`` or ``@functools.cache``, called with no arguments
            for deco in node.decorator_list:
                name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)
                if name in ("lru_cache", "cache"):
                    found.append(f"line {deco.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            found.append(f"line {node.lineno}")
    return sorted(set(found), key=lambda s: int(s.split()[1]))


def test_unbounded_cache_check_finds_each_form():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=8)\ndef a(): pass\n"  # bounded
        "@lru_cache(16)\ndef b(): pass\n"  # bounded, positional
        "c = functools.lru_cache(maxsize=32)(len)\n"  # bounded
        "@functools.lru_cache\ndef d(): pass\n"  # line 8: default size, not explicit
        "@lru_cache(maxsize=None)\ndef e(): pass\n"  # line 10: unbounded
        "@functools.cache\ndef f(): pass\n"  # line 12: unbounded
        "g = lru_cache(maxsize=None)(len)\n"  # line 14
        "h = functools.cache(len)\n"  # line 15
        "@lru_cache()\ndef i(): pass\n"  # line 16: default size, not explicit
        "j = functools.lru_cache(maxsize=True)(len)\n"  # line 18: a bool is no size
    )
    assert _unbounded_caches(source) == ["line 8", "line 10", "line 12", "line 14", "line 15", "line 16", "line 18"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_lru_cache_has_an_explicit_finite_maxsize(path):
    # a cache that holds arrays or theories must not grow with the inputs it has seen
    assert _unbounded_caches(path.read_text(encoding="utf-8")) == []


def _theory_keyed_caches(source: str) -> list[str]:
    """Parameters annotated ``Theory`` of functions decorated with
    ``lru_cache``, as "line N: function(parameter)", N the ``def`` line."""
    found = []
    for func in (n for n in ast.walk(ast.parse(source)) if isinstance(n, _FUNCTIONS)):
        decorators = [d.func if isinstance(d, ast.Call) else d for d in func.decorator_list]
        if not any((getattr(d, "attr", None) or getattr(d, "id", None)) == "lru_cache" for d in decorators):
            continue
        args = func.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotation = arg.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                annotation = ast.parse(annotation.value, mode="eval")
            names = {getattr(n, "attr", None) or getattr(n, "id", None) for n in ast.walk(annotation or ast.Pass())}
            if "Theory" in names:
                found.append(f"line {func.lineno}: {func.name}({arg.arg})")
    return found


def test_theory_keyed_cache_check_finds_each_form():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=8)\ndef a(x: int, theory: Theory): pass\n"  # line 4
        "@lru_cache(16)\ndef b(t: gpt.Theory | None): pass\n"  # line 6
        "@lru_cache(4)\ndef c(variant: Polytope, theory=None): pass\n"  # neither is annotated Theory
        "def d(theory: Theory): pass\n"  # not cached
        "@lru_cache(2)\ndef e(*, theory: 'Theory'): pass\n"  # line 11: a string annotation
    )
    assert _theory_keyed_caches(source) == ["line 4: a(theory)", "line 6: b(t)", "line 11: e(theory)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_lru_cache_is_keyed_by_a_theory(path):
    # a module-level cache keyed by a theory keeps it alive after its caller
    # drops it; what is derived from one theory is a cached_property of it
    assert _theory_keyed_caches(path.read_text(encoding="utf-8")) == []


_GROWING_METHODS = ("append", "add", "setdefault", "update")


def _is_empty_container(node) -> bool:
    """``{}``, ``[]``, or a call of ``dict``, ``list`` or ``set`` with no arguments."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def _growing_containers(source: str) -> list[str]:
    """Module-level names bound to an empty container that a function writes,
    by subscript store or by a growing method, as "line N: name" per write."""
    tree = ast.parse(source)
    empty = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            empty.update(t.id for t in targets if isinstance(t, ast.Name))
    found = []
    for func in (n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)):
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _GROWING_METHODS:
                target = node.func.value
            else:
                continue
            if getattr(target, "id", None) in empty:
                found.append((node.lineno, target.id))
    return [f"line {line}: {name}" for line, name in sorted(set(found))]


def test_growing_container_check_finds_each_form():
    source = (
        "_A = {}\n_B: dict[str, int] = dict()\n_C = []\n_D = list()\n_E = set()\n"
        "_F = {}\n_F['x'] = 1\n"  # filled once, at import
        # tables filled where they are bound and only read, like axioms._AXIOMS and __init__._EXPORTS
        "_EXPORTS = {'gpt': ('State',)}\n_HOME = {n: m for m, ns in _EXPORTS.items() for n in ns}\n"
        "def f(k, v):\n"
        "    _A[k] = v\n"  # line 11
        "    _B.setdefault(k, v)\n"  # line 12
        "    _C.append(v)\n"  # line 13
        "    _D[0] += v\n"  # line 14
        "    _E.add(v)\n"  # line 15
        "    _A.update({k: v})\n"  # line 16
        "    globals()[k] = _HOME[k]\n"
        "    return _EXPORTS[k], _F.get(k), dict(_EXPORTS), len(_C)\n"
    )
    assert _growing_containers(source) == [
        "line 11: _A", "line 12: _B", "line 13: _C", "line 14: _D", "line 15: _E", "line 16: _A"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_container_grows_at_run_time(path):
    # a container that calls add to grows with the inputs the process has
    # seen, as an lru_cache without a finite maxsize would
    assert _growing_containers(path.read_text(encoding="utf-8")) == []


def _callers(source: str, callee: str) -> list[str]:
    """The innermost class or function around each call of ``callee``, by
    name or as an attribute, by its dotted name, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_eigvalsh_check_finds_each_caller():
    source = (
        "import numpy as np\nfrom numpy.linalg import eigvalsh\n"
        "def a(m):\n    return np.linalg.eigvalsh(m)\n"
        "class B:\n    def __init__(self, m):\n        self.s = eigvalsh(m)\n"
        "    def c(self, m):\n        return np.linalg.eigh(m)\n"
        "s = np.linalg.eigvalsh(np.eye(2))\n"
    )
    assert _callers(source, "eigvalsh") == ["a", "B.__init__", "<module>"]


# the one density check, and the ledger's classical-quantum blocks p_c rho_c,
# whose traces are the cell masses, not 1, so they are no density operators
EIGVALSH_CALLERS = {"info.py": ["_density_check"], "proofs.py": ["_QuantumChainData.__init__"]}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_spectra_come_from_the_one_density_check(path):
    assert _callers(path.read_text(encoding="utf-8"), "eigvalsh") == EIGVALSH_CALLERS.get(path.name, [])


# the state-space variants, which answer for themselves what depends on their
# kind, and the kind strings of the optimizer's old state-family switch
VARIANTS = {"Polytope", "NormConstraint", "RestrictedClassical", "Quantum"}
FAMILY_KINDS = {"vertex", "norm", "bloch"}


def _variant_switches(source: str) -> list[str]:
    """Each test of which variant a value is, as "scope: form" with the
    innermost class or function around it: an ``isinstance`` or
    ``issubclass`` call naming a variant class, a ``match`` class pattern of
    one, a comparison with one (``type(v) is Quantum``), or a comparison with
    a family kind string ("kind")."""
    found = []

    def named(node) -> bool:
        return any(
            (n.id if isinstance(n, ast.Name) else n.attr) in VARIANTS
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            where = ".".join(scope) or "<module>"
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) in ("isinstance", "issubclass")
                and len(child.args) == 2
                and named(child.args[1])
            ):
                found.append(f"{where}: isinstance")
            elif isinstance(child, ast.MatchClass) and named(child.cls):
                found.append(f"{where}: match")
            elif isinstance(child, ast.Compare):
                operands = (child.left, *child.comparators)
                if any(isinstance(op, (ast.Name, ast.Attribute)) and named(op) for op in operands):
                    found.append(f"{where}: compare")
                if any(isinstance(n, ast.Constant) and n.value in FAMILY_KINDS for op in operands for n in ast.walk(op)):
                    found.append(f"{where}: kind")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_variant_switch_check_finds_each_form():
    source = (
        "from .gpt import Polytope, Quantum, State\nfrom . import gpt\n"
        "def a(v):\n    return isinstance(v, Polytope)\n"
        "class B:\n    def c(self, v):\n        return isinstance(v, (gpt.NormConstraint, int))\n"
        "def d(v):\n    match v:\n        case Quantum():\n            return 1\n"
        "    return type(v) is gpt.RestrictedClassical or issubclass(type(v), Quantum)\n"
        "def e(family):\n"
        "    return family.kind == 'bloch' or 'vertex' != family.kind or family.kind in ('norm', 'x')\n"
        "def f(v, step):\n"  # no variant and no family kind
        "    return isinstance(v, State) or step.kind == 'identity' or v.k == 2 or 'norm' + 'x'\n"
        "x = isinstance(y, Quantum)\n"
    )
    assert _variant_switches(source) == [
        "a: isinstance", "B.c: isinstance", "d: match", "d: compare", "d: isinstance",
        "e: kind", "e: kind", "e: kind", "<module>: isinstance",
    ]


# catalog.norm_state refuses a theory of any other kind before it reads a
# norm constraint's k
VARIANT_SWITCHES = {"catalog.py": ["norm_state: isinstance"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_gpt_tells_the_variants_apart(path):
    # each variant owns its dimensions, check, draws, search family, dimension
    # report and ledger weights, so no other module asks which kind it holds;
    # no module, gpt included, switches on a family kind string
    found = _variant_switches(path.read_text(encoding="utf-8"))
    if path.name == "gpt.py":
        found = [f for f in found if f.endswith(": kind")]
    assert found == VARIANT_SWITCHES.get(path.name, [])


def _chain_root(node) -> tuple[str, int] | None:
    """The root name of an attribute chain and its hops: ``a.b.c`` is ("a", 2)."""
    hops = 0
    while isinstance(node, ast.Attribute):
        node, hops = node.value, hops + 1
    return (node.id, hops) if isinstance(node, ast.Name) else None


def _forwards(func, min_hops: int) -> bool:
    """Whether ``func``'s body, past its docstring, is one ``return`` of an
    attribute chain of at least ``min_hops`` hops rooted at a parameter, or of
    a call on such a chain whose positional arguments are exactly the other
    parameters, in order."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
        return False
    value = body[0].value
    params = [a.arg for a in (*func.args.posonlyargs, *func.args.args)]
    call = isinstance(value, ast.Call)
    chain = _chain_root(value.func if call else value)
    if chain is None or chain[0] not in params or chain[1] < min_hops:
        return False
    others = [p for p in params if p != chain[0]]
    return not call or (not value.keywords and [getattr(a, "id", None) for a in value.args] == others)


def _forwarders(source: str) -> list[str]:
    """Functions, methods and properties that only forward an attribute read
    or a call of an object they are given, by dotted name. A method forwards
    from two hops (``self.theory.theory_id``), any other function from one
    (``theory.variant``); dunder methods are exempt."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, (*scope, child.name), True)
            elif isinstance(child, _FUNCTIONS):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and _forwards(child, 2 if in_class else 1):
                    found.append(".".join((*scope, child.name)))
                visit(child, (*scope, child.name), False)
            else:
                visit(child, scope, in_class)

    visit(ast.parse(source), (), False)
    return found


def test_forwarder_check_finds_each_form():
    source = (
        "def a(theory):\n    return theory.variant\n"  # one hop from a function
        "def b(theory):\n    'doc'\n    return theory.variant.unit\n"  # past its docstring
        "def c(theory, name):\n    return theory.measurement(name)\n"  # a call with the other parameters
        "def d(theory, name):\n    return theory.measurement(name, 1)\n"  # another argument
        "def e(theory, name):\n    return theory.measurement(name=name)\n"  # a keyword
        "def f(x):\n    return np.pi\n"  # no parameter's chain
        "def g(x):\n    y = x.a\n    return y\n"  # two statements
        "class K:\n"
        "    @property\n    def h(self):\n        return self.theory\n"  # one hop from a method
        "    @property\n    def i(self):\n        return self.theory.theory_id\n"
        "    def j(self, name):\n        return self.theory.measurement(name)\n"
        "    def k(self):\n        return self.variant.report(self)\n"  # hands itself on
        "    def __len__(self):\n        return self.a.b\n"  # dunder
        "    def m(self):\n        def n(t):\n            return t.x\n        return n\n"  # nested: a function
        "def o(x):\n    return x.a[0]\n"  # a subscript, not a chain
    )
    assert _forwarders(source) == ["a", "b", "c", "K.i", "K.j", "K.m.n"]


# perfbench's tracer wraps gpt.observed_dimension by name; _StateSpace's
# ambient_dimension is a cached, named count of the unit's coordinates
FORWARDERS = {"gpt.py": ["_StateSpace.ambient_dimension", "observed_dimension"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_accessor_only_forwards_to_an_object_its_caller_holds(path):
    # a caller that holds a theory, entry, certificate or assignment reads
    # what it needs from it, not through a wrapper that adds nothing
    assert _forwarders(path.read_text(encoding="utf-8")) == FORWARDERS.get(path.name, [])


def test_table_builder_check_finds_each_form():
    source = (
        "from .info import JointTable\nfrom . import info\n"
        "class JointTable:\n    def marginal(self, names):\n"
        "        return JointTable(names, self.probs)\n"  # JointTable.marginal
        "def f(table):\n    info.JointTable(('X', 'A'), table)\n"  # f
        "    return table.probs, isinstance(table, JointTable)\n"
        "t = JointTable(('A',), [1.0])\n"  # <module>
    )
    assert _callers(source, "JointTable") == ["JointTable.marginal", "f", "<module>"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_ensembles_are_read_as_arrays(path):
    # evaluation takes its outcome tables and register marginals as bare
    # arrays: only info builds a JointTable, and there only JointTable.marginal,
    # the public calculus's own result
    source = path.read_text(encoding="utf-8")
    assert _callers(source, "JointTable") == (["JointTable.marginal"] if path.name == "info.py" else [])


def _ln2_calls(source: str) -> list[int]:
    """Lines that call ``log`` of the constant 2, as ``math.log``, ``np.log`` or by name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == "log"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 2
    ]


def test_ln2_check_finds_each_form():
    source = (
        "import math\nimport numpy as np\nfrom math import log\n"
        "a = math.log(2.0)\n"  # line 4
        "b = np.log(2)\n"  # line 5
        "c = log(2.0)\n"  # line 6
        "d = math.log(3.0) + np.log2(x) + math.log(x, 2) + info.LN2\n"
    )
    assert _ln2_calls(source) == [4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_ln2_is_formed_only_in_info(path):
    # info.LN2 is the one natural log of 2 that bit conversions divide by
    assert len(_ln2_calls(path.read_text(encoding="utf-8"))) == (path.name == "info.py")


def _dot_calls(source: str) -> list[int]:
    """Lines that call ``dot``, as ``np.dot``, by name or as an array's method."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == "dot"
    ]


def test_dot_check_finds_each_form():
    source = (
        "import numpy as np\nfrom numpy import dot\n"
        "a = np.dot(e, s)\n"  # line 3
        "b = dot(e, s)\n"  # line 4
        "c = e.dot(s)\n"  # line 5
        "d = e @ s + np.vdot(e, s) + np.einsum('i,i', e, s)\n"
    )
    assert _dot_calls(source) == [3, 4, 5]


def test_gpt_reads_effects_on_states_by_whole_products():
    # every readout in gpt is one product of effect rows and state rows
    assert _dot_calls((SRC / "gpt.py").read_text(encoding="utf-8")) == []


def test_the_scalar_entropy_kernel_holds_the_one_dot_call():
    """Every entropy of one table, masked or not, runs the one formula in
    ``info._plogp_bits``; no copy of it elsewhere can drift in its bits."""
    calls = {path.name: _dot_calls(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: len(lines) for name, lines in calls.items() if lines} == {"info.py": 1}
    tree = ast.parse((SRC / "info.py").read_text(encoding="utf-8"))
    kernel = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_plogp_bits")
    assert kernel.lineno <= calls["info.py"][0] <= kernel.end_lineno


def _package_imports(source: str, modules: set[str]) -> list[tuple[str, bool]]:
    """The package modules that ``source`` imports by ``from . import x`` or
    ``from .x import y``, each with whether the import sits inside a function.
    A name of ``from . import`` that is not in ``modules`` comes from the
    package's ``__init__``; imports under ``if TYPE_CHECKING:`` are left out."""
    found = []

    def visit(nodes, in_function):
        for node in nodes:
            if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.orelse, in_function)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module.split(".")[0]] if node.module else [
                    a.name if a.name in modules else "__init__" for a in node.names
                ]
                found.extend((name, in_function) for name in names)
            else:
                visit(ast.iter_child_nodes(node), in_function or isinstance(node, _FUNCTIONS))

    visit([ast.parse(source)], False)
    return found


def _import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph`` (module -> the modules it imports) as the modules
    along it, the first repeated at the end; empty when there is none."""
    state, path = {}, []

    def visit(module):
        state[module] = "open"
        path.append(module)
        for target in sorted(graph.get(module, ())):
            if state.get(target) == "open":
                return path[path.index(target) :] + [target]
            if target not in state and (cycle := visit(target)):
                return cycle
        state[module] = "done"
        path.pop()
        return []

    for module in sorted(graph):
        if module not in state and (cycle := visit(module)):
            return cycle
    return []


def test_import_graph_check_finds_each_form():
    source = (
        "from __future__ import annotations\nimport numpy\nfrom typing import TYPE_CHECKING\n"
        "from . import a, __version__\n"  # a module, and a name of the package's __init__
        "from .b import x\n"
        "if TYPE_CHECKING:\n    from .c import Y\nelse:\n    from .c import Z\n"  # the else branch counts
        "def f():\n    from .a import y\n    return y\n"
        "class K:\n    def g(self):\n        if self:\n            from . import c\n"
        "from numpy.linalg import eigh\n"
    )
    assert _package_imports(source, {"a", "b", "c"}) == [
        ("a", False), ("__init__", False), ("b", False), ("c", False), ("a", True), ("c", True)
    ]
    assert _import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert _import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _import_cycle({"a": {"b"}, "b": {"b"}}) == ["b", "b"]


def test_the_package_import_graph_is_acyclic():
    # each module takes what it shares at module level, so no import has a
    # cycle to get round; only the command line and its renderers import
    # package modules inside functions, so that a command loads what it runs
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    imports = {name: _package_imports(source, set(sources)) for name, source in sources.items()}
    assert _import_cycle({name: {target for target, _ in found} for name, found in imports.items()}) == []
    assert {name for name, found in imports.items() if any(local for _, local in found)} <= {"cli", "serialize"}


def _modules_loaded_by(statements: str) -> set[str]:
    """The modules that a fresh interpreter holds after running ``statements``."""
    probe = f"import sys\n{statements}\nprint(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    return set(out.stdout.split())


def test_cli_import_loads_numpy_only():
    # the runtime depends on numpy alone; the test-only packages stay unloaded,
    # and of the package only the command line and its renderers load
    loaded = _modules_loaded_by("import icp_lab.cli")
    assert {m.split(".")[0] for m in loaded} & {"scipy", "mpmath", "hypothesis", "pytest"} == set()
    assert {m for m in loaded if m.startswith("icp_lab")} == {"icp_lab", "icp_lab.cli", "icp_lab.serialize"}


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["catalog"], {"icp_lab.gpt", "icp_lab.catalog"},
         {"icp_lab.engine", "icp_lab.constructions", "icp_lab.proofs", "icp_lab.sampling"}),
        # coordinate descent draws no restart point
        (["demo", "classical"], {"icp_lab.constructions", "icp_lab.engine"}, {"numpy.random", "icp_lab.sampling"}),
        # the axiom suite and the qubit sweep need info alone: no ledger, engine or state space
        (["scan", "axioms", "--trials", "1"], {"icp_lab.axioms"},
         {"icp_lab.engine", "icp_lab.gpt", "icp_lab.proofs", "icp_lab.sampling", "icp_lab.catalog",
          "icp_lab.constructions"}),
        (["scan", "sweep", "--points", "2"], {"icp_lab.sweep"},
         {"icp_lab.gpt", "icp_lab.engine", "icp_lab.catalog", "icp_lab.constructions", "icp_lab.proofs"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, loads, skips):
    loaded = _modules_loaded_by(f"import os, icp_lab.cli\nassert icp_lab.cli.main({argv!r} + ['--out', os.devnull]) == 0")
    assert loads <= loaded and not skips & loaded


def test_every_exported_name_loads_from_its_home_module():
    import icp_lab

    namespace = {}
    exec("from icp_lab import *", namespace)
    for name in icp_lab.__all__:
        home = importlib.import_module(f"icp_lab.{icp_lab._HOME.get(name, name)}")
        expected = getattr(home, name) if name in icp_lab._HOME else home
        assert getattr(icp_lab, name) is expected and namespace[name] is expected, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        icp_lab.no_such_name
