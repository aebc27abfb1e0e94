"""Lint steps over the package source, scanned with `ast` because no
linter is a dependency.

- No module imports a name it never uses.  A line marked
  ``# noqa: F401`` keeps its import on purpose; `__init__.py`
  re-exports the public names and is not scanned.
- Every JSON input is parsed by `geometry.load_json`, which rejects
  NaN and infinities: no other function calls `json.load`/`json.loads`.
- Every CSV file is written by `geometry.csv_text`, the one place that
  fixes the line ending: no other function calls `csv.writer`.
- The fewest rows a forest can be fit on is derived in `forest.py`
  alone: no other module reads a `.min_leaf`.
- The CLI restates no library default: `cli.py` holds no
  `<x> if <y> is not None else <literal>`; an unset option is left out
  of the call so that the library's own default applies.
- Every top-level function and class, and every method and property, is
  named somewhere in the package's code outside its own def, so no dead
  helper is left behind.  A public name may instead be read by the
  acceptance tests, the benchmark, README's "Library entry points" or
  the console script.
- Importing the CLI does not import scipy, which only stream alignment
  needs and which costs every CLI call about half a second.
- Knowledge is derived in one place: only `pool.derive_knowledge` runs
  `permutation_importance` and calls `group_weights`, and only the memo's
  miss path, `FitCache.importance`, calls `derive_knowledge`.
- A pool's memo and cells stay inside `pool.py`: only `pool_from_dict`
  records a forest with `FitCache.add`, and no other module touches an
  entry's `.knowledge`.
- A seed becomes random numbers in one place: only `geometry.stream`
  builds a `SeedSequence`, so every stream of the same (seed, keys)
  draws the same numbers.
- Similarities are scored through the pool: only `pool.py` calls
  `similarity`, so `pool show` prints the matrix that `Pool.similarities`
  scores.
- A pool file's arrays have one format: only the blob helpers
  `geometry.to_blob` and `geometry.from_blob` call `base64`, so every
  stored array is written and checked in one place.
"""

import ast
import base64
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rekpool"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}   # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in lines[i - 1]
                   for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


def module_calls(source: str, module: str, names) -> list:
    """(enclosing function, line) of every `module.<name>(...)` call and
    of every `from module import <name>`, for each name in `names`; the
    function is None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == module
                    and child.func.attr in names):
                found.append((func, child.lineno))
            if (isinstance(child, ast.ImportFrom) and child.module == module
                    and any(a.name in names for a in child.names)):
                found.append((func, child.lineno))
            visit(child, func)
    visit(ast.parse(source), None)
    return found


def json_parse_calls(source: str) -> list:
    return module_calls(source, "json", ("load", "loads"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_json_parsed_only_by_load_json(path):
    calls = json_parse_calls(path.read_text())
    allowed = [("load_json", line) for _, line in calls] if path.name == "geometry.py" else []
    assert calls == allowed


def test_json_scanner_finds_calls():
    source = ("import json\nfrom json import loads\nX = json.loads('1')\n"
              "def f(p):\n    return json.load(open(p))\n"
              "def g(s):\n    return json.dumps(s)\n")
    assert json_parse_calls(source) == [(None, 2), (None, 3), ("f", 5)]


def csv_writer_calls(source: str) -> list:
    return module_calls(source, "csv", ("writer",))


def test_csv_written_only_by_csv_text():
    calls = [(p.name, func) for p in MODULES for func, _ in csv_writer_calls(p.read_text())]
    assert calls == [("geometry.py", "csv_text")]


def test_csv_scanner_finds_calls():
    source = ("import csv\nfrom csv import writer\n"
              "def csv_text(buf):\n    return csv.writer(buf)\n"
              "class Report:\n    def dump(self, buf):\n"
              "        csv.writer(buf).writerow(csv.reader(buf))\n")
    assert csv_writer_calls(source) == [(None, 2), ("csv_text", 4), ("dump", 7)]


def attribute_lines(source: str, attr: str) -> list:
    """Line of every `.<attr>` attribute in `source`, in line order."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == attr)


def test_row_minimum_derived_in_forest():
    reads = {p.name: attribute_lines(p.read_text(), "min_leaf") for p in MODULES}
    assert [m for m, lines in reads.items() if lines] == ["forest.py"]


def test_attribute_scanner_finds_planted_reads():
    source = ("def f(params, min_leaf=2):\n"
              "    rows = 2 * params.min_leaf\n"
              "    return g(min_leaf=min_leaf, leaf=self.pool.forest_params.min_leaf)\n"
              "NAME = 'params.min_leaf'\n")
    assert attribute_lines(source, "min_leaf") == [2, 3]


def restated_defaults(source: str) -> list:
    """Line of every `<x> if <y> is not None else <literal>` expression."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)):
            continue
        test = node.test
        if ([type(op) for op in test.ops] != [ast.IsNot]
                or not isinstance(test.comparators[0], ast.Constant)
                or test.comparators[0].value is not None):
            continue
        try:
            ast.literal_eval(node.orelse)
        except ValueError:
            continue
        found.append(node.lineno)
    return sorted(found)


def test_cli_restates_no_library_default():
    assert restated_defaults((SRC / "cli.py").read_text()) == []


def test_default_scanner_finds_literals():
    source = ("a = x if x is not None else 5\n"
              "b = f(y if y.z is not None else -1.0)\n"
              "c = x if x is not None else g(x)\n"
              "d = x if x is None else 5\n"
              "e = x if x is not None else None\n"
              "f = x if x is not y else 5\n")
    assert restated_defaults(source) == [1, 2, 5]


def unreferenced_functions(sources: dict, readers=frozenset()) -> list:
    """(module, name) of each top-level function and class, and of each
    method and property, in `sources` ({module: source}) that no module's
    code names outside its own def.  A method is written `Class.method`;
    dunder methods, which Python calls itself, are skipped.  A public name
    also counts as read when it is in `readers`."""
    defined, uses = [], {}   # uses: name -> [(module, scope) of each use]
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{m.name}") for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node, scope in scoped_nodes(source):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None:
                uses.setdefault(name, []).append((module, scope or ""))

    def read(module, qualified):
        name = qualified.rsplit(".", 1)[-1]
        own = qualified + "."
        return (name.startswith("__") and name.endswith("__")
                or any(m != module or not (scope + ".").startswith(own)
                       for m, scope in uses.get(name, ()))
                or not name.startswith("_") and name in readers)
    return sorted(d for d in defined if not read(*d))


def named_in(source: str, strings: bool = False) -> set:
    """Every name that `source` uses or imports; with `strings`, also every
    word of its string constants."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def readme_entry_points() -> str:
    """The code of README's "Library entry points" block."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library entry points\n\n```python\n(.*?)```", readme, re.S).group(1)


def public_readers() -> set:
    """The names that a user or the benchmark reads: those of the
    acceptance tests, of every `perfbench` module (whose tracer tables
    name functions in strings), of README's "Library entry points" block
    and of the console script."""
    names = named_in((ROOT / "tests" / "test_acceptance.py").read_text())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= named_in(path.read_text(), strings=True)
    names |= named_in(readme_entry_points())
    return names | set(re.findall(r'"rekpool\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))


def test_no_dead_functions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_functions(sources, public_readers()) == []


def test_readme_entry_points_import():
    exec(readme_entry_points(), {})


def test_dead_function_scanner_finds_unused_helpers():
    a = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
         "class C:\n    def _method(self):\n        return _used()\n"
         "    def _dead_method(self):\n        pass\n    def __init__(self):\n        pass\n")
    b = "import a\na.C()._method()\n"
    assert unreferenced_functions({"a.py": a, "b.py": b}) == [
        ("a.py", "C._dead_method"), ("a.py", "_dead")]


def test_dead_function_scanner_finds_unread_public_names():
    a = ("def used():\n    return helper()\n"
         "def helper():\n    return 1\n"
         "def recursive(n):\n    return recursive(n - 1)\n"
         "def documented():\n    pass\n"
         "def _documented():\n    pass\n"
         "class Api:\n"
         "    def method(self):\n        return Api()\n"
         "    @property\n    def prop(self):\n        return self.prop\n"
         "    def __repr__(self):\n        return ''\n"
         "class Unread:\n    pass\n")
    b = "import a\nx = a.used(), a.Api().method()\n"
    assert unreferenced_functions({"a.py": a, "b.py": b}, {"documented", "_documented"}) == [
        ("a.py", "Api.prop"), ("a.py", "Unread"), ("a.py", "_documented"),
        ("a.py", "recursive")]


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, rekpool.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


#: Each step of deriving knowledge, and the one function that may call it.
DERIVATION_CALLERS = {"permutation_importance": "derive_knowledge",
                      "group_weights": "derive_knowledge",
                      "derive_knowledge": "FitCache.importance"}


def scoped_nodes(source: str):
    """Yield (node, enclosing function) for every node of `source`.  A
    method's enclosing function is written `Class.method`, a nested one
    `outer.inner`; module level is None."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if scope is None
                                 else f"{scope}.{child.name}")
                continue
            yield child, scope
            yield from visit(child, scope)
    yield from visit(ast.parse(source), None)


def derivation_calls(source: str) -> list:
    """(callee, enclosing function, line) of every call, as a function or a
    method, to a name in DERIVATION_CALLERS."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in DERIVATION_CALLERS:
                found.append((name, scope, node.lineno))
    return found


def stray(calls) -> list:
    """The calls made from a function other than the one allowed."""
    return [c for c in calls if c[1] != DERIVATION_CALLERS[c[0]]]


def test_knowledge_derived_in_one_place():
    calls = [c for p in sorted(SRC.glob("*.py")) for c in derivation_calls(p.read_text())]
    assert stray(calls) == []
    assert {c[0] for c in calls} == set(DERIVATION_CALLERS)  # no rule holds vacuously


def test_derivation_scanner_finds_planted_calls():
    source = ("class FitCache:\n"
              "    def importance(self, X):\n"
              "        return derive_knowledge(self, X)\n"
              "def derive_knowledge(c, X):\n"
              "    return group_weights(rf.permutation_importance(c.fit(X)))\n"
              "class Knowledge:\n"
              "    def get(self):\n"
              "        def again():\n"
              "            return permutation_importance(2)\n"
              "        return group_weights(derive_knowledge(self.cache, 3))\n"
              "W = group_weights(4)\n")
    calls = derivation_calls(source)
    assert calls[:3] == [("derive_knowledge", "FitCache.importance", 3),
                         ("group_weights", "derive_knowledge", 5),
                         ("permutation_importance", "derive_knowledge", 5)]
    assert stray(calls) == calls[3:] == [
        ("permutation_importance", "Knowledge.get.again", 9),
        ("group_weights", "Knowledge.get", 10), ("derive_knowledge", "Knowledge.get", 10),
        ("group_weights", None, 11)]


def pool_internals(source: str) -> list:
    """("FitCache.add" or "knowledge", enclosing function, line) of every
    `.add` call on a memo and every `.knowledge` attribute.  The package
    holds each `FitCache` under the name `cache` or as a `.cache`
    attribute, which tells a memo's `add` from a set's."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Attribute) and node.attr == "knowledge":
            found.append(("knowledge", scope, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"):
            holder = node.func.value
            if (holder.id if isinstance(holder, ast.Name)
                    else getattr(holder, "attr", None)) == "cache":
                found.append(("FitCache.add", scope, node.lineno))
    return found


def misused_pool_internals(module: str, uses) -> list:
    """The uses outside `pool.py`, and a `FitCache.add` in it made from a
    function other than `pool_from_dict`."""
    return [u for u in uses if module != "pool.py"
            or (u[0] == "FitCache.add" and u[1] != "pool_from_dict")]


def test_pool_internals_stay_in_pool():
    uses = {p.name: pool_internals(p.read_text()) for p in MODULES}
    assert [u for m, found in uses.items() for u in misused_pool_internals(m, found)] == []
    # no rule holds vacuously
    assert [u[:2] for u in uses["pool.py"] if u[0] == "FitCache.add"] == [
        ("FitCache.add", "pool_from_dict")]
    assert any(u[0] == "knowledge" for u in uses["pool.py"])


def test_pool_internals_scanner_finds_planted_uses():
    source = ("def pool_from_dict(d):\n"
              "    pool.cache.add(1, 2, m)\n"
              "    seen.add(3)\n"
              "def loo(template, cache):\n"
              "    cache.add(4, 5, 6)\n"
              "    return [e.knowledge.derived for e in template]\n"
              "class Pool:\n"
              "    def ingest(self, entry):\n"
              "        entry.knowledge = self.cache.add(7)\n")
    uses = pool_internals(source)
    assert uses == [
        ("FitCache.add", "pool_from_dict", 2), ("FitCache.add", "loo", 5),
        ("knowledge", "loo", 6), ("knowledge", "Pool.ingest", 9),
        ("FitCache.add", "Pool.ingest", 9)]
    assert misused_pool_internals("pool.py", uses) == [
        u for u in uses if u[0] == "FitCache.add" and u[1] != "pool_from_dict"]
    assert misused_pool_internals("pipeline.py", uses) == uses


def seed_sequences(source: str) -> list:
    """(enclosing function, line) of every call to `SeedSequence`, as a
    name or as an attribute such as `np.random.SeedSequence`."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "SeedSequence":
                found.append((scope, node.lineno))
    return found


def test_seed_sequence_built_only_by_stream():
    calls = [(p.name, *c) for p in MODULES for c in seed_sequences(p.read_text())]
    assert [c[:2] for c in calls] == [("geometry.py", "stream")]  # exactly one call site


def test_seed_sequence_scanner_finds_planted_calls():
    source = ("import numpy as np\n"
              "from numpy.random import SeedSequence\n"
              "def stream(seed, *keys):\n"
              "    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))\n"
              "def _grow(seed):\n"
              "    return np.random.default_rng(SeedSequence([seed, 0]))\n"
              "class Forest:\n"
              "    def draw(self):\n"
              "        return [np.random.SeedSequence(t) for t in range(2)]\n"
              "RNG = np.random.default_rng(np.random.SeedSequence(1))\n")
    assert seed_sequences(source) == [("stream", 4), ("_grow", 6), ("Forest.draw", 9),
                                      (None, 10)]


def similarity_calls(source: str) -> list:
    """(enclosing function, line) of every call to `similarity`, as a name
    or as an attribute such as `pool.similarity`."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "similarity":
                found.append((scope, node.lineno))
    return found


def test_similarity_called_only_in_pool():
    found = {p.name: similarity_calls(p.read_text()) for p in MODULES}
    assert [m for m, calls in found.items() if calls] == ["pool.py"]  # not vacuous


def test_similarity_scanner_finds_planted_calls():
    source = ("from rekpool.pool import similarity\n"
              "def show(pool):\n"
              "    m = [[similarity(a, b) for b in pool] for a in pool]\n"
              "    return pool.similarities(), m\n"
              "class Report:\n"
              "    def nearest(self, a, b):\n"
              "        return rekpool.pool.similarity(a, b)\n"
              "S = similarity\n")
    assert similarity_calls(source) == [("show", 3), ("Report.nearest", 7)]


BASE64_FUNCTIONS = tuple(n for n in dir(base64)
                         if not n.startswith("_") and callable(getattr(base64, n)))


def base64_calls(source: str) -> list:
    return module_calls(source, "base64", BASE64_FUNCTIONS)


def test_base64_called_only_by_blob_helpers():
    calls = [(p.name, func) for p in MODULES for func, _ in base64_calls(p.read_text())]
    assert calls == [("geometry.py", "to_blob"), ("geometry.py", "from_blob")]


def test_base64_scanner_finds_planted_calls():
    source = ("import base64\nfrom base64 import b64decode\n"
              "def to_blob(a):\n    return base64.b64encode(a)\n"
              "class Trees:\n    def to_dict(self):\n"
              "        return base64.urlsafe_b64encode(self.feature.tobytes())\n"
              "RAW = base64.b64decode('AA==')\n")
    assert base64_calls(source) == [(None, 2), ("to_blob", 4), ("to_dict", 7), (None, 8)]
