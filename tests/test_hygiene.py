"""Source hygiene: every function the package defines is used somewhere,
and every optional parameter it declares is set by some call.

An `ast` pass lists the top-level functions and the methods of top-level
classes in src/grpverify.  Each name must be referenced at least once in
the Python files of src/, tests/, perfbench/ or benches/: as a name, an
attribute or an imported name, outside the body of a function of that
name (a function that only calls itself is not used).  Words in strings,
comments and docstrings do not count.  Claim runners (registered by
`@claim`), dunders and `main` are exempt.

Each parameter with a default must be passed, by keyword or by position,
in at least one call to its function in those files; a default that no
call overrides is a constant, not a setting.  Nor may every call pass
it: a default that every call overrides is never used, so the parameter
should be required.  A call is matched by the name it calls (`f(...)` or
`x.f(...)`; `C(...)` for `C.__init__`).

The modules of the package import one another without a cycle, imports
inside functions included.

No module installs a signal handler or sets a signal timer: the parent
process enforces each claim's deadline by killing the claim's process.

No module imports multiprocessing: `ledger.run` forks each claim's process
and reads its result from a pipe itself.

Outside perm.py no module calls a permutation `compose`: every product
is read from a column.  No module but smallgroup touches a group's stored
columns or its breadth-first tree: the rest read products through
`column` or `right`.  Inside smallgroup only `_enumerate`, which builds
them, and `column` and `_descent`, which read them, do.
"""

import ast
import os
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grpverify"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench", ROOT / "benches"]


def _is_claim_runner(fn) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "claim"
               for d in fn.decorator_list)


def _is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions():
    """(file, class name or None, node) of every top-level function and
    method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            members = node.body if owner else [node]
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path.relative_to(ROOT), owner, fn


def defined_functions():
    """(file, line, name) of every top-level function and method."""
    for path, _owner, fn in definitions():
        name = fn.name
        if name == "main" or _is_dunder(name) or _is_claim_runner(fn):
            continue
        yield path, fn.lineno, name


class _References(ast.NodeVisitor):
    """Counts names, attributes and imported names, each outside the
    functions of its own name."""

    def __init__(self):
        self.counts = Counter()
        self.enclosing = []  # names of the functions around the node

    def _count(self, name):
        if name not in self.enclosing:
            self.counts[name] += 1

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._count(node.id)

    def visit_Attribute(self, node):
        self._count(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._count(node.name.rpartition(".")[2])


def reference_counts() -> Counter:
    refs = _References()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            refs.visit(ast.parse(path.read_text(), str(path)))
    return refs.counts


def calls_by_name() -> dict:
    """Every call in the searched files, keyed by the name it calls."""
    out = defaultdict(list)
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    out[name].append(node)
    return out


def optional_parameters(owner, fn):
    """(position in a call or None, name) of each parameter with a default.

    The position counts the arguments a call passes, so a method's self or
    cls is not counted; keyword-only parameters have no position.
    """
    args = fn.args
    positional = args.posonlyargs + args.args
    shift = 1 if owner and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list) else 0
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield i - shift, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def sets_parameter(call, position, name) -> bool:
    """True iff the call may pass the parameter, by keyword or position."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def parameter_settings(owner, fn, calls):
    """(name, whether each call sets it) of each parameter with a default."""
    return [(name, [sets_parameter(c, position, name) for c in calls])
            for position, name in optional_parameters(owner, fn)]


def defaults_and_their_calls():
    """(where, whether each call sets it) of every parameter with a default
    that the package declares."""
    calls = calls_by_name()
    for path, owner, fn in definitions():
        if _is_dunder(fn.name) and fn.name != "__init__":
            continue
        called = calls[owner if fn.name == "__init__" else fn.name]
        shown = f"{owner}.{fn.name}" if owner else fn.name
        for name, sets in parameter_settings(owner, fn, called):
            yield f"{path}:{fn.lineno} {shown}({name}=...)", sets


def test_every_optional_parameter_is_set_by_some_call():
    unset = [where for where, sets in defaults_and_their_calls() if not any(sets)]
    assert unset == [], "defaults no call overrides: " + ", ".join(unset)


def test_no_default_is_overridden_by_every_call():
    dead = [where for where, sets in defaults_and_their_calls()
            if sets and all(sets)]
    assert dead == [], "defaults every call overrides: " + ", ".join(dead)


def test_a_default_every_call_overrides_is_never_used():
    fn = ast.parse("def f(a, b=1, c=2):\n    pass\n").body[0]
    calls = [ast.parse(src).body[0].value for src in ("f(0, 5)", "f(0, b=6)")]
    assert parameter_settings(None, fn, calls) == [("b", [True, True]),
                                                   ("c", [False, False])]


def test_a_parameter_passed_by_position_or_keyword_is_set():
    fn = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n").body[0]
    assert list(optional_parameters(None, fn)) == [(1, "b"), (None, "c"),
                                                   (None, "d")]
    call = ast.parse("f(0, 5, c=6)").body[0].value
    assert [sets_parameter(call, pos, name)
            for pos, name in optional_parameters(None, fn)] == [True, True, False]
    method = ast.parse("class K:\n    def f(self, a=1):\n        pass\n"
                       ).body[0].body[0]
    assert list(optional_parameters("K", method)) == [(0, "a")]
    assert sets_parameter(ast.parse("k.f(*xs)").body[0].value, 0, "a")


def test_every_function_is_used():
    refs = reference_counts()
    unused = [f"{path}:{line} {name}" for path, line, name in defined_functions()
              if not refs[name]]
    assert unused == [], "defined but never used: " + ", ".join(unused)


def test_a_function_that_only_calls_itself_is_unused():
    refs = _References()
    refs.visit(ast.parse(
        "def power(i, e):\n"
        "    return power(i, e - 1) if e else 1\n"
        "# power, in a comment\n"
        "'prime power, in a string'\n"))
    assert refs.counts["power"] == 0
    refs.visit(ast.parse("from m import power\nx.power(2, 3)\n"))
    assert refs.counts["power"] == 2


def imported_names(source):
    """(module, name) of every import in the source, those inside functions
    included; name is None where a whole module is imported."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], None
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if module in ("", "grpverify"):  # from . import lattice
                    yield alias.name, None
                else:
                    yield module, alias.name


def test_construct_runs_no_group_query():
    """Building a group runs no query: construct takes nothing from autmorph
    and only Sub from lattice."""
    imports = set(imported_names((PACKAGE / "construct.py").read_text()))
    assert {(m, n) for m, n in imports if m in ("autmorph", "lattice")} \
        == {("lattice", "Sub")}


def test_imported_names_include_lazy_and_module_imports():
    snippet = ("from .lattice import Sub\n"
               "def f():\n"
               "    from . import autmorph\n"
               "    import grpverify.lattice\n"
               "    from grpverify.autmorph import invariant\n")
    assert set(imported_names(snippet)) == {
        ("lattice", "Sub"), ("autmorph", None), ("lattice", None),
        ("autmorph", "invariant")}


def import_graph(sources):
    """module -> the modules of the package its source imports, given
    module -> source; imports inside functions count."""
    return {mod: {m for m, _ in imported_names(src) if m in sources and m != mod}
            for mod, src in sources.items()}


def import_cycles(graph):
    """The sorted modules of each strongly connected part of the graph that
    holds more than one module, or a module importing itself."""
    reach = {}
    for start in graph:
        seen = set()
        todo = list(graph[start])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(graph[m])
        reach[start] = seen
    return sorted({tuple(sorted(m for m in reach[start] if start in reach[m]))
                   for start in graph if start in reach[start]})


def test_no_import_cycle():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert import_cycles(import_graph(sources)) == []


def test_an_import_inside_a_function_closes_a_cycle():
    sources = {"lattice": ("from .smallgroup import bits\n"
                           "def is_isomorphic():\n"
                           "    from .autmorph import find_isomorphism\n"),
               "autmorph": "from .lattice import all_subgroups\n",
               "smallgroup": "import math\n"}
    graph = import_graph(sources)
    assert graph == {"lattice": {"smallgroup", "autmorph"},
                     "autmorph": {"lattice"}, "smallgroup": set()}
    assert import_cycles(graph) == [("autmorph", "lattice")]
    del sources["lattice"]
    assert import_cycles(import_graph(sources)) == []


def grown_closes(source):
    """The line of each call to a `close` in the source that is handed a
    `+` concatenation: a generating set grown by hand and closed again
    from the identity."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "close"
                and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Add)
                        for a in node.args)):
            yield node.lineno


def test_close_is_never_handed_a_grown_generating_set():
    """A known subgroup gains generators through `grow` or `extender`, from
    its own elements; `close` closes only from the identity."""
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in grown_closes(path.read_text())]
    assert found == []


def test_grown_closes_read_method_and_plain_calls():
    snippet = ("m.close(gens + [y])\n"
               "close(list(a) + list(b), maps)\n"
               "m.close(gens)\n"
               "m.close(seed, maps)\n"
               "m.extender(mask, gens)(a + b)\n")
    assert list(grown_closes(snippet)) == [1, 2]


SIGNAL_SETTERS = {"signal", "setitimer", "alarm"}


def signal_setters(source):
    """The names of the calls in the source that set a signal handler or
    timer: signal.signal(...), signal.setitimer(...), signal.alarm(...), or
    one of those imported from signal by name."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "signal"
                for alias in node.names if alias.name in SIGNAL_SETTERS}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in SIGNAL_SETTERS
                and getattr(f.value, "id", None) == "signal"):
            yield f"signal.{f.attr}"
        elif isinstance(f, ast.Name) and f.id in imported:
            yield f.id


def test_no_module_sets_a_signal_handler_or_timer():
    found = sorted(f"{path.name}: {call}"
                   for path in PACKAGE.glob("*.py")
                   for call in signal_setters(path.read_text()))
    assert found == []


def test_signal_setters_read_module_and_imported_calls():
    snippet = ("import signal\n"
               "from signal import alarm as later, getsignal\n"
               "old = signal.signal(signal.SIGALRM, h)\n"
               "signal.setitimer(signal.ITIMER_REAL, 0)\n"
               "later(5)\n"
               "getsignal(signal.SIGALRM)\n"
               "os.kill(pid, signal.SIGKILL)\n")
    assert list(signal_setters(snippet)) == [
        "signal.signal", "signal.setitimer", "later"]


def imported_modules(source):
    """The dotted name of every module the source imports, those imported
    inside functions included; a relative import gives its dots."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_no_module_imports_multiprocessing():
    found = sorted(f"{path.relative_to(ROOT)}: {mod}"
                   for path in (ROOT / "src").rglob("*.py")
                   for mod in imported_modules(path.read_text())
                   if mod.split(".")[0] == "multiprocessing")
    assert found == []


def test_imported_modules_read_plain_from_and_lazy_imports():
    snippet = ("import os, multiprocessing.connection as mc\n"
               "from multiprocessing import get_context\n"
               "from . import ledger\n"
               "def run():\n"
               "    import multiprocessing\n"
               "    from .smallgroup import Caps\n")
    assert list(imported_modules(snippet)) == [
        "os", "multiprocessing.connection", "multiprocessing", ".",
        "multiprocessing", ".smallgroup"]


def test_verify_runs_without_multiprocessing():
    import subprocess
    import sys

    probe = ("import sys\n"
             "from grpverify.cli import main\n"
             "code = main(['verify', '--claim', 'SHARP-D10'])\n"
             "print(code, 'multiprocessing' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.splitlines()[-1] == "0 False", out.stderr


BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "benches").glob("*.py"))


def engine_bindings(source):
    """The dotted names of the package that the source uses: each name a
    `from grpverify.<mod> import <name>` imports, each attribute chain on a
    module bound by `from grpverify import <mod>` (perm.compose,
    smallgroup.MaterializedGroup.mul), and each (module, attribute) of a
    `SPANS` table."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "grpverify":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif node.module.startswith("grpverify."):
                yield from (f"{node.module[10:]}.{alias.name}"
                            for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules:
                yield ".".join([value.id, *reversed(chain)])
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) == "SPANS"):
            yield from (f"{mod}.{attr}"
                        for mod, attr, _ in ast.literal_eval(node.value))


def resolves(dotted) -> bool:
    import importlib

    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"grpverify.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_engine_name_the_benchmarks_use_exists():
    """A rename in the package that perfbench/ or benches/ still uses
    fails here, not only in a benchmark run."""
    used = {(path.relative_to(ROOT), dotted) for path in BENCH_SOURCES
            for dotted in engine_bindings(path.read_text())}
    dotted = {d for _, d in used}
    for wrapped in ("perm.compose", "smallgroup.MaterializedGroup.mul",
                    "cli.parse_expr", "construct.build"):
        assert wrapped in dotted  # the bindings are read at all
    missing = sorted(f"{path}: {d}" for path, d in used if not resolves(d))
    assert missing == [], "missing from the package: " + ", ".join(missing)


def test_engine_bindings_read_imports_attributes_and_spans():
    snippet = ("from grpverify import perm, smallgroup\n"
               "from grpverify.cli import parse_expr\n"
               "SPANS = ((\"lattice\", \"quotient\", \"lattice.quotient\"),)\n"
               "perm.compose = f\n"
               "x = smallgroup.MaterializedGroup.mul\n"
               "y = other.thing\n")
    assert sorted(set(engine_bindings(snippet))) == [
        "cli.parse_expr", "lattice.quotient", "perm.compose",
        "smallgroup.MaterializedGroup", "smallgroup.MaterializedGroup.mul"]
    assert not resolves("cli.no_such_name")


def compose_calls(source):
    """(line, enclosing class or None) of each call in the source of a
    function named compose: compose(...), pm.compose(...), or a name that
    `from ... import compose as name` binds."""
    tree = ast.parse(source)
    names = {"compose"} | {alias.asname for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom)
                           for alias in node.names
                           if alias.name == "compose" and alias.asname}
    owner = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                owner.setdefault(node, cls.name)  # walked outermost first
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) in names or getattr(f, "attr", None) \
                    == "compose":
                yield node.lineno, owner.get(node)


def test_only_perm_composes():
    """Outside perm.py, whose PermGroup sifts by composing, nothing
    composes two permutations."""
    found = sorted(f"{path.name}:{line} in {cls}"
                   for path in PACKAGE.glob("*.py") if path.name != "perm.py"
                   for line, cls in compose_calls(path.read_text()))
    assert found == [], "compose outside perm.py: " + ", ".join(found)


def test_compose_calls_read_methods_aliases_and_the_column():
    snippet = ("from . import perm as pm\n"
               "from .perm import compose as cmp, inverse\n"
               "class ComposedColumn:\n"
               "    def __getitem__(self, i):\n"
               "        return self.index[pm.compose(self.perms[i], self.p)]\n"
               "class MaterializedGroup:\n"
               "    def mul(self, i, j):\n"
               "        return self.index[pm.compose(i, j)]\n"
               "def f(a, b):\n"
               "    return cmp(a, inverse(b)), pm.composed(a)\n")
    assert dict(compose_calls(snippet)) == {
        5: "ComposedColumn", 8: "MaterializedGroup", 10: None}


TABLE_ATTRS = {"_cols", "_tree", "_steps"}  # a group's columns and tree


def table_touches(source):
    """(line, attribute) of each read, write or del of a TABLE_ATTRS
    attribute in the source, on any object."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in TABLE_ATTRS:
            yield node.lineno, node.attr


def test_only_smallgroup_touches_the_columns():
    found = sorted(f"{path.name}:{line} {attr}"
                   for path in PACKAGE.glob("*.py")
                   if path.name != "smallgroup.py"
                   for line, attr in table_touches(path.read_text()))
    assert found == [], "columns touched outside smallgroup: " \
        + ", ".join(found)


def test_table_touches_find_reads_writes_and_deletes():
    snippet = ("def f(M, N):\n"
               "    c = M._cols[3]\n"
               "    N._cols = None\n"
               "    del M._tree\n"
               "    return M.column(3), M.tree, M.cols, c, N._steps[0]\n")
    assert sorted(table_touches(snippet)) == [
        (2, "_cols"), (3, "_cols"), (4, "_tree"), (5, "_steps")]


TABLE_READERS = {"_enumerate", "_descent", "column"}


def table_touchers(source):
    """(line, attribute, outermost enclosing function or None) of each of
    the source's `table_touches`."""
    spans = [(fn.lineno, fn.end_lineno, fn.name)  # outermost first
             for fn in ast.walk(ast.parse(source))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for line, attr in table_touches(source):
        yield line, attr, next((name for first, last, name in spans
                                if first <= line <= last), None)


def test_only_the_table_methods_touch_the_columns():
    """Inside smallgroup, the columns and the tree are built by
    `_enumerate` and read by `column` and `_descent`; every other reader
    of products goes through `column` or `right`."""
    found = sorted(f"smallgroup.py:{line} {attr} in {fn}"
                   for line, attr, fn in table_touchers(
                       (PACKAGE / "smallgroup.py").read_text())
                   if fn not in TABLE_READERS)
    assert found == [], "columns touched outside " \
        + ", ".join(sorted(TABLE_READERS)) + ": " + ", ".join(found)


def test_table_touchers_name_the_outermost_function():
    snippet = ("class G:\n"
               "    def column(self, j):\n"
               "        return self._cols[j]\n"
               "    def mul(self, i, j):\n"
               "        def step(k):\n"
               "            return self._steps[k]\n"
               "        return self._cols.get(j)\n"
               "top = G()._tree\n")
    assert sorted(table_touchers(snippet)) == [
        (3, "_cols", "column"), (6, "_steps", "mul"), (7, "_cols", "mul"),
        (8, "_tree", None)]
