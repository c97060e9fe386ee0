"""Source hygiene: every function the package defines is used somewhere.

An `ast` pass lists the top-level functions and the methods of top-level
classes in src/grpverify.  Each name must be referenced at least once in
the Python files of src/, tests/, perfbench/ or benches/: as a name, an
attribute or an imported name, outside the body of a function of that
name (a function that only calls itself is not used).  Words in strings,
comments and docstrings do not count.  Claim runners (registered by
`@claim`), dunders and `main` are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grpverify"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench", ROOT / "benches"]


def _is_claim_runner(fn) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "claim"
               for d in fn.decorator_list)


def defined_functions():
    """(file, line, name) of every top-level function and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = fn.name
                if name == "main" or (name.startswith("__")
                                      and name.endswith("__")):
                    continue
                if _is_claim_runner(fn):
                    continue
                yield path.relative_to(ROOT), fn.lineno, name


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
