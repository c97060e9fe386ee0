"""Source hygiene: every function the package defines is used somewhere.

An `ast` pass lists the top-level functions and the methods of top-level
classes in src/grpverify.  Each name must occur, as a whole word, at
least once more in the Python files of src/, tests/ or perfbench/ than
it is defined; otherwise nothing calls it and it is dead code.  Claim
runners (registered by `@claim`), dunders and `main` are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grpverify"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


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


def word_counts() -> Counter:
    words = Counter()
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_every_function_is_used():
    defs = list(defined_functions())
    times_defined = Counter(name for _, _, name in defs)
    words = word_counts()
    unused = [f"{path}:{line} {name}" for path, line, name in defs
              if words[name] <= times_defined[name]]
    assert unused == [], "defined but never used: " + ", ".join(unused)
