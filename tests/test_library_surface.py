"""The library keeps only what the system calls.

Every public module-level name defined in ``src/sbmdp`` must be used by
the package or the benchmark (``perfbench/``) outside its own definition,
or be exported in ``sbmdp.__all__``. Every private one (``_name``, dunders
aside) must be used by the package itself outside its own definition, so
that no helper lives on for the tests alone. Every public method and
property of a class defined there must be reached by an attribute use
``.name`` in the package or the benchmark outside its own definition;
``np.name`` and ``numpy.name`` are numpy's names, not callers. Helpers
and reference oracles that only the tests need live in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import sbmdp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sbmdp"
SOURCES = {path: path.read_text()
           for root in (PACKAGE, ROOT / "perfbench")
           for path in sorted(root.rglob("*.py"))}


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def names_without_caller(private: bool) -> list[str]:
    """The public (or private) module-level names of the package that no
    line outside their own definition mentions; the private ones count
    callers in the package alone."""
    sources = {path: text.splitlines() for path, text in SOURCES.items()
               if not private or path.is_relative_to(PACKAGE)}
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            own = range(node.lineno, node.end_lineno + 1)
            for name in defined_names(node):
                if (name.startswith("__") or name.startswith("_") != private
                        or name in sbmdp.__all__):
                    continue
                word = re.compile(rf"\b{re.escape(name)}\b")
                if not any(word.search(line)
                           for src, lines in sources.items()
                           for lineno, line in enumerate(lines, start=1)
                           if not (src == path and lineno in own)):
                    missing.append(f"{path.stem}.{name}")
    return missing


def members_without_caller() -> list[str]:
    trees = {path: ast.parse(text) for path, text in SOURCES.items()}
    uses = [(path, node.lineno, node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("np", "numpy"))]
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if (not isinstance(member, ast.FunctionDef)
                        or member.name.startswith("_")):
                    continue
                own = range(member.lineno, member.end_lineno + 1)
                if not any(attr == member.name and not (src == path and line in own)
                           for src, line, attr in uses):
                    missing.append(f"{path.stem}.{cls.name}.{member.name}")
    return missing


def test_every_public_name_has_a_library_or_benchmark_caller():
    assert names_without_caller(private=False) == []


def test_every_private_name_has_a_library_caller():
    assert names_without_caller(private=True) == []


def test_every_public_class_member_has_a_library_or_benchmark_caller():
    assert members_without_caller() == []
