"""The orientation of the Hodge-Riemann relations has one owner.

The library reads ``i_power`` only inside ``lmhs.hermitian_sign``: every
positivity check, of a pure structure or of a limiting one, and every
Hodge metric takes its sign unit from there, so the two cannot drift
apart.  A use is any read of the name, called or not (``f = i_power``
would hand it on), by itself or as an attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hodgecalc"


def i_power_uses(source: str):
    """(line, function) of each read of ``i_power``, with the name of the
    innermost function around it ("" at module level)."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name == "i_power" and isinstance(child.ctx, ast.Load):
                out.append((child.lineno, owner))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)
    visit(ast.parse(source), "")
    return sorted(out)


def test_only_hermitian_sign_reads_i_power():
    uses = {(path.stem, owner) for path in sorted(PACKAGE.glob("*.py"))
            for _, owner in i_power_uses(path.read_text())}
    assert uses == {("lmhs", "hermitian_sign")}


def test_the_check_finds_every_use():
    source = ("from .rationals import i_power\n"
              "def i_power_twice(k):\n    return i_power(k) * i_power(k)\n"
              "UNIT = i_power(1)\n"
              "class C:\n    def weil(self, split):\n"
              "        return split.diagonal(lambda key: rationals.i_power(key[0]))\n"
              "    def handed_on(self):\n        f = i_power\n        return f\n")
    assert i_power_uses(source) == [(3, "i_power_twice"), (3, "i_power_twice"), (4, ""),
                                    (7, "weil"), (9, "handed_on")]
