"""Source hygiene: every module under src/diffalg uses each name it imports,
and imports nothing outside the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffalg"
# __init__.py imports only to re-export
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source):
    """(line, name) of each imported name never read and not listed in __all__."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used | exported)


def test_checker_flags_only_unread_names():
    source = "import os.path\nimport sys\nfrom json import dumps, loads\n__all__ = ['loads']\nsys.exit(os.sep)\n"
    assert _unused_imports(source) == [(3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _foreign_imports(source):
    """(line, module) of each import that is neither stdlib nor diffalg."""
    allowed = sys.stdlib_module_names | {"diffalg"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in allowed]
    return found


def test_dependency_checker_flags_third_party_modules():
    source = "import os, sympy.core\nfrom . import poly\nfrom hypothesis import given\nfrom diffalg.poly import collect\nimport bench.spans\n"
    assert _foreign_imports(source) == [(1, "sympy.core"), (3, "hypothesis"), (5, "bench.spans")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_runtime_dependencies(path):
    assert _foreign_imports(path.read_text()) == []


def _four_element_targets(source):
    """Lines where a four-element tuple or list is in an assignment or loop target.

    That covers unpacking into four names and storing under a four-element
    subscript such as ``terms[(xe, ye, 0, 0)] = value``.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            targets = [node.target]
        else:
            continue
        lines.update(
            sub.lineno
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, (ast.Tuple, ast.List)) and len(sub.elts) == 4
        )
    return sorted(lines)


def test_key_checker_flags_four_element_targets():
    source = (
        "a, b, c, d = key\n"
        "for (w, x, y, z), v in items:\n"
        "    p, q = v\n"
        "out = [e for [e, f, g, h] in keys]\n"
        "key = (1, 2, 3, 4)\n"
        "first, *rest = key\n"
        "terms[(xe, ye, 0, 0)] = 1\n"
    )
    assert _four_element_targets(source) == [1, 2, 4, 7]


# The layout of a term key (x-, y-, c- and h-exponents) is private to poly.py.
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"], ids=lambda path: path.name)
def test_term_keys_are_unpacked_only_in_poly(path):
    assert _four_element_targets(path.read_text()) == []


def _pairwise_sums(source):
    """Lines that sum by hand: ``name = name + ...`` inside a loop, or the
    builtin ``sum`` with a start value."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            lines.update(
                sub.lineno
                for sub in ast.walk(node)
                if isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.BinOp)
                and isinstance(sub.value.op, ast.Add)
                and isinstance(sub.value.left, ast.Name)
                and sub.value.left.id == sub.targets[0].id
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and (len(node.args) > 1 or any(kw.arg == "start" for kw in node.keywords))
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_sum_checker_flags_hand_written_sums():
    source = (
        "out = out + a\n"
        "for p in ps:\n"
        "    if p:\n"
        "        out = out + p\n"
        "    out = out - p\n"
        "    out = p + out\n"
        "    out += p\n"
        "    terms[k] = terms[k] + p\n"
        "while out:\n"
        "    total = total + out.pop()\n"
        "n = sum(ps, zero)\n"
        "n = sum(ps, start=zero)\n"
        "n = sum(p for p in ps)\n"
        "n = LaurentPoly.sum(ctx, ps)\n"
    )
    assert _pairwise_sums(source) == [4, 10, 11, 12]


# Polynomials are summed by LaurentPoly.sum, RationalFunction.sum or sum_by_key.
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_sums_go_through_the_summation_route(path):
    assert _pairwise_sums(path.read_text()) == []


SHARED_METHODS = {"__add__", "__sub__", "__neg__", "__eq__", "__hash__", "is_zero", "text", "__repr__"}


def _shared_method_copies(source):
    """(line, class, name) of each method of ``poly.TermSum`` that a direct
    subclass defines again, by ``def`` or by assignment."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
            isinstance(base, ast.Name) and base.id == "TermSum" for base in node.bases
        ):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [(stmt.lineno, node.name, name) for name in names if name in SHARED_METHODS]
    return found


def test_shared_method_checker_flags_copies_in_term_sums_only():
    source = (
        "class A(TermSum):\n"
        "    def _like(self, terms):\n"
        "        return A(terms)\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    __repr__ = text = _like\n"
        "class B(Immutable):\n"
        "    def __add__(self, other):\n"
        "        return self\n"
        "class TermSum(Immutable):\n"
        "    def is_zero(self):\n"
        "        return True\n"
    )
    assert _shared_method_copies(source) == [(4, "A", "__eq__"), (6, "A", "__repr__"), (6, "A", "text")]


# Sum, equality and printing of a term sum are written once, in poly.TermSum.
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_term_sums_keep_one_implementation(path):
    assert _shared_method_copies(path.read_text()) == []
