"""The library is what its callers reach.

Every public name a ``src/`` module defines at its top level must be named
somewhere else in ``src/``, in ``qbench/``, ``scripts/``, the README or the
CI workflow; a name only the tests reach is dead code.  The few that stay
for a reason are listed below, each with its reason, and the list must
match exactly, so a name that becomes reached leaves it too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "random_single_axis_model": "draws the models of acceptance criterion 2",
    "c2_failure_subalgebra": "the trap algebra of acceptance criterion 2",
    "case_1b_basis": "the 1b algebra that ROADMAP item 4 compares closures with",
    "case_1c_basis": "the 1c algebra that ROADMAP item 4 compares closures with",
    "case_2a_basis": "the 2a algebra that ROADMAP item 4 compares closures with",
    "reduced_pair_special_basis": "shares _gamma_elements with gamma_suite",
    "SIGMA_Y": "one of the three skew Paulis, next to SIGMA_X and SIGMA_Z",
}


def _defined(tree: ast.Module):
    """(name, node) for every name a module binds by def, class or
    assignment at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _callers_text() -> str:
    files = [ROOT / "README.md"]
    for folder, patterns in (("qbench", ("*.py", "*.md")),
                             ("scripts", ("*.py", "*.md")),
                             (".github", ("*.yml", "*.yaml"))):
        for pattern in patterns:
            files += (ROOT / folder).rglob(pattern)
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def unreached_names() -> set:
    """Public top-level names of ``src/`` modules that no caller names,
    where a module's own definition of a name does not count."""
    sources = {p: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    callers = _callers_text()
    dead = set()
    for path, text in sources.items():
        lines = text.splitlines()
        for name, node in _defined(ast.parse(text)):
            if name.startswith("_"):
                continue
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            corpus = "\n".join([callers, *rest, *(t for p, t in sources.items()
                                                  if p != path)])
            if not re.search(rf"\b{re.escape(name)}\b", corpus):
                dead.add(name)
    return dead


def test_every_public_name_has_a_caller():
    dead = unreached_names()
    unlisted = sorted(dead - set(ALLOWED))
    assert not unlisted, f"public names that only tests reach: {unlisted}"
    reached = sorted(set(ALLOWED) - dead)
    assert not reached, f"allow-listed names that a caller reaches: {reached}"
