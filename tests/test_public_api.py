"""Every public top-level function and class of the package has a caller.

A name counts as used when code in the package or in the benchmark
(perfbench/) refers to it outside its own definition, by name, attribute
or string (the benchmark patches functions by attribute name).  Imports
and `__all__` entries are re-exports, not uses.  A definition used only
by another unused definition is unused too, so the unused set is grown to
a fixed point.  Names that only an oracle test calls are listed in
ORACLE_ONLY with the test that needs them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gldimer"

ORACLE_ONLY = {
    ("closedform", "critical_gamma"):
        "test_acceptance.py::test_criterion_04_nonoscillatory_branches",
    ("steadysolve", "verify_attractor"):
        "test_acceptance.py::test_criterion_08_attractor_rate",
    ("meanfield", "angle_velocities"):
        "test_acceptance.py::test_criterion_10_meanfield_consistency",
}


def _is_reexport(stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _scan(paths):
    """Public top-level definitions of the package modules, and every
    (referenced name, owner) pair, the owner being the enclosing top-level
    definition as (module, name), or None at module level."""
    defs, refs = set(), []
    for path in paths:
        module = path.stem
        in_package = path.parent == PACKAGE
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, stmt.name)
                if in_package and not stmt.name.startswith("_"):
                    defs.add(owner)
            if _is_reexport(stmt):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.append((node.attr, owner))
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    refs.append((node.value, owner))
    return defs, refs


def unused_definitions(paths, keep=()):
    defs, refs = _scan(paths)
    unused = set()
    while True:
        live = [(name, owner) for name, owner in refs if owner not in unused]
        grown = {d for d in defs - set(keep)
                 if not any(name == d[1] and owner != d
                            for name, owner in live)}
        if grown == unused:
            return unused
        unused = grown


def test_every_public_definition_has_a_caller():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    unused = unused_definitions(paths, keep=ORACLE_ONLY)
    assert not unused, "public definitions without a caller in src/gldimer " \
        "or perfbench/: " + ", ".join(
            f"{m}.{n}" for m, n in sorted(unused))


def test_oracle_only_names_are_defined_and_called_by_their_test():
    defs, _refs = _scan(sorted(PACKAGE.glob("*.py")))
    for (module, name), test in ORACLE_ONLY.items():
        assert (module, name) in defs
        test_file = Path(__file__).parent / test.split("::")[0]
        assert name in test_file.read_text(), test
