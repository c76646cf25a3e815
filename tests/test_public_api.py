"""Every public top-level function and class of the package, and every
public UPPER_CASE constant of its public modules, has a caller, and every
public field and property of its public classes a reader.

A name counts as used when code in the package or in the benchmark
(perfbench/) refers to it outside its own definition, by name, attribute
or string (the benchmark patches functions by attribute name).  Imports
and `__all__` entries are re-exports, not uses.  A definition used only
by another unused definition is unused too, so the unused set is grown to
a fixed point.  Names that only an oracle test calls are listed in
ORACLE_ONLY with the test that needs them.

A member (a dataclass field or annotated attribute, or a property) counts
as read when an attribute of its name is loaded anywhere in the package
or the benchmark, its own class's methods included, or when a string
constant there spells its name (`getattr` with a key, as the sweep's work
sums read the root-search counts).  Its own annotation and keyword
arguments that set it are not reads.  Members that only an oracle test
reads are listed in ORACLE_MEMBERS with that test.  The match is by name
alone, whatever the object: `.n` or `.state` of any object, or a column
or key spelled "n", counts for every member of that name, so a dead
member whose name another one shares or a string spells passes unseen.
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
    ("fock", "COMPONENT_NAMES"):
        "test_acceptance.py::test_criterion_09_closure_consistency_gate",
}

ORACLE_MEMBERS = {
    ("fock", "MomentTrajectory", "reduced_bloch"):
        "test_acceptance.py::test_criterion_10_meanfield_consistency",
    ("meanfield", "GpeTrajectory", "bloch"):
        "test_acceptance.py::test_criterion_10_meanfield_consistency",
    ("closedform", "SteadyMoments", "reduced_s_y"):
        "test_acceptance.py::test_criterion_01_steady_state_reduced_moments",
    ("closedform", "NonOscillatoryPair", "s_y0"):
        "test_closedform.py::test_nonoscillatory_angle_consistency",
    ("closedform", "NonOscillatoryPair", "s_z0"):
        "test_closedform.py::test_nonoscillatory_angle_consistency",
    ("liouville", "Trajectory", "rho_final"):
        "test_liouville.py::test_block_route_matches_full_route",
    ("steadysolve", "AttractorReport", "distances"):
        "test_steadysolve.py::test_attractor_zero_perturbation",
    ("steadysolve", "AttractorReport", "fitted_rates"):
        "test_acceptance.py::test_criterion_08_attractor_rate",
}


def _is_reexport(stmt) -> bool:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _constant_name(stmt):
    """The UPPER_CASE name a module-level assignment binds, or None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if isinstance(target, ast.Name) and target.id.isupper():
        return target.id
    return None


def _scan(paths):
    """Public top-level definitions of the package modules (functions,
    classes, and the UPPER_CASE constants of the public modules), and
    every (referenced name, owner) pair, the owner being the enclosing
    top-level definition as (module, name), or None at module level."""
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
            elif name := _constant_name(stmt):
                owner = (module, name)
                if in_package and not module.startswith("_") \
                        and not name.startswith("_"):
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


def _is_property(fn) -> bool:
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
               in ("property", "cached_property") for d in fn.decorator_list)


def public_members(paths):
    """(module, class, member) of every public field and property of the
    public top-level classes in paths."""
    members = set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            for item in stmt.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and _is_property(item):
                    name = item.name
                else:
                    continue
                if not name.startswith("_"):
                    members.add((path.stem, stmt.name, name))
    return members


def read_names(tree) -> set:
    """Names loaded as attributes in tree, and its string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_members(root):
    package = sorted((root / "src" / "gldimer").glob("*.py"))
    reads = set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        reads |= read_names(ast.parse(path.read_text()))
    return {m for m in public_members(package) if m[2] not in reads}


def test_every_public_member_has_a_reader():
    unread = unread_members(ROOT) - set(ORACLE_MEMBERS)
    assert not unread, "public fields or properties that nothing in " \
        "src/gldimer or perfbench/ reads: " + ", ".join(
            ".".join(m) for m in sorted(unread))


def test_oracle_only_members_are_defined_and_read_by_their_test():
    # defined, read by nothing outside the tests, and read by their test
    unread = unread_members(ROOT)
    for (module, cls, name), test in ORACLE_MEMBERS.items():
        assert (module, cls, name) in unread
        file_name, func = test.split("::")
        tree = ast.parse((Path(__file__).parent / file_name).read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == func)
        assert name in read_names(body), test
