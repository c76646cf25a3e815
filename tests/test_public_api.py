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
Attributes of imported names are not reads: `np.mean` reads no `mean`.

Every option has a caller: each defaulted parameter of a public
top-level function of a public module, and each defaulted field of a
public *Config class there (a `ClassVar` is no field), is passed, by
keyword or by position, by a call in the package or the benchmark.
Calls are matched by the callee's name alone, as above.  Options that
only an oracle test passes are listed in ORACLE_OPTIONS with that test.
"""

import ast
from pathlib import Path

import pytest

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

ORACLE_OPTIONS = {
    ("bbr", "integrate", "rtol"):
        "test_bbr.py::test_interacting_symmetric_states_oscillate_weakly",
    ("bbr", "integrate", "atol"):
        "test_bbr.py::test_interacting_symmetric_states_oscillate_weakly",
    ("bbr", "integrate", "sample_interval"):
        "test_acceptance.py::test_criterion_10_meanfield_consistency",
    ("cli", "main", "argv"): "test_cli.py::run_cli",
    ("closedform", "critical_gamma", "J"):
        "test_closedform.py::test_critical_gamma",
    ("meanfield", "integrate_gpe", "rtol"):
        "test_meanfield.py::test_norm_derivative_identity",
    ("meanfield", "integrate_gpe", "atol"):
        "test_meanfield.py::test_norm_derivative_identity",
    ("steadysolve", "SteadySolveConfig", "residual_tol"):
        "test_steadysolve.py::test_convergence_error_reports_residual",
    ("steadysolve", "verify_attractor", "config"):
        "test_steadysolve.py::test_attractor_perturbation_respects_ceiling",
    ("steadysolve", "verify_attractor", "t_horizon"):
        "test_acceptance.py::test_criterion_08_attractor_rate",
    ("steadysolve", "verify_attractor", "n_perturbations"):
        "test_steadysolve.py::test_attractor_zero_perturbation",
    ("steadysolve", "verify_attractor", "perturbation_scale"):
        "test_steadysolve.py::test_attractor_zero_perturbation",
    ("steadysolve", "verify_attractor", "sample_interval"):
        "test_acceptance.py::test_criterion_08_attractor_rate",
    ("steadysolve", "verify_attractor", "seed"):
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


def _callers() -> list:
    """The package's modules and the benchmark's."""
    return sorted(PACKAGE.glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))


def test_every_public_definition_has_a_caller():
    unused = unused_definitions(_callers(), keep=ORACLE_ONLY)
    assert not unused, "public definitions without a caller in src/gldimer " \
        "or perfbench/: " + ", ".join(
            f"{m}.{n}" for m, n in sorted(unused))


def test_oracle_only_names_are_defined_and_called_by_their_test():
    defs, _refs = _scan(sorted(PACKAGE.glob("*.py")))
    for (module, name), test in ORACLE_ONLY.items():
        assert (module, name) in defs
        test_file = Path(__file__).parent / test.split("::")[0]
        assert name in test_file.read_text(), test


def _last_name(node) -> str | None:
    """The name of `name` or the attribute of `a.name`, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(
        node, "attr", None)


def _is_property(fn) -> bool:
    return any(_last_name(d) in ("property", "cached_property")
               for d in fn.decorator_list)


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


def _imported_names(tree) -> set:
    """Names that the imports in tree bind."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def read_names(tree) -> set:
    """Names loaded as attributes in tree, except on an imported name
    (`np.mean` reads no member), and its string constants."""
    imported = _imported_names(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) \
                    and node.value.id in imported:
                continue
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


def _test_function(test: str) -> ast.FunctionDef:
    """The function that `file::name` names in the tests."""
    file_name, func = test.split("::")
    tree = ast.parse((Path(__file__).parent / file_name).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == func)


def test_oracle_only_members_are_defined_and_read_by_their_test():
    # defined, read by nothing outside the tests, and read by their test
    unread = unread_members(ROOT)
    for (module, cls, name), test in ORACLE_MEMBERS.items():
        assert (module, cls, name) in unread
        assert name in read_names(_test_function(test)), test


def test_member_scan_skips_attributes_of_imported_names():
    tree = ast.parse("import numpy as np\nnp.mean(x)\nstats.median\n")
    assert "mean" not in read_names(tree)
    assert "median" in read_names(tree)


def _is_classvar(annotation) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _last_name(annotation) == "ClassVar"


def defaulted_options(paths) -> dict:
    """{(module, callee, option): position} of every defaulted parameter of
    the public top-level functions in paths, and every defaulted field of
    their public *Config classes.  position is the option's index among
    the positional parameters (the fields), None if it is keyword-only."""
    options = {}
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            if getattr(stmt, "name", "_").startswith("_"):
                continue
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                named = [(arg.arg, i) for i, arg in enumerate(positional)
                         if i >= first]
                named += [(arg.arg, None) for arg, default in zip(
                    args.kwonlyargs, args.kw_defaults) if default is not None]
            elif isinstance(stmt, ast.ClassDef) \
                    and stmt.name.endswith("Config"):
                fields = [item for item in stmt.body
                          if isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)
                          and not _is_classvar(item.annotation)]
                named = [(item.target.id, i) for i, item in enumerate(fields)
                         if item.value is not None]
            else:
                continue
            for name, position in named:
                options[(path.stem, stmt.name, name)] = position
    return options


def passed_arguments(tree) -> set:
    """(callee name, argument) of every call in tree: each keyword's name,
    and the index of each positional argument before any starred one."""
    passed = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = _last_name(call.func)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            passed.add((name, i))
        passed.update((name, kw.arg) for kw in call.keywords if kw.arg)
    return passed


def _is_passed(passed, callee, option, position) -> bool:
    return (callee, option) in passed or (callee, position) in passed


def unpassed_options(defining, calling) -> set:
    """The options defined in the paths `defining` that no call in the
    paths `calling` passes, by keyword or by position."""
    passed = set()
    for path in calling:
        passed |= passed_arguments(ast.parse(path.read_text()))
    return {(module, callee, option)
            for (module, callee, option), position
            in defaulted_options(defining).items()
            if not _is_passed(passed, callee, option, position)}


def _public_modules() -> list:
    return [path for path in sorted(PACKAGE.glob("*.py"))
            if not path.stem.startswith("_")]


def test_every_option_has_a_caller():
    unpassed = unpassed_options(_public_modules(),
                                _callers()) - set(ORACLE_OPTIONS)
    assert not unpassed, "options that no call in src/gldimer or " \
        "perfbench/ passes: " + ", ".join(
            ".".join(o) for o in sorted(unpassed))


def test_oracle_options_are_defined_and_passed_by_their_test():
    # defined, passed by nothing outside the tests, and passed by their test
    unpassed = unpassed_options(_public_modules(), _callers())
    options = defaulted_options(_public_modules())
    for (module, callee, option), test in ORACLE_OPTIONS.items():
        assert (module, callee, option) in unpassed
        passed = passed_arguments(_test_function(test))
        assert _is_passed(passed, callee, option,
                          options[(module, callee, option)]), test


_PLANTED = """\
from dataclasses import dataclass
from typing import ClassVar


def solve(x, tol=1e-9, *, steps=8):
    return x


@dataclass
class SolveConfig:
    name: str
    rtol: float = 1e-8
    floor: ClassVar[float] = 0.0
"""


@pytest.mark.parametrize("calls, unpassed", [
    ("solve(1)\nSolveConfig('a')\n",
     {("lib", "solve", "tol"), ("lib", "solve", "steps"),
      ("lib", "SolveConfig", "rtol")}),
    ("solve(1, tol=1e-3, steps=4)\nSolveConfig('a', rtol=1e-6)\n", set()),
    ("solve(1, 1e-3, steps=4)\nSolveConfig('a', 1e-6)\n", set()),
    ("solve(*args)\nsolve(1, *args, steps=4)\n",
     {("lib", "solve", "tol"), ("lib", "SolveConfig", "rtol")}),
])
def test_options_scan_on_planted_modules(tmp_path, calls, unpassed):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text(_PLANTED)
    user.write_text(calls)
    assert unpassed_options([lib], [lib, user]) == unpassed
