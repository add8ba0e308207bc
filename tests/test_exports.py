"""Every exported name resolves, so a deleted function cannot stay listed as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cpvortex

MODULES = sorted(m.name for m in pkgutil.iter_modules(cpvortex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cpvortex.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(cpvortex.__file__).read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported
    assert [x for x in imported if not hasattr(cpvortex, x)] == []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "errors":
            module = importlib.import_module(f"cpvortex.{node.module}")
            assert [a.name for a in node.names if a.name not in module.__all__] == []


# The modules form layers, each importing only from earlier ones: errors; geom and greens; su3flag and dynamics;
# momentum; verify; cli.  So the vortex dynamics needs no momentum map or flag geometry, and the momentum maps,
# which are geometry alone, need no dynamics.
LAYERS = {
    "cli": {"dynamics", "errors", "greens", "momentum", "su3flag", "verify"},
    "dynamics": {"errors", "geom", "greens"},
    "errors": set(),
    "geom": {"errors"},
    "greens": {"errors"},
    "momentum": {"errors", "geom", "su3flag"},
    "su3flag": {"errors", "geom"},
    "verify": {"dynamics", "errors", "geom", "greens", "momentum", "su3flag"},
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_imports_follow_the_layers(name):
    assert sorted(LAYERS) == MODULES
    tree = ast.parse(Path(cpvortex.__file__).with_name(f"{name}.py").read_text())
    imported = {
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported == LAYERS[name]


def test_each_shared_rule_has_one_home():
    # the squared norm lives in geom, and the measuring tool alone keeps its independent np.linalg.norm
    trees = {m: ast.parse(Path(cpvortex.__file__).with_name(f"{m}.py").read_text()) for m in MODULES}
    defines = {m for m, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_squared_norm"}
    assert defines == {"geom"}
    norm_calls = {m for m, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm")}
    assert norm_calls == {"verify"}
    # the lift field takes its geometric sum from greens, so it loops over nothing itself
    (rhs,) = [node for node in ast.walk(trees["dynamics"]) if isinstance(node, ast.FunctionDef) and node.name == "_cpn_rhs"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [node for node in ast.walk(rhs) if isinstance(node, loops)]


def _owners(tree, match):
    """The innermost enclosing function name (None at module level) of every node that match accepts."""
    found = set()

    def visit(node, owner):
        if match(node):
            found.add(owner)
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _names(node, name):
    """Whether node refers to name, as a bare name or as an attribute."""
    return any(isinstance(x, ast.Name) and x.id == name or isinstance(x, ast.Attribute) and x.attr == name
               for x in ast.walk(node))


def test_each_remaining_rule_has_one_owner():
    trees = {m: ast.parse(Path(cpvortex.__file__).with_name(f"{m}.py").read_text()) for m in MODULES}
    # the dimension bound is compared in greens._check_n alone, and the CLI does not restate it
    compared = {(m, owner) for m, tree in trees.items()
                for owner in _owners(tree, lambda node: isinstance(node, ast.Compare) and _names(node, "MAX_N"))}
    assert compared == {("greens", "_check_n")}
    assert not _names(trees["cli"], "MAX_N")
    # the CLI only parses [re, im] pairs: it compares no length with n + 1, and the (N, n+1) shape rule and the
    # report of positions of several shapes each live once in dynamics, in the path both constructors take
    def plus_one(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(x, ast.BinOp) and ast.unparse(x).endswith("n + 1") for x in ast.walk(node))

    assert not _owners(trees["cli"], plus_one)
    assert _owners(trees["dynamics"], plus_one) == {"_system_arrays"}
    shapes = {(m, owner) for m, tree in trees.items() for owner in _owners(
        tree, lambda node: isinstance(node, ast.Constant) and "coordinate shapes" in str(node.value))}
    assert shapes == {("dynamics", "_system_arrays")}
    # each rule below is stated once: its message has one owner, and every site of the rule calls that owner
    def owners(match):
        return {(m, owner) for m, tree in trees.items() for owner in _owners(tree, match)}

    def callers(name):
        return owners(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name)

    for message, owner in [("manifold must be 'plane' or 'cpn'", ("dynamics", "_check_manifold")),
                           ("chart values must be finite", ("geom", "_check_chart_values")),
                           ("points live in different CP^n", ("geom", "_check_same_cpn"))]:
        assert owners(lambda node: isinstance(node, ast.Constant) and message in str(node.value)) == {owner}, message
    assert callers("_check_manifold") == {("cli", "load_config"), ("dynamics", "_system_arrays")}
    assert callers("_check_chart_values") == {("geom", "__post_init__"), ("geom", "fubini_study_metric")}
    assert callers("_check_same_cpn") == {("geom", "same_point"), ("geom", "geodesic_distance_cpn")}
    # the squared-Frobenius adjoint and unitarity tests of matrix stacks are each one comparison in geom, which the
    # Su3Matrix roles, the MomentumValue conventions and the equivariance check call with their own bounds
    adjoint = owners(lambda node: isinstance(node, ast.Compare) and (_names(node, "swapaxes") or _names(node, "adjoint")))
    assert adjoint == {("geom", "_off_adjoint"), ("geom", "_off_unitary")}
    assert callers("_off_adjoint") == {("su3flag", "__post_init__"), ("momentum", "__post_init__")}
    assert callers("_off_unitary") == {("su3flag", "__post_init__"), ("momentum", "momentum_cp2_equivariance_check")}
    # a verification report is a result without a tolerance, not an infinite one switched off by a flag
    calls = [node for node in ast.walk(trees["verify"])
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "CheckResult"]
    assert len(calls) > 25
    assert not [ast.unparse(c) for c in calls if _names(c, "inf") or any(k.arg == "gating" for k in c.keywords)]
