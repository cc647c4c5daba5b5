"""The package's surface: every name ``netform`` exports has one stated
reason to be there, checked where a reason can be checked, and no module
of ``src/netform`` imports a name it never uses.  A function that loses
its last caller then fails here, not at the next review of the code."""

import ast
import importlib.util
import types
from pathlib import Path

import netform

SRC = Path(netform.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CLI = "cli"  # a CLI command reaches it, or it is a type such a call takes
# or returns; so some module of src/netform other than __init__ names it
TRACER = "tracer"  # wrapped by perfbench/tracer.LAYERS until the tracer
# reads counters (ROADMAP item 1b)
CHECKS = "checks"  # called by perfbench/checks.py's output checks
ORACLE = "oracle"  # a named test oracle
MEASURE = "measure"  # a measurement the acceptance criteria take

SURFACE = {
    "ALL_OTHERS": (CLI, "the targets of a document that sets none"),
    "BidirectedNetwork": (CLI, "the network every command reads or writes"),
    "CapacityError": (CLI, "the capacity guard, exit 2"),
    "CertMove": (CLI, "a row of the certificate `path` writes"),
    "CertificateVerdict": (CLI, "validate_certificate's answer to `path`"),
    "ComponentGraph": (CLI, "condense's answer inside `path`"),
    "ConstructionError": (CLI, "a failed construction, exit 3"),
    "DocumentError": (CLI, "a refused document or flag, exit 1"),
    "EdgeKind": (CLI, "the kind of a witness `check` reports"),
    "FlowerSpec": (CLI, "balanced_flower's petals, in `generate flower`'s "
                        "meta"),
    "INF": (CLI, "the unbounded horizon, `--k inf`"),
    "LemmaCheckError": (CLI, "a failed lemma or replay, exit 3"),
    "Mode": (CLI, "the game's mode, `--mode`"),
    "Move": (CLI, "a row of the trace `run` writes"),
    "MoveKind": (CLI, "the move of a trace row or witness"),
    "Params": (CLI, "the parameters of every document"),
    "PathCertificate": (CLI, "what construct_path returns to `path`"),
    "ReachBalls": (CLI, "the held reach balls `check` and `census` read"),
    "StabilityReport": (CLI, "bi_pairwise's answer to `check`"),
    "StructureMetrics": (CLI, "what metrics returns to `metrics`"),
    "TargetSets": (CLI, "a document's target sets"),
    "Trace": (CLI, "what run returns to `run`"),
    "TraceError": (CLI, "a trace that does not replay, exit 3"),
    "agent_utility": (CLI, "brute_force_nash rates strategies with it, "
                           "for `check --nash-oracle`"),
    "all_complete": (CLI, "`check`'s all_complete field and the census's "
                          "complete column"),
    "balanced_flower": (CLI, "`generate flower`"),
    "complete_net": (CLI, "`generate complete`"),
    "condense": (CLI, "construct_path's component graph, for `path`"),
    "construct_path": (CLI, "`path`"),
    "cycle": (CLI, "`generate cycle`"),
    "empty": (CLI, "`generate empty`"),
    "kautz": (CLI, "`generate kautz`"),
    "lemma_checks": (CLI, "`path --assert-lemmas`"),
    "lift": (CLI, "`generate --lifted`"),
    "metrics": (CLI, "`metrics`"),
    "random_net": (CLI, "`generate random`"),
    "run": (CLI, "`run`"),
    "scan_witnesses": (CLI, "`export-dot --annotate`"),
    "unbalanced_flower": (CLI, "`generate unbalanced-flower`"),
    "validate_certificate": (CLI, "`path` replays its certificate"),
    "check_symmetric": (TRACER, "layer equilibrium.symmetric"),
    "classify": (TRACER, "layer dynamics.classify"),
    "find_witness": (TRACER, "layer dynamics.scan"),
    "is_bi_pairwise_stable": (TRACER, "layer equilibrium.bi_pairwise"),
    "is_stable": (TRACER, "layer equilibrium.is_stable; the trace check "
                          "calls it too"),
    "step": (TRACER, "layer dynamics.step, and the one-round reference "
                     "`run` is tested against"),
    "utility": (TRACER, "layer model.utility"),
    "welfare": (TRACER, "layer model.utility"),
    "never_readd_check": (CHECKS, "the trace check's re-add ban"),
    "replay": (CHECKS, "the trace check's replay"),
    "brute_force_nash": (ORACLE, "the whole-strategy Nash search the edge "
                                 "scan is checked against (criterion 1)"),
    "diameter": (MEASURE, "criteria 4 and 5 measure flowers and Kautz "
                          "networks with it; test_oracles checks it against "
                          "networkx, too slow for the flower enumeration"),
}


def _exports() -> set:
    return {name for name, value in vars(netform).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)}


def _modules():
    """Each module of src/netform but ``__init__``, parsed."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _read_names(tree, skip=None) -> set:
    """The names a tree reads: loaded names, attributes and imported names,
    leaving out the top-level definition named ``skip``."""
    found = set()
    for top in tree.body:
        if skip is not None and getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def test_every_export_has_a_reason():
    exports = _exports()
    assert set(SURFACE) == exports, (
        f"exported without a reason: {sorted(exports - set(SURFACE))}; "
        f"a reason for no export: {sorted(set(SURFACE) - exports)}")


def test_tracer_entries_are_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {attr for targets in tracer.LAYERS.values()
              for owner, attr in targets if "." not in owner}
    entries = {name for name, (kind, _) in SURFACE.items() if kind == TRACER}
    assert entries <= traced, sorted(entries - traced)


def test_checks_entries_are_called_by_the_checks():
    called = _read_names(ast.parse(
        (PERFBENCH / "checks.py").read_text(encoding="utf-8")))
    entries = {name for name, (kind, _) in SURFACE.items() if kind == CHECKS}
    assert entries <= called, sorted(entries - called)


def test_cli_entries_are_referenced_in_the_package():
    modules = _modules()
    unreferenced = [name for name, (kind, _) in SURFACE.items()
                    if kind == CLI and not any(name in _read_names(tree, name)
                                               for _, tree in modules)]
    assert not unreferenced, unreferenced


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in _modules():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).partition(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(module, name) for name in sorted(imported - used)]
    assert not unused, unused
