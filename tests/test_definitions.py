"""Every function and class ``talescale`` defines is named somewhere in the program.

A definition that only tests reach is code the program does not need. This
reads the syntax trees of ``src/`` and ``perfbench/`` and names each
function or class that no ``Name``, ``Attribute`` or import there reads.
Click commands, which the command group reaches through its decorator, and
dunders, which Python calls, are exempt; so is each entry of ``KEEP``, whose
value says who calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "talescale"
PERFBENCH = ROOT / "perfbench"

KEEP = {
    "clock.SimClock.advance": "tests step a clock by a duration; the program runs it to a time",
    "cluster.SimulatedLrm._qsub": "SimulatedLrm.execute looks it up by the tool's name",
    "cluster.SimulatedLrm._sbatch": "SimulatedLrm.execute looks it up by the tool's name",
    "cluster.SimulatedLrm._qstat": "SimulatedLrm.execute looks it up by the tool's name",
    "cluster.SimulatedLrm._sacct": "SimulatedLrm.execute looks it up by the tool's name",
    "measure.measure_models": "the acceptance criteria and tests report each model through it",
    "middleware.LrmMiddleware.active_pollers": "tests check that no poller outlives its jobs",
    "planner.enumerate_feasible_models": "perfbench's tracer wraps it by name",
    "transport.Transport.log_text": "tests and the acceptance criteria read the transport log",
    "world.run_scenario": "tests and the acceptance criteria run a scenario to its trace bytes",
    "world.World.attach_tale": "tests track a tale's provenance in a world",
}


def is_click_command(node) -> bool:
    """Decorated with ``group.command(...)`` or ``click.group(...)``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Each function and class the module defines, at any depth: dotted name -> own name."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and not is_click_command(child):
                    found[name] = child.name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def named(tree: ast.Module) -> set[str]:
    """Every name a ``Name`` or an ``Attribute`` reads, and every name an import binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def unnamed(sources: dict[str, str]) -> set[str]:
    """The definitions in ``sources`` (module -> text) that none of them names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = set().union(*map(named, trees.values()))
    return {name for module, tree in trees.items()
            for name, own in definitions(tree, module).items() if own not in reads}


def test_every_definition_is_named_by_the_program():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sources |= {f"perfbench.{path.stem}": path.read_text() for path in PERFBENCH.glob("*.py")}
    found = unnamed(sources)
    assert not found - KEEP.keys(), f"defined but never named: {sorted(found - KEEP.keys())}"
    assert not KEEP.keys() - found, f"kept but now named: {sorted(KEEP.keys() - found)}"


def test_an_unnamed_definition_is_named():
    source = """
import click
from os import path as p

@click.group()
def cli(): pass

@cli.command("go")
def go(): pass

class Box:
    def __init__(self): self.used()
    def used(self): return helper()
    def unused(self): pass
    @property
    def shown(self): pass

def helper():
    def inner(): pass
    return Box().shown

def path(): pass

def orphan():
    orphan = 1
"""
    assert unnamed({"m": source}) == {"m.Box.unused", "m.helper.inner", "m.orphan"}
