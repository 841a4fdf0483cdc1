#!/usr/bin/env python
"""Layering lint: façades stay façades, mechanism stays below policy.

Ten rules, all enforced by walking module ASTs:

1. ``src/repro/mana/wrappers.py`` routes every MPI entry point through
   the interposition pipeline (``repro/mana/pipeline/``).  Costing and
   drain accounting are pipeline stages; if ``wrappers.py`` ever imports
   ``repro.mana.fsreg`` or ``repro.mana.counters`` again — directly or
   via ``from repro.mana import fsreg`` — per-call logic is leaking back
   into the monolith.

2. ``repro.faults`` is the *policy* layer for failures: it may depend on
   des/simnet/mana, but nothing under ``src/repro/des/`` or
   ``src/repro/simnet/`` may import ``repro.faults``.  Those layers
   expose mechanism hooks (``Scheduler.kill``, the network/OOB fault
   filters, ``ManaRuntime.bb_fault_hook``) and the injector installs
   callbacks downward — a reverse import would make fault-free runs
   depend on the fault subsystem.

3. ``repro.storage`` is pure storage *mechanism*: tier placement, cost
   models, manifests, integrity checks.  It may import ``repro.hosts``
   (the hardware constants it prices against) and ``repro.util``, but
   never ``repro.mana`` (the protocol layer decides *when* to write and
   commit) or ``repro.faults`` (damage arrives through the store's
   public fault surface: ``drop_tier`` / ``drop_node`` / ``corrupt_copy``
   / ``arm_manifest_tear``).  A reverse import would let the storage
   model grow protocol knowledge and make every store depend on the
   fault subsystem.

4. ``repro.des`` is the discrete-event substrate — the fast path the
   whole simulator stands on.  It imports nothing from ``repro.mana``,
   ``repro.simmpi``, or ``repro.simnet``: the upper layers drive the
   scheduler through ``spawn``/``run``/syscall yields, never the other
   way around.  A reverse import would couple the event core's hot loop
   to the layers it exists to serve (and silently reintroduce per-event
   overhead the fast-path work removed).

5. ``repro.ir`` is the pure replay-compiler layer: op records, the
   lowering builder, rewrite passes, and the tape interpreter.  It may
   import only ``repro.util`` and ``repro.errors`` — never MANA, the
   simulated MPI, the network, or the scheduler.  Everything the IR
   needs from those layers (the ``RECORDED_OPS`` classification, cost
   estimates, communicator gids) is injected through
   ``repro.mana.ir_bridge``; a direct import would entangle the
   compiler with the runtime it exists to replay.

6. ``repro/mana/portable.py`` defines the *portable upper half* — the
   machine-independent slice of a checkpoint image that migrates across
   clusters.  It must import nothing from ``repro.hosts`` or
   ``repro.simnet`` (machine specs, network models): anything
   machine-derived belongs in the :class:`LowerHalfBinding`, which is
   re-derived from the target machine at restore time.  A hosts import
   here would smuggle lower-half state into the portable image and
   quietly break cross-machine restart.

7. ``repro.campaign`` is the orchestration apex: it fans whole
   simulations across worker processes, so it may drive the app/session
   *entry points* (``repro.apps``, ``repro.mana.session`` /
   ``repro.mana.config``, ``repro.faults``, ``repro.storage``,
   ``repro.hosts``) plus ``repro.bench``, ``repro.util`` and
   ``repro.errors`` — but never the runtime internals (the DES core,
   the network, the wrapper pipeline).  And nothing below it —
   ``repro.des``, ``repro.simnet``, ``repro.mana``, ``repro.simmpi``,
   ``repro.faults``, ``repro.storage``, ``repro.hosts``, ``repro.ir``,
   ``repro.util``, ``repro.bench`` — may import ``repro.campaign``: a
   single simulation must never know it is one cell of a fleet.

8. A wrapper call costs one generator: ``SemanticLowering``
   (``repro/mana/pipeline/lowering.py``) has no *forwarding generator*
   — a method whose whole body (docstring aside) is
   ``x = yield from self.other(...)`` followed by ``return x``, or
   ``return (yield from self.other(...))``.  Such a method adds a frame
   to every resume of the call it forwards and does nothing else; the
   handler a registry row names is the body itself, and a shared body
   is *called* (``return self.other(...)`` from a plain function), not
   forwarded to.  Likewise a library collective costs one generator:
   no ``MpiLibrary`` method (``repro/simmpi/library.py``) ends in a
   forward to an algorithm — ``[x =] yield from coll.f(...)`` then
   ``return x`` (or ``return``/``return None``), or
   ``return (yield from coll.f(...))`` — with no other yield before
   it: the prologue runs in a plain method that returns ``coll.f(...)``,
   handing the algorithm the lower half's executor and its state
   (``coll.f(run_rounds, (self, task, comm, seq), me, ...)``).

9. One algorithm per collective shape, two executors.  The round plans
   (``plan(ranks, me, root)``) and the algorithms built on them
   (``f(run, at, me, ...)``) are module-level functions of
   ``src/repro/simmpi/collectives.py``, and no other module under
   ``src/repro`` defines a module-level function under one of their
   names.  Under ``src/repro/mana``, the only function that sends or
   receives through ``_internal_isend``/``_internal_recv`` is the upper
   half's executor, ``run_rounds`` in ``collective_impl.py``: any other
   caller would be a second copy of some algorithm's message pattern,
   which PT2PT_ALWAYS mode would then run instead of the lower half's.

10. One fault engine.  Under ``src/repro/faults/``, only
    ``injector.py`` fires faults: no other module calls ``.kill(``,
    ``set_fault_filter``, ``drop_tier``, ``drop_node``,
    ``corrupt_copy``, ``arm_manifest_tear`` or ``add_event_watch``, or
    assigns ``bb_fault_hook``.  The scenarios and the chaos sweep
    describe their faults as ``FaultSpec`` values (a virtual time
    ``at`` or an event index ``at_event``) and hand them to the
    injector; a second firing path would be a second copy of what a
    kill, a storm or a lossy channel does, free to drift from the
    first.

Usage: python tools/check_layering.py  (exit 0 = clean, 1 = violation)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WRAPPERS = SRC / "repro" / "mana" / "wrappers.py"

#: modules the wrapper façade must not reach around the pipeline for
WRAPPER_FORBIDDEN = ("repro.mana.fsreg", "repro.mana.counters")

#: mechanism layers that must never import the fault policy layer
MECHANISM_DIRS = ("repro/des", "repro/simnet")
POLICY_PKG = "repro.faults"

#: the storage mechanism layer and the only repro packages it may touch
STORAGE_DIR = "repro/storage"
STORAGE_ALLOWED = ("repro.hosts", "repro.util", "repro.storage")

#: the DES core and the upper layers it must never import
DES_DIR = "repro/des"
DES_FORBIDDEN = ("repro.mana", "repro.simmpi", "repro.simnet")

#: the pure IR layer and the only repro packages it may touch
IR_DIR = "repro/ir"
IR_ALLOWED = ("repro.util", "repro.errors", "repro.ir")

#: the portable upper half and the machine-dependent layers it must
#: never reach (lower-half state is rebuilt from the target machine)
PORTABLE = SRC / "repro" / "mana" / "portable.py"
PORTABLE_FORBIDDEN = ("repro.hosts", "repro.simnet")

#: the campaign orchestration apex: only entry points, never internals
CAMPAIGN_DIR = "repro/campaign"
CAMPAIGN_ALLOWED = (
    "repro.campaign", "repro.bench", "repro.util", "repro.errors",
    "repro.apps", "repro.hosts", "repro.faults", "repro.storage",
    "repro.mana.session", "repro.mana.config",
)
#: every layer below the campaign apex: none may import repro.campaign
CAMPAIGN_LOWER_DIRS = (
    "repro/des", "repro/simnet", "repro/mana", "repro/simmpi",
    "repro/faults", "repro/storage", "repro/hosts", "repro/ir",
    "repro/util", "repro/bench", "repro/apps",
)
CAMPAIGN_PKG = "repro.campaign"

#: the lowering stage, whose methods must not be forwarding generators
LOWERING = SRC / "repro" / "mana" / "pipeline" / "lowering.py"
LOWERING_CLASS = "SemanticLowering"
#: the lower half, whose methods must not forward to an algorithm
LIBRARY = SRC / "repro" / "simmpi" / "library.py"
LIBRARY_CLASS = "MpiLibrary"

#: where the collective algorithms live, and their one other executor
COLLECTIVES = SRC / "repro" / "simmpi" / "collectives.py"
UPPER_EXECUTOR = SRC / "repro" / "mana" / "collective_impl.py"
UPPER_EXECUTOR_FN = "run_rounds"
#: the upper half's message primitives only that executor may call
INTERNAL_PT2PT = ("_internal_isend", "_internal_recv")
MANA_DIR = "repro/mana"

#: the fault policy layer and the one module of it that fires faults
FAULTS_DIR = "repro/faults"
INJECTOR = SRC / "repro" / "faults" / "injector.py"
#: the mechanism hooks a fault is fired through: called ...
FAULT_CALLS = ("kill", "set_fault_filter", "drop_tier", "drop_node",
               "corrupt_copy", "arm_manifest_tear", "add_event_watch")
#: ... or assigned
FAULT_SOCKETS = ("bb_fault_hook",)


def _imports(path: Path) -> List[Tuple[int, str, str]]:
    """All (lineno, module, description) imports in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((node.lineno, alias.name, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            for alias in node.names:
                out.append(
                    (node.lineno, f"{mod}.{alias.name}" if mod else alias.name,
                     f"from {mod} import {alias.name}")
                )
    return out


def _hits(mod: str, forbidden: str) -> bool:
    return mod == forbidden or mod.startswith(forbidden + ".")


def violations(path: Path) -> List[Tuple[int, str]]:
    """Rule 1 on one file: forbidden wrapper-façade imports."""
    return [
        (lineno, desc) for lineno, mod, desc in _imports(path)
        if any(_hits(mod, f) for f in WRAPPER_FORBIDDEN)
    ]


def policy_violations(path: Path) -> List[Tuple[int, str]]:
    """Rule 2 on one file: mechanism-layer imports of ``repro.faults``."""
    return [
        (lineno, desc) for lineno, mod, desc in _imports(path)
        if _hits(mod, POLICY_PKG)
    ]


def wrapper_violations() -> List[str]:
    rel = WRAPPERS.relative_to(REPO)
    return [
        f"{rel}:{lineno}: forbidden import in wrapper façade: {desc}"
        for lineno, desc in violations(WRAPPERS)
    ]


def faults_violations() -> List[str]:
    bad = []
    for subdir in MECHANISM_DIRS:
        for path in sorted((SRC / subdir).rglob("*.py")):
            rel = path.relative_to(REPO)
            bad.extend(
                f"{rel}:{lineno}: mechanism layer imports the fault "
                f"policy layer: {desc}"
                for lineno, desc in policy_violations(path)
            )
    return bad


def storage_violations() -> List[str]:
    """Rule 3: ``repro.storage`` stays below the protocol and fault
    layers — any ``repro.*`` import outside the allow-list is a leak."""
    bad = []
    for path in sorted((SRC / STORAGE_DIR).rglob("*.py")):
        rel = path.relative_to(REPO)
        for lineno, mod, desc in _imports(path):
            if not _hits(mod, "repro"):
                continue
            if any(_hits(mod, ok) for ok in STORAGE_ALLOWED):
                continue
            bad.append(
                f"{rel}:{lineno}: storage mechanism layer imports above "
                f"its station: {desc}"
            )
    return bad


def des_violations() -> List[str]:
    """Rule 4: the DES core never imports the layers built on top of it."""
    bad = []
    for path in sorted((SRC / DES_DIR).rglob("*.py")):
        rel = path.relative_to(REPO)
        bad.extend(
            f"{rel}:{lineno}: DES core imports an upper layer: {desc}"
            for lineno, mod, desc in _imports(path)
            if any(_hits(mod, f) for f in DES_FORBIDDEN)
        )
    return bad


def ir_violations() -> List[str]:
    """Rule 5: ``repro.ir`` stays pure — any ``repro.*`` import outside
    util/errors couples the replay compiler to the runtime."""
    bad = []
    for path in sorted((SRC / IR_DIR).rglob("*.py")):
        rel = path.relative_to(REPO)
        for lineno, mod, desc in _imports(path):
            if not _hits(mod, "repro"):
                continue
            if any(_hits(mod, ok) for ok in IR_ALLOWED):
                continue
            bad.append(
                f"{rel}:{lineno}: pure IR layer imports the runtime "
                f"(use repro.mana.ir_bridge): {desc}"
            )
    return bad


def portable_violations() -> List[str]:
    """Rule 6: the portable upper half carries no machine knowledge."""
    rel = PORTABLE.relative_to(REPO)
    return [
        f"{rel}:{lineno}: portable upper half imports a machine-dependent "
        f"layer (lower-half state belongs in LowerHalfBinding): {desc}"
        for lineno, mod, desc in _imports(PORTABLE)
        if any(_hits(mod, f) for f in PORTABLE_FORBIDDEN)
    ]


def campaign_violations() -> List[str]:
    """Rule 7, downward direction: ``repro.campaign`` touches only the
    entry-point allow-list, never runtime internals."""
    bad = []
    for path in sorted((SRC / CAMPAIGN_DIR).rglob("*.py")):
        rel = path.relative_to(REPO)
        for lineno, mod, desc in _imports(path):
            if not _hits(mod, "repro"):
                continue
            if any(_hits(mod, ok) for ok in CAMPAIGN_ALLOWED):
                continue
            bad.append(
                f"{rel}:{lineno}: campaign orchestration imports a "
                f"runtime internal (drive the app/session entry points "
                f"instead): {desc}"
            )
    return bad


def campaign_reverse_violations() -> List[str]:
    """Rule 7, upward direction: no layer below the campaign apex may
    import it — a simulation must not know it is a fleet cell."""
    bad = []
    for subdir in CAMPAIGN_LOWER_DIRS:
        for path in sorted((SRC / subdir).rglob("*.py")):
            rel = path.relative_to(REPO)
            bad.extend(
                f"{rel}:{lineno}: lower layer imports the campaign "
                f"orchestrator: {desc}"
                for lineno, mod, desc in _imports(path)
                if _hits(mod, CAMPAIGN_PKG)
            )
    return bad


def _yields_from(node, owner: str) -> bool:
    """``yield from <owner>.<name>(...)``"""
    if not isinstance(node, ast.YieldFrom):
        return False
    call = node.value
    return (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == owner)


def _forwards(stmts, owner: str, bare_return: bool) -> bool:
    """``return (yield from owner.f(...))``, ``x = yield from
    owner.f(...)`` then ``return x`` or, with ``bare_return``,
    ``yield from owner.f(...)`` then ``return``/``return None``."""
    if len(stmts) == 1:
        ret = stmts[0]
        return isinstance(ret, ast.Return) and _yields_from(ret.value, owner)
    if len(stmts) != 2 or not isinstance(stmts[1], ast.Return):
        return False
    first, ret = stmts
    if isinstance(first, ast.Assign):
        return (len(first.targets) == 1
                and isinstance(first.targets[0], ast.Name)
                and _yields_from(first.value, owner)
                and isinstance(ret.value, ast.Name)
                and ret.value.id == first.targets[0].id)
    return (bare_return and isinstance(first, ast.Expr)
            and _yields_from(first.value, owner)
            and (ret.value is None
                 or (isinstance(ret.value, ast.Constant)
                     and ret.value.value is None)))


def _methods(path: Path, class_name: str):
    """(function node, body without its docstring) of each method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == class_name):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]  # docstring
            yield fn, body


def forwarding_generators(path: Path) -> List[Tuple[int, str]]:
    """Rule 8 on one file: (lineno, name) of every ``SemanticLowering``
    method that only forwards to another generator method."""
    return [(fn.lineno, fn.name) for fn, body in _methods(path, LOWERING_CLASS)
            if _forwards(body, "self", bare_return=False)]


def library_forwarders(path: Path) -> List[Tuple[int, str]]:
    """Rule 8 on the lower half: (lineno, name) of every ``MpiLibrary``
    method whose only yield is a closing forward to a ``coll.`` algorithm."""
    found = []
    for fn, body in _methods(path, LIBRARY_CLASS):
        for tail in (1, 2):
            head = body[:-tail]
            if (_forwards(body[-tail:], "coll", bare_return=True)
                    and not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                                for stmt in head for n in ast.walk(stmt))):
                found.append((fn.lineno, fn.name))
                break
    return found


def forwarding_violations() -> List[str]:
    bad = []
    for path, cls, found, fix in (
        (LOWERING, LOWERING_CLASS, forwarding_generators,
         "make it the body, or call the shared body from a plain function"),
        (LIBRARY, LIBRARY_CLASS, library_forwarders,
         "run the prologue in a plain method and return the algorithm's "
         "generator"),
    ):
        rel = path.relative_to(REPO)
        bad.extend(f"{rel}:{lineno}: {cls}.{name} is a forwarding "
                   f"generator ({fix})" for lineno, name in found(path))
    return bad


def collective_algorithms(path: Path = COLLECTIVES) -> List[str]:
    """Rule 9's names: the module-level plans ``(wr, me, root)`` and
    algorithms ``(run, at, ...)`` of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            params = [a.arg for a in fn.args.args]
            if params[:2] == ["run", "at"] or params == ["wr", "me", "root"]:
                names.append(fn.name)
    return names


def algorithm_copies(path: Path, names) -> List[Tuple[int, str]]:
    """Rule 9 on one file: (lineno, name) of each module-level function
    named after a collective algorithm or plan."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(fn.lineno, fn.name) for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name in names]


def internal_pt2pt_callers(path: Path,
                           allowed: str = "") -> List[Tuple[int, str]]:
    """Rule 9 on one file: (lineno, attribute) of each use of
    ``_internal_isend``/``_internal_recv`` outside the function named
    ``allowed``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == allowed:
            inside.update(id(n) for n in ast.walk(fn))
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in INTERNAL_PT2PT
                  and id(n) not in inside)


def collective_violations() -> List[str]:
    bad = []
    names = collective_algorithms()
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path == COLLECTIVES:
            continue
        rel = path.relative_to(REPO)
        bad.extend(f"{rel}:{lineno}: {name} defines a collective algorithm "
                   f"outside {COLLECTIVES.relative_to(REPO)} (run that one "
                   f"with this layer's executor)"
                   for lineno, name in algorithm_copies(path, names))
    for path in sorted((SRC / MANA_DIR).rglob("*.py")):
        rel = path.relative_to(REPO)
        allowed = UPPER_EXECUTOR_FN if path == UPPER_EXECUTOR else ""
        bad.extend(f"{rel}:{lineno}: {attr} outside the upper half's "
                   f"collective executor (collective_impl.run_rounds)"
                   for lineno, attr in internal_pt2pt_callers(path, allowed))
    return bad


def fault_firings(path: Path) -> List[Tuple[int, str]]:
    """Rule 10 on one file: (lineno, hook) of each call of a fault hook
    and each assignment to a fault socket."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in FAULT_CALLS):
            found.append((node.lineno, node.func.attr))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            found.extend((t.lineno, t.attr) for target in targets
                         for t in ast.walk(target)
                         if isinstance(t, ast.Attribute)
                         and t.attr in FAULT_SOCKETS)
    return sorted(found)


def fault_engine_violations() -> List[str]:
    bad = []
    for path in sorted((SRC / FAULTS_DIR).rglob("*.py")):
        if path == INJECTOR:
            continue
        rel = path.relative_to(REPO)
        bad.extend(f"{rel}:{lineno}: {hook} fires a fault outside "
                   f"{INJECTOR.relative_to(REPO)} (describe it as a "
                   f"FaultSpec and arm a FaultInjector)"
                   for lineno, hook in fault_firings(path))
    return bad


def main() -> int:
    bad = (wrapper_violations() + faults_violations() + storage_violations()
           + des_violations() + ir_violations() + portable_violations()
           + campaign_violations() + campaign_reverse_violations()
           + forwarding_violations() + collective_violations()
           + fault_engine_violations())
    if bad:
        for line in bad:
            print(line, file=sys.stderr)
        print(
            "layering rules: wrappers.py reaches fsreg/counters only "
            "through pipeline stages; repro.des and repro.simnet never "
            "import repro.faults (injection goes via registered hooks); "
            "repro.storage imports only repro.hosts/repro.util (never "
            "repro.mana or repro.faults); repro.des imports nothing from "
            "repro.mana/repro.simmpi/repro.simnet; repro.ir imports only "
            "repro.util/repro.errors (runtime access goes through "
            "repro.mana.ir_bridge); repro/mana/portable.py imports "
            "nothing from repro.hosts or repro.simnet; repro.campaign "
            "imports only bench/util/errors and the app/session entry "
            "points, and nothing below it imports repro.campaign; no "
            "SemanticLowering method only forwards to another generator "
            "and no MpiLibrary method ends in a forward to coll; "
            "collective algorithms live only in repro/simmpi/"
            "collectives.py, and only collective_impl.run_rounds calls "
            "_internal_isend/_internal_recv; under repro/faults only "
            "injector.py fires faults",
            file=sys.stderr,
        )
        return 1
    print("layering OK: wrappers.py imports neither fsreg nor counters; "
          "des/simnet do not import repro.faults; repro.storage stays "
          "below repro.mana and repro.faults; repro.des imports none of "
          "repro.mana/repro.simmpi/repro.simnet; repro.ir imports only "
          "repro.util/repro.errors; the portable upper half imports "
          "neither repro.hosts nor repro.simnet; repro.campaign touches "
          "only entry points and no lower layer imports it back; "
          "SemanticLowering and MpiLibrary have no forwarding generators; "
          "one copy of each collective algorithm, and one upper-half "
          "executor; one fault engine (repro/faults/injector.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
