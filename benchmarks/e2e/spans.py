"""Outside-in spans for the traced benchmark run.

``src/`` has no instrumentation, so the per-layer numbers come from
wrapping each layer's public callable *from here*: a class attribute,
or a module function together with the name it was re-bound to in the
modules that call it (``from x import f`` copies the reference, so
patching ``x.f`` alone would miss every caller).  Only the traced child
process imports this module; the runs that produce the end-to-end
metrics never see a wrapper.

Every wrapped call records ``(name, start_ns, end_ns, parent, op)`` in
memory.  The parent is the innermost span still open *anywhere in the
process*, not per thread: the traced runs are one closed-loop client, so
even on the async kernel the client thread, the kernel thread and the
event-loop thread run as one strict chain of blocking hand-offs, and a
single pointer links ``runtime.transport.send`` (kernel thread) to the
``protocol.site.handle`` it waits for (loop thread).  Do not trace a
run with more than one client through this module.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: the client call: every other span of one operation descends from it
ROOT = "bench.op"

#: span name -> the callables recorded under it.  Each callable is its
#: defining dotted path followed by every caller-held alias; aliases
#: must be the *same object* as the definition when spans install.
TARGETS: dict[str, tuple[tuple[str, ...], ...]] = {
    "protocol.site.execute": (("repro.protocol.site.SiteServer.execute",),),
    "protocol.catalog.dispatch": (
        ("repro.protocol.catalog.StoredProcedureCatalog.dispatch",),
    ),
    "lang.interp.execute": (("repro.protocol.catalog.StoredProcedure.run",),),
    "storage.engine.txn": (
        ("repro.storage.engine.LocalEngine.begin",),
        ("repro.storage.engine.StorageTxn.commit",),
        ("repro.storage.engine.StorageTxn.abort",),
    ),
    "protocol.transport.send": (("repro.protocol.transport.Transport.send",),),
    "protocol.site.handle": (("repro.protocol.site.SiteServer.handle",),),
    "protocol.paxos_commit.decide": (
        ("repro.protocol.paxos_commit.PaxosCommitDriver.decide",),
    ),
    "protocol.homeostasis.generate": (
        ("repro.protocol.homeostasis.TreatyGenerator.generate",),
    ),
    "treaty.templates.build_templates": (
        (
            "repro.treaty.templates.build_templates",
            "repro.protocol.homeostasis.build_templates",
        ),
    ),
    "logic.linearize.linearize_for_treaty": (
        (
            "repro.logic.linearize.linearize_for_treaty",
            "repro.protocol.homeostasis.linearize_for_treaty",
        ),
    ),
    "treaty.optimize.configure_from_samples": (
        (
            "repro.treaty.optimize.configure_from_samples",
            "repro.protocol.homeostasis.configure_from_samples",
        ),
    ),
    "treaty.optimize.sample_executions": (
        (
            "repro.treaty.optimize.sample_executions",
            "repro.protocol.homeostasis.sample_executions",
        ),
    ),
    "solver.fastmaxsat.solve_budget_allocation": (
        (
            "repro.solver.fastmaxsat.solve_budget_allocation",
            "repro.treaty.optimize.solve_budget_allocation",
        ),
    ),
    "treaty.table.assemble": (("repro.treaty.table.TreatyTable.assemble",),),
    "protocol.site.install_treaty": (
        ("repro.protocol.site.SiteServer.install_treaty",),
    ),
    "analysis.pathsplit.build_path_checks": (
        (
            "repro.analysis.pathsplit.build_path_checks",
            "repro.protocol.site.build_path_checks",
        ),
    ),
    "logic.compile.lower_to_escrow": (
        (
            "repro.logic.compile.lower_to_escrow",
            "repro.protocol.site.lower_to_escrow",
        ),
    ),
    "storage.wal.append": (("repro.storage.wal.TreatyWAL.append",),),
    "runtime.codec.encode_message": (
        (
            "repro.runtime.codec.encode_message",
            "repro.runtime.transport.encode_message",
        ),
    ),
    "runtime.codec.decode_message": (
        (
            "repro.runtime.codec.decode_message",
            "repro.runtime.transport.decode_message",
        ),
    ),
    "runtime.transport.send": (("repro.runtime.transport.AsyncTransport.send",),),
}

SPAN_NAMES: tuple[str, ...] = (ROOT, *TARGETS)


class SpanTargetError(RuntimeError):
    """A span target is gone, or its callers hold a different object."""


def _resolve(path: str) -> tuple[Any, str]:
    """The owner (module or class) and attribute name behind ``path``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    else:
        raise SpanTargetError(f"span target {path}: no importable module prefix")
    for part in parts[cut:-1]:
        if not hasattr(owner, part):
            raise SpanTargetError(f"span target {path}: {part!r} no longer exists")
        owner = getattr(owner, part)
    if parts[-1] not in vars(owner):
        raise SpanTargetError(
            f"span target {path}: {parts[-1]!r} is not defined on its owner"
        )
    return owner, parts[-1]


class Tracer:
    """Installs the wrappers, holds the spans, reports them."""

    def __init__(self) -> None:
        self.name_id = array("h")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("l")
        self.op = array("l")
        #: [innermost open span, current operation id]
        self._cursor = [-1, -1]
        self._patched: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------------

    def _wrap(
        self, fn: Callable[..., Any], name: str, is_root: bool = False
    ) -> Callable[..., Any]:
        nid = SPAN_NAMES.index(name)
        ids, starts, ends = self.name_id, self.start_ns, self.end_ns
        parents, ops = self.parent, self.op
        cursor = self._cursor
        now = time.perf_counter_ns

        def span(*args: Any, **kwargs: Any) -> Any:
            if is_root:
                cursor[1] += 1
            index = len(starts)
            parent = cursor[0]
            cursor[0] = index
            ids.append(nid)
            parents.append(parent)
            ops.append(cursor[1])
            ends.append(0)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                cursor[0] = parent

        return span

    def root(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap the client call: one ``bench.op`` span per operation."""
        return self._wrap(fn, ROOT, is_root=True)

    def install(self) -> None:
        """Wrap every target, or raise :class:`SpanTargetError` naming
        the dotted path that no longer resolves to what callers hold."""
        resolved = []
        for name, callables in TARGETS.items():
            for definition, *aliases in callables:
                owner, attr = _resolve(definition)
                original = vars(owner)[attr]
                holders = [(owner, attr)]
                for alias in aliases:
                    alias_owner, alias_attr = _resolve(alias)
                    if vars(alias_owner)[alias_attr] is not original:
                        raise SpanTargetError(
                            f"span target {alias} is no longer the object "
                            f"{definition} defines; its caller would run "
                            "unobserved"
                        )
                    holders.append((alias_owner, alias_attr))
                resolved.append((name, original, holders))
        for name, original, holders in resolved:
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            for owner, attr in holders:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (duration
        minus the part its child spans cover), in milliseconds."""
        count = len(self.start_ns)
        child_ns = [0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child_ns[parent] += self.end_ns[index] - self.start_ns[index]
        out = {
            name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
            for name in SPAN_NAMES
        }
        for index in range(count):
            row = out[SPAN_NAMES[self.name_id[index]]]
            duration = self.end_ns[index] - self.start_ns[index]
            row["calls"] += 1
            row["total_ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[index]) / 1e6
        return out

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, in start order (see README)."""
        with path.open("w") as out:
            for index in range(len(self.start_ns)):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": SPAN_NAMES[self.name_id[index]],
                            "start_ns": self.start_ns[index],
                            "end_ns": self.end_ns[index],
                            "parent": self.parent[index],
                            "op": self.op[index],
                        }
                    )
                    + "\n"
                )

