#!/usr/bin/env python3
"""Reach: which ``src/`` functions does each committed driver run?

Runs every committed driver of the repository under a profile hook and
sorts each function definition in ``src/repro`` into one of three
buckets:

- reached by a committed driver other than the tier-1 suite (the
  scenario harness, the figure and ablation benches, the e2e smoke,
  the examples, the tools);
- reached only by the tier-1 suite;
- reached by nothing.

It prints each bucket's definition and line counts, then lists the
last two buckets.  A definition's lines run from its ``def`` to its
last line.  An earn-or-delete audit (docs/AUDIT.md) reads these lists
instead of arguing reach by grep.

The hook is a ``usercustomize`` module on a temporary
``PYTHONUSERBASE``, so it follows every subprocess that keeps the
environment (``repro-serve`` included).  It records a code object the
first time it is called and appends that line to its file at once, so
a process that is killed still leaves its record.  The figure benches
run with ``--benchmark-disable``: pytest-benchmark's timer clears the
profile hook while it times.

Run it from the repo root (no install needed; ~15-20 minutes)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: ``usercustomize`` body.  ``REPRO_REACH_OUT`` names the directory a
#: process appends ``file<TAB>first line<TAB>name`` lines to.
HOOK = """\
import os
import sys
import threading


def _install(out, src):
    path = os.path.join(out, f"{os.getpid()}.tsv")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    # Keyed by id, holding the code object so that no id is reused.
    seen = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(src):
            line = f"{filename}\\t{code.co_firstlineno}\\t{code.co_name}\\n"
            os.write(fd, line.encode())

    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("REPRO_REACH_OUT"):
    _install(os.environ["REPRO_REACH_OUT"], os.environ["REPRO_REACH_SRC"])
"""

TIER_1 = "tier-1"


def drivers(scratch: Path) -> list[tuple[str, list[str]]]:
    """Every committed driver: a name and the arguments to Python."""
    out = [
        (TIER_1, ["-m", "pytest", "-q", "-p", "no:cacheprovider"]),
        ("scenarios", ["benchmarks/harness.py", "--out", str(scratch / "bench")]),
        (
            "figure and ablation benches",
            [
                "-m",
                "pytest",
                "benchmarks",
                "--ignore=benchmarks/e2e",
                "--benchmark-disable",
                "-q",
                "-p",
                "no:cacheprovider",
            ],
        ),
        ("e2e smoke", ["benchmarks/e2e/run.py", "--smoke"]),
    ]
    out += [
        (f"examples/{path.name}", [str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    out += [
        ("tools/check_docs.py", ["tools/check_docs.py"]),
        ("tools/gen_classification.py", ["tools/gen_classification.py", "--check"]),
        ("tools/lint_lpp.py", ["tools/lint_lpp.py", "--bundled"]),
        ("tools/serve_smoke.py", ["tools/serve_smoke.py"]),
    ]
    return out


def definitions() -> dict[tuple[str, int, str], tuple[str, int, str, int]]:
    """Every function definition under ``src/repro``, keyed the way a
    code object names it (file, first line counting decorators, name),
    mapped to (path, ``def`` line, qualified name, line count)."""
    out: dict[tuple[str, int, str], tuple[str, int, str, int]] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert child.end_lineno is not None
                out[str(path), first, child.name] = (
                    str(path.relative_to(REPO)),
                    child.lineno,
                    prefix + child.name,
                    child.end_lineno - child.lineno + 1,
                )
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return out


def user_site(env: dict[str, str]) -> Path:
    """The user site-packages directory a child Python reads, or exit
    if that Python will not read one (a virtualenv, ``-s``, ...)."""
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import site; print(site.ENABLE_USER_SITE); "
            "print(site.getusersitepackages())",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    enabled, path = probe.stdout.split("\n")[:2]
    if enabled != "True":
        sys.exit(
            "reach: user site-packages are disabled for this interpreter "
            f"(site.ENABLE_USER_SITE = {enabled}), so the hook cannot load"
        )
    return Path(path)


def reached(out: Path) -> set[tuple[str, int, str]]:
    keys = set()
    for dump in out.glob("*.tsv"):
        for line in dump.read_text().splitlines():
            filename, first, name = line.split("\t")
            keys.add((filename, int(first), name))
    return keys


def main() -> int:
    defs = definitions()
    by_driver: dict[str, set[tuple[str, int, str]]] = {}
    failed: list[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        env = {
            **os.environ,
            "PYTHONUSERBASE": str(scratch / "userbase"),
            "PYTHONPATH": str(SRC),
            "REPRO_REACH_SRC": str(PACKAGE) + os.sep,
        }
        site_dir = user_site(env)
        site_dir.mkdir(parents=True)
        (site_dir / "usercustomize.py").write_text(HOOK)
        for index, (name, args) in enumerate(drivers(scratch)):
            out = scratch / f"driver-{index}"
            out.mkdir()
            print(f"reach: running {name}", file=sys.stderr, flush=True)
            status = subprocess.run(
                [sys.executable, *args],
                cwd=REPO,
                env={**env, "REPRO_REACH_OUT": str(out)},
                stdout=subprocess.DEVNULL,
            ).returncode
            if not any(out.glob("*.tsv")):
                sys.exit(f"reach: the hook did not load under {name}")
            by_driver[name] = reached(out) & defs.keys()
            if status != 0:
                failed.append(f"{name} (exit {status})")

    tier_1 = by_driver.pop(TIER_1)
    driven = set().union(*by_driver.values())
    buckets = {
        "reached by a committed driver": driven,
        "reached only by tier-1": tier_1 - driven,
        "reached by nothing": defs.keys() - driven - tier_1,
    }
    total = sum(entry[3] for entry in defs.values())
    print(f"src/ definitions: {len(defs)} ({total} lines)")
    for title, keys in buckets.items():
        lines = sum(defs[key][3] for key in keys)
        print(f"  {title}: {len(keys)} ({lines} lines)")
    if failed:
        print(f"drivers that exited non-zero: {', '.join(failed)}")
    for title in ("reached only by tier-1", "reached by nothing"):
        print(f"\n## {title}\n")
        for path, line, name, lines in sorted(defs[key] for key in buckets[title]):
            print(f"{path}:{line} {name} ({lines} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
