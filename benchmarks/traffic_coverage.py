"""Which ``src/repro`` functions does the traffic this repository serves call?

A function-level call trace (``sys.setprofile``, stdlib only), merged
over runs.  It answers one question for a deletion PR: which functions
does nothing but ``tests/`` ever reach?  A ten-minute one-off to run
from the repo root before and after such a PR — not a CI step.

    python benchmarks/traffic_coverage.py traffic cov.json   # every TRAFFIC entry
    python benchmarks/traffic_coverage.py record cov.json -m repro.cli demo
    python benchmarks/traffic_coverage.py report cov.json [--list]

pytest-benchmark switches the profile hook off around timed calls, so
the pytest leg needs ``--benchmark-disable`` (without it
``oram/pancake.py`` reads wholly uncalled).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import runpy
import subprocess
import sys
import threading

SRC = pathlib.Path("src/repro")
_BENCHES = ("perf", "recovery", "c10k", "obs", "receipt")
TRAFFIC: tuple[str, ...] = (
    "benchmarks/e2e/run.py --smoke",
    *(f"-m repro.cli {bench}-bench{smoke} --json-out {os.devnull}"
      for smoke in ("", " --smoke") for bench in _BENCHES),
    f"-m repro.cli trace-bench --seed 7 --trace-out {os.devnull} "
    f"--metrics-out {os.devnull}",
    "-m repro.cli chaos-bench",
    "-m repro.cli serve-bench",
    *(f"-m repro.cli {command}" for command in (
        "demo", "evalset --blocks 4", "figure4", "trace --tx 0", "resources",
        "disasm erc20")),
    *(f"examples/{name}.py" for name in (
        "block_sync_lifecycle", "capacity_planning", "frontrunning_privacy",
        "hft_strategy_testing", "honeypot_detection", "quickstart")),
    "-m pytest benchmarks --benchmark-disable -q -p no:cacheprovider",
)


def record(out: pathlib.Path, argv: list[str]) -> None:
    """Run ``argv`` (``-m module args…`` or ``script args…``) as
    ``__main__`` under the hook and merge its calls into ``out``."""
    root = str(SRC.resolve())
    called: set = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    # What ``PYTHONPATH=src python -m …`` from the repo root would see.
    sys.path[:1] = [str(SRC.parent.resolve()), str(pathlib.Path.cwd())]
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exit_:
        if exit_.code not in (None, 0):
            raise
    finally:
        sys.setprofile(None)
        seen = set(map(tuple, json.loads(out.read_text()))) if out.exists() else set()
        seen |= {
            (str(pathlib.Path(code.co_filename).relative_to(root)),
             code.co_firstlineno, code.co_name)
            for code in called if code.co_filename.startswith(root)
        }
        out.write_text(json.dumps(sorted(seen)))


def report(out: pathlib.Path, list_functions: bool) -> None:
    """Per file: function lines nothing in ``out`` called / all function lines."""
    seen = set(map(tuple, json.loads(out.read_text())))
    total_all = total_dead = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        lines: set[int] = set()
        dead: set[int] = set()
        names = []
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # A code object starts at its first decorator.
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            body = set(range(first, node.end_lineno + 1))
            lines |= body
            if (rel, first, node.name) not in seen:
                dead |= body
                names.append(f"    {node.name}:{first} ({len(body)})")
        total_all += len(lines)
        total_dead += len(dead)
        if dead:
            print(f"{len(dead):5d} / {len(lines):5d}  {rel}")
            if list_functions:
                print("\n".join(names))
    print(f"{total_dead:5d} / {total_all:5d}  uncalled / all function lines")


def main(argv: list[str]) -> None:
    command, out, rest = argv[0], pathlib.Path(argv[1]), argv[2:]
    if command == "record":
        record(out, rest)
    elif command == "traffic":
        for entry in TRAFFIC:
            print(f"== {entry}", flush=True)
            subprocess.run(
                [sys.executable, __file__, "record", str(out), *entry.split()],
                check=True, stdout=subprocess.DEVNULL,
            )
    else:
        report(out, "--list" in rest)


if __name__ == "__main__":
    main(sys.argv[1:])
