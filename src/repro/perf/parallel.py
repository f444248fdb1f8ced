"""Deterministic multiprocessing fan-out for benchmark sweeps.

The repo's sweeps — serve-bench fleet sizes, chaos-bench fault rates,
paper-scale security levels — are embarrassingly parallel: every
configuration builds its own service stack from its own seeds, so rows
never share mutable state.  :func:`run_parallel` fans such work items
across worker processes and reduces results **in input order**, so the
output of a parallel run is byte-identical to the serial one no matter
which worker finishes first (seed-ordered reduction).

Workers must be module-level callables and items picklable.  With
``workers <= 1`` (the default everywhere) the items run serially in
process — no pool, no pickling — which is also the fallback when the
platform cannot fork/spawn workers at all.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


def run_parallel(
    worker: Callable[[Item], Result],
    items: Sequence[Item],
    workers: int | None = None,
) -> list[Result]:
    """Map ``worker`` over ``items``, results in input order.

    ``workers`` is the process count; ``None``, ``0`` or ``1`` runs
    serially in this process.  Any worker exception propagates (after
    the pool shuts down), so a failing configuration fails the sweep
    exactly as it would serially.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    try:
        import concurrent.futures
        import multiprocessing

        # fork shares the already-imported interpreter state on POSIX;
        # spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(items)), mp_context=context
        ) as pool:
            futures = [pool.submit(worker, item) for item in items]
            # Input order, not completion order: the reduction is
            # deterministic regardless of scheduling.
            return [future.result() for future in futures]
    except (ImportError, OSError):  # pragma: no cover - constrained hosts
        return [worker(item) for item in items]
