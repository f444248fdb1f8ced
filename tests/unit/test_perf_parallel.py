"""Deterministic fan-out: parallel sweeps reduce to serial results."""

import pytest

from repro.perf.parallel import run_parallel


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def test_serial_matches_parallel():
    items = list(range(20))
    serial = run_parallel(_square, items, workers=1)
    parallel = run_parallel(_square, items, workers=4)
    assert serial == parallel == [x * x for x in items]


def test_results_in_input_order():
    # Items of wildly different sizes still reduce in input order.
    items = [2000, 1, 1500, 3, 900]
    assert run_parallel(_square, items, workers=3) == [n * n for n in items]


def test_none_and_zero_workers_run_serially():
    assert run_parallel(_square, [1, 2, 3], workers=None) == [1, 4, 9]
    assert run_parallel(_square, [1, 2, 3], workers=0) == [1, 4, 9]


def test_single_item_skips_the_pool():
    assert run_parallel(_square, [7], workers=8) == [49]


def test_empty_items():
    assert run_parallel(_square, [], workers=4) == []


def test_worker_exception_propagates():
    with pytest.raises(ValueError):
        run_parallel(_fail_on_three, [1, 2, 3, 4], workers=2)
    with pytest.raises(ValueError):
        run_parallel(_fail_on_three, [1, 2, 3, 4], workers=1)
