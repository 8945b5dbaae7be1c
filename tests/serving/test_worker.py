"""A worker's ``--max-requests`` threshold: jittered per worker id, so a
uniformly loaded fleet never recycles in lockstep."""

import pytest

from repro.serving.worker import _recycle_threshold


@pytest.mark.parametrize("worker_id", [0, 1, 7])
def test_zero_disables(worker_id):
    assert _recycle_threshold(0, worker_id) == 0


@pytest.mark.parametrize("worker_id", range(8))
def test_jitter_adds_at_most_a_tenth(worker_id):
    assert 1000 <= _recycle_threshold(1000, worker_id) <= 1100


@pytest.mark.parametrize("worker_id", range(8))
def test_the_same_id_always_gets_the_same_threshold(worker_id):
    assert len({_recycle_threshold(1000, worker_id) for _ in range(5)}) == 1


def test_ids_do_not_all_recycle_together():
    assert len({_recycle_threshold(1000, worker_id) for worker_id in range(8)}) > 1
