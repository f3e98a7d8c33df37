"""Task-shape guard of :func:`repro.experiments.parallel.parallel_map`.

Populations travel once per worker in the shared context; a task list
that carries stream objects would be pickled per task, so the pool path
refuses it before any worker starts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel
from repro.experiments.parallel import assert_compact_tasks, parallel_map
from repro.messages.message_set import MessageSet
from repro.messages.stream import SynchronousStream

STREAM = SynchronousStream(period_s=0.1, payload_bits=64.0, station=0)
SET = MessageSet([STREAM])


def _size(shared, task):
    return len(task)


class TestAssertCompactTasks:
    def test_accepts_compact_specs(self):
        assert_compact_tasks(
            [
                7,
                (3, 0.5),
                [1, 2, 3],
                {"seed": 4, "scale": 0.25},
                np.array([0.1, 0.2]),
                (np.array([0.1]), np.array([64.0])),
            ]
        )

    @pytest.mark.parametrize(
        "task",
        [SET, STREAM, [STREAM, STREAM], (1, SET), {"population": SET}],
        ids=["message-set", "stream", "list-of-streams", "tuple-with-set",
             "dict-of-sets"],
    )
    def test_rejects_stream_objects(self, task):
        with pytest.raises(ConfigurationError):
            assert_compact_tasks([1, task])

    def test_error_names_the_task_and_its_type(self):
        with pytest.raises(ConfigurationError, match="task 2 carries a MessageSet"):
            assert_compact_tasks([0, 1, (5, SET)])


class TestParallelMapGuard:
    def test_inline_run_takes_any_task(self):
        assert parallel_map(_size, [SET, SET], jobs=1) == [1, 1]

    def test_pool_run_refuses_stream_tasks_before_starting_workers(
        self, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigurationError):
            parallel_map(_size, [SET, SET], jobs=2)
