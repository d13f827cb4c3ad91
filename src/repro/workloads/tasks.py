"""Data-parallel task models (Section 1).

The paper targets computations "that consist of a massive number of
independent repetitive tasks of known durations", as found in many scientific
applications.  Task durations "may vary but are known perfectly", and "the
time for a task includes the marginal cost of transmitting its input and
output data" — which is what keeps the overhead parameter ``c`` independent
of data sizes.

:class:`TaskPool` is engineered for large workloads: FIFO checkout/restore are
amortized O(1) per task (``collections.deque``), and the pending-work total is
maintained incrementally rather than recomputed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import WorkloadError

__all__ = ["Task", "TaskPool"]


def _bad_duration(task_id: int, duration: float) -> WorkloadError:
    """The error for a duration that is not positive and finite (NaN too)."""
    kind = "non-positive" if duration <= 0 else "non-finite"
    return WorkloadError(f"task {task_id} has {kind} duration {duration}")


@dataclass(frozen=True)
class Task:
    """One indivisible unit of data-parallel work.

    ``duration`` is the task's known compute time *including* its marginal
    input/output transmission cost (the paper's convention).
    """

    task_id: int
    duration: float

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise _bad_duration(self.task_id, self.duration)


class TaskPool:
    """A mutable FIFO pool of pending tasks shared by a cycle-stealing master.

    Tasks dispatched to a borrowed workstation are *checked out*; a reclaimed
    (killed) period returns its tasks to the front of the pool, a completed
    period commits them.
    """

    __slots__ = ("_tasks", "completed", "_pending_work", "_completed_work")

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: deque[Task] = deque(tasks)
        self.completed: list[Task] = []
        self._pending_work = float(sum(t.duration for t in self._tasks))
        self._completed_work = 0.0

    @classmethod
    def from_durations(cls, durations: Sequence[float] | np.ndarray) -> "TaskPool":
        """Build a pool with ids ``0..n-1`` from an array of durations.

        The durations are checked once, as an array, so each :class:`Task`
        is built without re-running its ``__post_init__`` check.
        """
        values = np.asarray(durations, dtype=float)
        if values.ndim != 1:
            raise WorkloadError(
                f"durations must be a vector, got shape {values.shape}"
            )
        bad = np.flatnonzero(~((values > 0) & (values < np.inf)))
        if bad.size:
            i = int(bad[0])
            raise _bad_duration(i, float(values[i]))
        floats = values.tolist()
        new = object.__new__
        tasks = [new(Task) for _ in floats]
        for i, (task, d) in enumerate(zip(tasks, floats)):
            fields = task.__dict__
            fields["task_id"] = i
            fields["duration"] = d
        pool = cls()
        pool._tasks.extend(tasks)
        pool._pending_work = float(sum(floats))
        return pool

    @property
    def tasks(self) -> list["Task"]:
        """Snapshot of pending tasks in FIFO order (copies; for inspection)."""
        return list(self._tasks)

    @property
    def pending_count(self) -> int:
        return len(self._tasks)

    @property
    def pending_work(self) -> float:
        return self._pending_work

    @property
    def completed_work(self) -> float:
        return self._completed_work

    @property
    def exhausted(self) -> bool:
        return not self._tasks

    def checkout(self, budget: float) -> list[Task]:
        """Remove and return a FIFO prefix of tasks fitting within ``budget``.

        Takes tasks in order while their cumulative duration stays within
        ``budget``; stops at the first task that does not fit (FIFO order is
        preserved so "known durations" stay aligned with dispatch order).
        May return an empty list when even the first task exceeds the budget.
        """
        if budget < 0:
            raise WorkloadError(f"checkout budget must be nonnegative, got {budget}")
        taken: list[Task] = []
        used = 0.0
        tasks = self._tasks
        while tasks and used + tasks[0].duration <= budget + 1e-12:
            task = tasks.popleft()
            taken.append(task)
            used += task.duration
        # An empty pool holds exactly no work; the running total would keep
        # its float drift (down to a negative remainder).
        self._pending_work = self._pending_work - used if tasks else 0.0
        return taken

    def commit(self, tasks: Iterable[Task]) -> None:
        """Mark checked-out tasks as completed (their period survived)."""
        for task in tasks:
            self.completed.append(task)
            self._completed_work += task.duration

    def restore(self, tasks: Sequence[Task]) -> None:
        """Return checked-out tasks to the *front* of the pool (period killed)."""
        # extendleft reverses, so feed it the reversed sequence to preserve order.
        self._tasks.extendleft(reversed(list(tasks)))
        self._pending_work += float(sum(t.duration for t in tasks))

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)
