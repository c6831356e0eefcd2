"""Open-loop request generator and the concurrent snapshot publisher.

Requests model independent users: arrivals are Poisson at a fixed rate
and each request is timed from the moment it was *due*, so a stall in
the service shows up as latency in every request queued behind it
(no coordinated omission).  One thread issues and serves requests in
schedule order; a second thread (:class:`Swapper`) publishes snapshot
versions and refreshes the services while requests are in flight.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from pipebench.stats import percentile

KINDS = ("single", "batch", "cold")
# The generator sleeps until this close to a due time, then spins, so
# the host's timer wake-up latency does not show up as request latency.
SPIN_S = 0.0005


@dataclass
class Schedule:
    """A seeded request mix at unit rate; :func:`run_open_loop` scales it."""

    gaps: np.ndarray            # unit-mean exponential inter-arrival gaps
    kinds: np.ndarray           # index into KINDS per request
    payloads: List[np.ndarray]  # user ids (single/batch) or friend ids (cold)

    def __len__(self) -> int:
        return len(self.gaps)


def make_schedule(rng: np.random.Generator, count: int,
                  warm_users: np.ndarray, friend_lists: Sequence[np.ndarray],
                  batch_users: int = 64,
                  mix: Sequence[float] = (0.90, 0.05, 0.05)) -> Schedule:
    """``count`` requests: single warm users, user batches, cold users."""
    gaps = rng.exponential(1.0, size=count)
    kinds = rng.choice(len(KINDS), size=count, p=list(mix))
    payloads: List[np.ndarray] = []
    for kind in kinds:
        if KINDS[kind] == "single":
            payloads.append(rng.choice(warm_users, size=1))
        elif KINDS[kind] == "batch":
            payloads.append(rng.choice(warm_users, size=batch_users,
                                       replace=False))
        else:
            payloads.append(friend_lists[int(rng.integers(len(friend_lists)))])
    return Schedule(gaps=gaps, kinds=kinds, payloads=payloads)


@dataclass
class LoopRecord:
    """Per-request timestamps and outcomes of one open-loop phase."""

    due: np.ndarray
    dispatch: np.ndarray
    end: np.ndarray
    ok: np.ndarray
    kinds: np.ndarray
    results: List[Optional[np.ndarray]]
    aborted: bool = False  # stopped early: the backlog outgrew the limit

    @property
    def latency(self) -> np.ndarray:
        """Due-time latency; failed requests count as infinitely late."""
        return np.where(self.ok, self.end - self.due, np.inf)

    @property
    def lag(self) -> np.ndarray:
        """How late each request was issued relative to its due time."""
        return self.dispatch - self.due

    @property
    def service(self) -> np.ndarray:
        return self.end - self.dispatch

    def final_lag(self, share: float = 0.05) -> float:
        """Mean lag over the last ``share`` of requests (backlog growth)."""
        tail = max(1, int(len(self.lag) * share))
        return float(np.mean(self.lag[-tail:]))

    def meets(self, limit_s: float, wanted: float = 99.0) -> bool:
        """No failures, tail latency within ``limit_s``, no growing backlog."""
        return (not self.aborted and bool(self.ok.all())
                and percentile(self.latency, wanted).value <= limit_s
                and self.final_lag() <= limit_s)


def run_open_loop(call: Callable[[str, np.ndarray], np.ndarray],
                  schedule: Schedule, rate: float, count: Optional[int] = None,
                  on_issue: Optional[Callable[[int], None]] = None,
                  abort_lag: float = float("inf")) -> LoopRecord:
    """Issue ``schedule`` at ``rate`` requests/s, each timed from its due time.

    ``call(kind, payload)`` serves one request; an exception marks it
    failed and the loop goes on.  ``on_issue(i)`` is called before
    request ``i`` is issued (the publisher's trigger).  The phase stops early
    once a request is issued more than ``abort_lag`` seconds late: the
    rate is then beyond capacity and the rest would only grow the queue.
    """
    count = len(schedule) if count is None else min(count, len(schedule))
    offsets = np.cumsum(schedule.gaps[:count]) / float(rate)
    due = np.empty(count)
    dispatch = np.empty(count)
    end = np.empty(count)
    ok = np.ones(count, dtype=bool)
    results: List[Optional[np.ndarray]] = [None] * count
    aborted = False
    clock = time.perf_counter
    start = clock() + 0.005
    for i in range(count):
        if on_issue is not None:
            on_issue(i)
        due[i] = start + offsets[i]
        wait = due[i] - clock()
        if wait > SPIN_S:
            time.sleep(wait - SPIN_S)
        while clock() < due[i]:
            pass
        dispatch[i] = clock()
        if dispatch[i] - due[i] > abort_lag:
            aborted = True
            count = i
            break
        try:
            results[i] = call(KINDS[schedule.kinds[i]], schedule.payloads[i])
        except Exception:  # noqa: BLE001 - a failed request is a measured outcome
            ok[i] = False
        end[i] = clock()
    return LoopRecord(due=due[:count],
                      dispatch=dispatch[:count], end=end[:count],
                      ok=ok[:count], kinds=schedule.kinds[:count].copy(),
                      results=results[:count], aborted=aborted)


class Swapper:
    """Background publisher: each signal publishes the next snapshot version.

    Versions alternate through ``snapshots``.  After each publish every
    service is refreshed from the store, in order; the time from publish
    start until the *first* service's ``refresh`` returns is that
    swap's staleness.  Failures are counted, never raised into the
    request thread.
    """

    def __init__(self, store, snapshots: Sequence, services: Sequence):
        self.store = store
        self.snapshots = list(snapshots)
        self.services = list(services)
        self.staleness: List[float] = []
        self.attempted = 0
        self.failed = 0
        self._queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(target=self._run, name="pipebench-swap",
                                         daemon=True)
        self._thread.start()

    def signal(self) -> None:
        """Publish the next version and refresh the services (asynchronously)."""
        self._queue.put(True)

    def drain(self) -> None:
        """Wait until every signalled swap has finished."""
        self._queue.join()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                self._swap()
            finally:
                self._queue.task_done()

    def _swap(self) -> None:
        snapshot = self.snapshots[self.attempted % len(self.snapshots)]
        self.attempted += 1
        try:
            start = time.perf_counter()
            self.store.publish(snapshot)
            for index, service in enumerate(self.services):
                service.refresh(self.store)
                if index == 0:
                    self.staleness.append(time.perf_counter() - start)
        except Exception:  # noqa: BLE001 - counted as a failed refresh
            self.failed += 1

    def close(self, timeout: float = 60.0) -> None:
        """Finish queued swaps, stop the thread and wait for it."""
        self._queue.put(None)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("snapshot publisher did not stop")
