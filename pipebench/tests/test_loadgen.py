import numpy as np

from pipebench import loadgen


def _schedule(count):
    return loadgen.Schedule(gaps=np.ones(count),
                            kinds=np.zeros(count, dtype=int),
                            payloads=[np.array([i]) for i in range(count)])


def test_stall_pushes_into_later_requests_and_generator_lag():
    stall_s, gap_s, stalled = 0.08, 0.002, 10

    def call(kind, payload):
        if int(payload[0]) == stalled:
            import time
            time.sleep(stall_s)
        return payload

    record = loadgen.run_open_loop(call, _schedule(60), rate=1 / gap_s)
    latency, lag = record.latency, record.lag
    assert record.ok.all() and len(record.due) == 60
    # The stalled request itself is slow ...
    assert latency[stalled] >= stall_s
    # ... and the next requests were due during the stall, so their
    # due-time latency carries the wait even though their service is fast.
    assert latency[stalled + 1] >= stall_s - 2 * gap_s
    assert record.service[stalled + 1] < stall_s / 4
    assert lag[stalled + 1] >= stall_s - 2 * gap_s
    # serve.generator_lag_ms is the largest lag: it shows the stall.
    assert lag.max() >= stall_s - 2 * gap_s
    assert lag[:stalled].max() < stall_s / 2


def test_failed_requests_are_misses():
    def call(kind, payload):
        if int(payload[0]) == 3:
            raise RuntimeError("boom")
        return payload

    record = loadgen.run_open_loop(call, _schedule(20), rate=2000.0)
    assert not record.ok[3] and record.ok.sum() == 19
    assert np.isinf(record.latency[3])
    assert not record.meets(limit_s=10.0)


def test_overload_aborts_and_misses():
    def call(kind, payload):
        import time
        time.sleep(0.002)
        return payload

    record = loadgen.run_open_loop(call, _schedule(400), rate=5000.0,
                                   abort_lag=0.05)
    assert record.aborted and len(record.due) < 400
    assert not record.meets(limit_s=1.0)


def test_schedule_is_a_function_of_the_seed():
    warm = np.arange(100)
    friends = [np.array([1, 2]), np.array([3])]
    one = loadgen.make_schedule(np.random.default_rng(5), 300, warm, friends)
    two = loadgen.make_schedule(np.random.default_rng(5), 300, warm, friends)
    assert np.array_equal(one.gaps, two.gaps)
    assert np.array_equal(one.kinds, two.kinds)
    assert all(np.array_equal(a, b) for a, b in zip(one.payloads, two.payloads))
    assert set(np.unique(one.kinds)) == {0, 1, 2}
