"""Unit tests for simulation resources and locks."""

import pytest

from repro.sim import Kernel, Lock, Resource, SimError


def test_capacity_must_be_positive(kernel):
    with pytest.raises(SimError):
        Resource(kernel, capacity=0)


def test_acquire_release_cycle(kernel):
    res = Resource(kernel, capacity=1)

    def proc():
        yield res.acquire()
        assert res.in_use == 1
        res.release()
        assert res.in_use == 0

    kernel.run_process(proc())


def test_release_without_acquire_raises(kernel):
    res = Resource(kernel, capacity=1)
    with pytest.raises(SimError, match="release"):
        res.release()


def test_contention_serializes(kernel):
    res = Resource(kernel, capacity=1)
    spans = []

    def worker(name):
        yield res.acquire()
        start = kernel.now
        yield 100
        res.release()
        spans.append((name, start, kernel.now))

    kernel.spawn(worker("a"))
    kernel.spawn(worker("b"))
    kernel.run()
    # The two 100ns critical sections must not overlap.
    (_, a0, a1), (_, b0, b1) = sorted(spans, key=lambda s: s[1])
    assert a1 <= b0
    assert b1 == 200


def test_capacity_two_allows_parallelism(kernel):
    res = Resource(kernel, capacity=2)
    done_at = []

    def worker():
        yield res.acquire()
        yield 100
        res.release()
        done_at.append(kernel.now)

    for _ in range(2):
        kernel.spawn(worker())
    kernel.run()
    assert done_at == [100, 100]


def test_fifo_ordering(kernel):
    res = Resource(kernel, capacity=1)
    order = []

    def worker(name):
        yield res.acquire()
        order.append(name)
        yield 10
        res.release()

    for name in ("first", "second", "third"):
        kernel.spawn(worker(name))
    kernel.run()
    assert order == ["first", "second", "third"]


def test_try_acquire(kernel):
    res = Resource(kernel, capacity=1)
    assert res.try_acquire() is True
    assert res.try_acquire() is False
    res.release()
    assert res.try_acquire() is True


def test_queue_depth(kernel):
    res = Resource(kernel, capacity=1)

    def holder():
        yield res.acquire()
        yield 100
        res.release()

    def waiter():
        yield res.acquire()
        res.release()

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.spawn(waiter())
    kernel.run(until=50)
    assert res.queue_depth == 2
    kernel.run()
    assert res.queue_depth == 0


def test_handoff_keeps_capacity_accounted(kernel):
    res = Resource(kernel, capacity=1)

    def holder():
        yield res.acquire()
        yield 10
        res.release()

    def waiter():
        yield res.acquire()
        assert res.in_use == 1
        res.release()

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert res.in_use == 0


def test_lock_is_capacity_one(kernel):
    lock = Lock(kernel)
    assert lock.capacity == 1
    assert not lock.locked

    def proc():
        yield lock.acquire()
        assert lock.locked
        lock.release()

    kernel.run_process(proc())
    assert not lock.locked


# -- PR 8 edge cases: contention, fairness, unwind, misuse ---------------

def test_try_acquire_under_contention_never_jumps_the_queue(kernel):
    """try_acquire must fail while a holder OR parked waiters exist."""
    res = Resource(kernel, capacity=1)
    observed = []

    def holder():
        yield res.acquire()
        yield 100
        res.release()

    def waiter():
        yield res.acquire()
        res.release()

    def prober():
        yield 50                       # holder active, waiter parked
        observed.append(res.try_acquire())

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.spawn(prober())
    kernel.run()
    assert observed == [False]
    assert res.in_use == 0 and res.queue_depth == 0


def test_fifo_fairness_across_many_waiters(kernel):
    res = Resource(kernel, capacity=1, name="fair")
    order = []

    def worker(tag, delay):
        yield delay                    # stagger arrival order
        yield res.acquire()
        order.append(tag)
        yield 10
        res.release()

    for tag in range(6):
        kernel.spawn(worker(tag, tag + 1))
    kernel.run()
    assert order == [0, 1, 2, 3, 4, 5]


def test_release_in_finally_runs_on_generator_close(kernel):
    """kill() closes the generator; finally must free the resource."""
    res = Resource(kernel, capacity=1, name="closable")

    def holder():
        yield res.acquire()
        try:
            yield 1000
        finally:
            res.release()

    proc = kernel.spawn(holder(), name="holder")
    kernel.run(until=10)
    assert res.in_use == 1
    proc.kill()
    assert res.in_use == 0             # GeneratorExit drove the finally
    kernel.run()
    assert res.try_acquire() is True
    res.release()


def test_nested_acquire_of_same_lock_raises(kernel):
    lock = Lock(kernel, name="log.head:t")

    def proc():
        yield lock.acquire()
        yield lock.acquire()           # would self-deadlock

    p = kernel.spawn(proc(), name="renester")
    p._error_observed = True

    def joiner():
        yield p

    with pytest.raises(SimError, match="nested acquire.*renester"):
        kernel.run_process(joiner())


def test_release_error_names_process_and_resource(kernel):
    res = Resource(kernel, capacity=2, name="nand.die:3")

    def over_releaser():
        yield res.acquire()
        res.release()
        res.release()                  # one too many

    p = kernel.spawn(over_releaser(), name="sloppy")
    p._error_observed = True

    def joiner():
        yield p

    with pytest.raises(SimError) as exc_info:
        kernel.run_process(joiner())
    message = str(exc_info.value)
    assert "nand.die:3" in message and "sloppy" in message


def test_kill_sanitizer_flags_stranded_lock(kernel):
    """REPRO_SANITIZE=1: killing a holder with no finally is a bug."""
    from repro import sanitize
    from repro.errors import SanitizerError

    lock = Lock(kernel, name="stranded")

    def leaky_holder():
        yield lock.acquire()
        yield 1000                     # no try/finally: lock leaks on kill

    proc = kernel.spawn(leaky_holder(), name="leaky")
    kernel.run(until=10)
    previous = sanitize.enable(True)
    try:
        with pytest.raises(SanitizerError, match="leaky.*stranded"):
            proc.kill()
    finally:
        sanitize.enable(previous)


def test_kill_sanitizer_accepts_hand_off(kernel):
    """hand_off() moves ownership out of the process: kill is clean."""
    from repro import sanitize

    res = Resource(kernel, capacity=1, name="moved")

    def hander():
        yield res.acquire()
        res.hand_off()
        yield 1000

    proc = kernel.spawn(hander(), name="hander")
    kernel.run(until=10)
    previous = sanitize.enable(True)
    try:
        proc.kill()                    # must not raise
    finally:
        sanitize.enable(previous)
    assert res.in_use == 1             # still held by the protocol
    res.release()


# -- holder bookkeeping (actor -> units held) --------------------------------
def test_nested_lock_acquire_raises_after_prior_release_cycle(kernel):
    lock = Lock(kernel, name="relock")

    def proc():
        yield lock.acquire()
        lock.release()
        yield lock.acquire()           # a fresh hold: fine
        yield lock.acquire()           # nested: raises

    p = kernel.spawn(proc(), name="relocker")
    p._error_observed = True

    def joiner():
        yield p

    with pytest.raises(SimError, match="nested acquire.*relocker"):
        kernel.run_process(joiner())


def test_foreign_release_after_hand_off_retires_anonymous_unit(kernel):
    res = Resource(kernel, capacity=2, name="die")

    def hander():
        yield res.acquire()
        res.hand_off()                 # unit 1: now anonymous
        yield 5

    def keeper():
        yield res.acquire()            # unit 2: held by "keeper"
        yield 1000
        res.release()

    kernel.spawn(hander(), name="hander")
    keeper_proc = kernel.spawn(keeper(), name="keeper")
    kernel.run(until=10)
    assert res._holders == {None: 1, keeper_proc: 1}
    res.release()                      # foreign context (main thread)
    assert res._holders == {keeper_proc: 1}   # anonymous unit went first
    kernel.run()
    assert res._holders == {} and res.in_use == 0


def test_capacity_n_resource_held_twice_by_one_actor(kernel):
    res = Resource(kernel, capacity=3, name="slots")
    seen = []

    def double():
        yield res.acquire()
        yield res.acquire()
        seen.append(dict(res._holders))
        res.release()
        seen.append(dict(res._holders))
        res.release()

    proc = kernel.spawn(double(), name="double")
    kernel.run()
    assert seen == [{proc: 2}, {proc: 1}]
    assert res._holders == {} and res.in_use == 0


def test_release_without_own_or_anonymous_unit_retires_oldest(kernel):
    res = Resource(kernel, capacity=2, name="pool")

    def holder(delay):
        yield delay
        yield res.acquire()
        yield 1000
        res.release()

    first = kernel.spawn(holder(1), name="first")
    second = kernel.spawn(holder(2), name="second")
    kernel.run(until=10)
    assert list(res._holders) == [first, second]
    res.release()                      # main thread holds nothing
    assert res._holders == {second: 1}


def test_attach_rebuilds_lockset_with_counts(kernel):
    from repro.races import runtime

    head = Lock(kernel, name="log.head:user")
    alloc = Lock(kernel, name="log.free")
    slots = Resource(kernel, capacity=2, name="slots")  # not a lock
    observed = []

    def holder():
        yield head.acquire()
        yield alloc.acquire()
        yield slots.acquire()
        yield slots.acquire()
        detector = runtime.attach(kernel, strict=False)
        try:
            me = kernel.current
            observed.append(dict(detector._locks[me]))
            alloc.release()
            observed.append(detector.lockset_of(me))
            head.release()
            observed.append(detector.lockset_of(me))
        finally:
            slots.release()
            slots.release()
            runtime.detach(kernel)

    kernel.run_process(holder(), name="holder")
    assert observed == [{"log.head:user": 1, "log.free": 1},
                        frozenset({"log.head:user"}), frozenset()]


def test_deadlock_report_names_every_unit_holder(kernel):
    res = Resource(kernel, capacity=2, name="pair")

    def double():
        yield res.acquire()
        yield res.acquire()
        yield kernel.event()           # parks forever holding both

    def waiter():
        yield 5                        # let "double" take both units
        yield res.acquire()

    kernel.spawn(double(), name="double")
    blocked = kernel.spawn(waiter(), name="waiter")
    blocked._error_observed = True
    kernel.run()
    graph = {entry["process"]: entry for entry in kernel.waits_for_graph()}
    assert graph["waiter"]["waits_on"] == "Resource 'pair'"
    assert graph["waiter"]["holders"] == ["double", "double"]


def test_kill_sanitizer_names_multi_unit_holder(kernel):
    from repro import sanitize
    from repro.errors import SanitizerError

    res = Resource(kernel, capacity=2, name="twice")

    def leaky():
        yield res.acquire()
        yield res.acquire()
        yield 1000                     # no finally: both units leak

    proc = kernel.spawn(leaky(), name="leaky2")
    kernel.run(until=10)
    previous = sanitize.enable(True)
    try:
        with pytest.raises(SanitizerError, match="leaky2.*twice"):
            proc.kill()
    finally:
        sanitize.enable(previous)
