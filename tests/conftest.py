from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sleepnet import CANONICAL, ChGapDistribution, simulate


@pytest.fixture(scope="session")
def canonical_dist():
    """Gap distribution at the canonical configuration (corrected)."""
    return ChGapDistribution(CANONICAL)


@pytest.fixture(scope="session")
def canonical_paper_dist():
    return ChGapDistribution(CANONICAL.replace(fidelity="paper"))


def assert_close(actual, expected, rel=0.0, abs_tol=0.0, label=""):
    __tracebackhide__ = True
    err = abs(actual - expected)
    bound = abs_tol + rel * abs(expected)
    assert err <= bound, (
        f"{label}: |{actual!r} - {expected!r}| = {err!r} > {bound!r}")


def rng_for_test(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture
def fresh_pool(monkeypatch):
    """The sampler's module block pool starts afresh in the test, as on a
    machine of two CPUs, and is shut down after it."""
    monkeypatch.setattr(simulate, "_pool", None)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    yield
    if simulate._pool is not None:
        simulate._pool.shutdown()


@pytest.fixture
def use_pool(monkeypatch):
    """use_pool(k): run the sampler's blocks on a new pool of k threads,
    none of which has a scratch yet, in place of the module pool; the
    pool it replaces, and the last one after the test, are shut down."""
    pools = []

    def use(threads):
        if pools:
            pools[-1].shutdown()
        pool = ThreadPoolExecutor(threads)
        pools.append(pool)
        monkeypatch.setattr(simulate, "_block_pool", lambda: pool)
        return pool

    yield use
    if pools:
        pools[-1].shutdown()


@pytest.fixture
def allocations(monkeypatch):
    """The list of every block scratch made from now on, in order."""
    made = []

    class Counted(simulate._BlockScratch):
        def __init__(self, m):
            super().__init__(m)
            made.append(self)

    monkeypatch.setattr(simulate, "_BlockScratch", Counted)
    return made
