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
def use_pool(monkeypatch):
    """use_pool(k): each sampler call from now on draws its blocks on a
    pool of k threads of its own."""

    def use(threads):
        monkeypatch.setattr(simulate, "_cycle_threads", lambda: threads)

    return use


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
