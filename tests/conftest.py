"""Shared fixtures.

Heavy artifacts (topologies, routing tables) are session-scoped: they are
immutable, so sharing them across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, settings

from repro.core import PolarFly, ClusterLayout
from repro.flitsim._kernel import load_kernel, numpy_fallback
from repro.routing import RoutingTables


#: the differential harness's long slice, several times tier-1's cells:
#: ``pytest tests/test_differential.py --hypothesis-profile=differential-long``
settings.register_profile(
    "differential-long", max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _flat_variants():
    variants = [("flat-numpy", numpy_fallback, False)]
    kernel = load_kernel()
    if kernel is not None and kernel.select_ok:
        variants.append(("flat-kernel", contextlib.nullcontext, True))
    return variants


@pytest.fixture(scope="session")
def flat_variants():
    """(label, context factory, expects kernel) for both flat cycle paths.

    Build the simulator inside ``with ctx():`` to pin it to that path.
    """
    return _flat_variants()


@pytest.hookimpl(trylast=True)  # after a test's own marks: ids end in the label
def pytest_generate_tests(metafunc):
    """A ``flat_path`` argument runs the test once per flat cycle path."""
    if "flat_path" in metafunc.fixturenames:
        labels, contexts, _ = zip(*_flat_variants())
        metafunc.parametrize("flat_path", contexts, ids=labels)


@pytest.fixture(scope="module")
def pf():
    """The q=7, two-endpoint fabric the equivalence suites share."""
    return PolarFly(7, concentration=2)


@pytest.fixture(scope="module")
def tables(pf):
    return RoutingTables(pf)


@pytest.fixture(scope="session")
def pf5():
    return PolarFly(5)


@pytest.fixture(scope="session")
def pf7():
    return PolarFly(7)


@pytest.fixture(scope="session")
def pf9():
    """Extension-field case (q = 3**2)."""
    return PolarFly(9)


@pytest.fixture(scope="session")
def pf11():
    return PolarFly(11)


@pytest.fixture(scope="session")
def pf13():
    return PolarFly(13)


@pytest.fixture(scope="session")
def layout7(pf7):
    return ClusterLayout(pf7)


@pytest.fixture(scope="session")
def layout9(pf9):
    return ClusterLayout(pf9)


@pytest.fixture(scope="session")
def pf7_endpoints():
    return PolarFly(7, concentration=4)


@pytest.fixture(scope="session")
def tables7(pf7_endpoints):
    return RoutingTables(pf7_endpoints)
