"""Every oracle test runs with :func:`tests.oracles.cluster.scalar_cluster`
active, so the oracle engines' scalar cluster calls resolve."""

import pytest

from .cluster import scalar_cluster


@pytest.fixture(autouse=True, scope="package")
def _scalar_cluster():
    with scalar_cluster():
        yield
