import pytest

from aecomm import cli, nn
from helpers import KERNEL_GETTERS


def pytest_sessionstart(session):
    # cli.main pins BLAS to one thread for the rest of the process; pinning at
    # the start keeps every test on that thread count, not only those run
    # after the first cli.main call
    cli.pin_blas_threads()


@pytest.fixture
def fresh_loader():
    """Empty kernel caches, emptied again afterwards so later tests load the real kernels."""
    caches = (nn._library, nn._dgemm, *(getattr(module, getter) for module, getter in KERNEL_GETTERS))
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
