from aecomm import cli


def pytest_sessionstart(session):
    # cli.main pins BLAS to one thread for the rest of the process; pinning at
    # the start keeps every test on that thread count, not only those run
    # after the first cli.main call
    cli.pin_blas_threads()
