import pytest

from discrepancy_forge.kernel import build_bump, build_kernel_table


@pytest.fixture(scope="session")
def bump2():
    return build_bump(2)


@pytest.fixture(scope="session")
def kernel2(bump2):
    return build_kernel_table(bump2)


@pytest.fixture(scope="session")
def kernel_tables(kernel2):
    """The kernel tables by dimension."""
    return {1: build_kernel_table(build_bump(1)), 2: kernel2,
            3: build_kernel_table(build_bump(3))}


@pytest.fixture(scope="session", autouse=True)
def _shared_kernel_cache(tmp_path_factory):
    # CLI invocations inside tests share one kernel cache directory; explicit
    # --kernel-cache arguments still take precedence where tests use them.
    import os
    cache_dir = tmp_path_factory.mktemp("kernel-cache")
    old = os.environ.get("DISCREPANCY_FORGE_CACHE")
    os.environ["DISCREPANCY_FORGE_CACHE"] = str(cache_dir)
    yield
    if old is None:
        os.environ.pop("DISCREPANCY_FORGE_CACHE", None)
    else:
        os.environ["DISCREPANCY_FORGE_CACHE"] = old
