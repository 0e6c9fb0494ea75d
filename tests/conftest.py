import pytest


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """Keep Hypothesis's caches in pytest's temporary directory, not the working tree."""
    try:
        from hypothesis import configuration
    except ImportError:
        return
    configuration.set_hypothesis_home_dir(config._tmp_path_factory.getbasetemp() / "hypothesis")
