"""Fixtures shared by the test modules."""

import shutil
import sysconfig

import pytest

from ensflow import gr2m


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """``load_kernel`` forgets its loop and builds from a copy of the source whose ``__pycache__`` is empty."""
    source = tmp_path / "_gr2m.c"
    shutil.copy(gr2m.KERNEL_SOURCE, source)
    monkeypatch.setattr(gr2m, "KERNEL_SOURCE", source)
    gr2m.load_kernel.cache_clear()
    yield source
    gr2m.load_kernel.cache_clear()


@pytest.fixture
def foreign_cc(empty_cache, monkeypatch):
    """``sysconfig``'s ``CC`` names a compiler this machine does not have (a Python built elsewhere)."""
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "ensflow-no-such-cc" if name == "CC" else real(name))
    return empty_cache


@pytest.fixture
def no_compiler(foreign_cc, monkeypatch):
    """Neither ``sysconfig``'s ``CC`` nor ``cc`` can be found, and no library was built before."""
    monkeypatch.setenv("PATH", str(foreign_cc.parent / "no-programs-here"))
    return foreign_cc
