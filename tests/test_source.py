"""Source hygiene: every module compiles without warnings."""

import pathlib
import warnings

import pytest

import critspec

SOURCES = sorted(pathlib.Path(critspec.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    # invalid escapes such as "\i" in a non-raw docstring warn at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
