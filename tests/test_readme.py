"""README.md documents the public API: every name ``arknls`` exports, and
no name it no longer has."""

import re
from pathlib import Path

import pytest

import arknls
import arknls.nnls
import arknls.solver

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# Folded into nnls_block, or only ever a test convenience: the kernel's
# references live in tests/reference.py.  sweep went when fit took a start.
REMOVED = (
    "nnls_rank1",
    "nnls_rank2",
    "nnls_rank3",
    "build_workspace",
    "nnls_oracle",
    "nnls_recursive",
    "sweep",
)

# Removed names that are words of the prose too: only their code forms,
# `name`, name( and .name, must be gone.
WORDS = ("sweep",)


@pytest.mark.parametrize("name", arknls.__all__)
def test_exported_name_in_readme(name):
    assert f"`{name}`" in README


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_in_readme(name):
    for module in (arknls, arknls.nnls, arknls.solver):
        assert not hasattr(module, name), module
    if name in WORDS:
        pattern = rf"`{name}`|\b{name}\(|\.{name}\b"
    else:
        pattern = rf"\b{name}\b"
    assert not re.search(pattern, README)
