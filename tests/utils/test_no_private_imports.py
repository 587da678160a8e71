"""Private-import lint: packages meet at public names only.

An underscore name is private to the package that defines it. A module
of one ``src/repro/<package>`` may import one from a module of the same
package (``repro.cluster.simulator`` takes ``_compute_span`` from
``repro.cluster.replay``), never from another package: whatever a second
package needs becomes public API first. Top-level modules
(``repro/smoke.py``, ``repro/errors.py``, ...) are packages of their
own.
"""

import ast
import os

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                   "..", "src", "repro"))


def _py_files():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, SRC), path


def _package(rel):
    """The ``repro`` package a path relative to ``src/repro`` is in."""
    return os.path.splitext(rel.split(os.sep)[0])[0]


def _foreign_private_names(rel, source):
    """``module.name`` of each underscore name imported across packages."""
    own = _package(rel)
    for node in ast.walk(ast.parse(source, filename=rel)):
        if not isinstance(node, ast.ImportFrom):
            continue
        # The tree imports absolutely; a relative import would dodge
        # the package test below.
        assert node.level == 0, f"{rel}:{node.lineno} imports relatively"
        parts = (node.module or "").split(".")
        if parts[0] != "repro" or len(parts) < 2 or parts[1] == own:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{node.module}.{alias.name}"


def test_src_tree_exists():
    assert any(True for _ in _py_files())


@pytest.mark.parametrize("rel,path", list(_py_files()),
                         ids=[rel for rel, _ in _py_files()])
def test_no_cross_package_private_imports(rel, path):
    with open(path, encoding="utf-8") as f:
        hits = list(_foreign_private_names(rel, f.read()))
    assert not hits, (
        f"{rel} imports private names of another package: {hits}; "
        "make them public API of their package first")


def test_lint_sees_both_sides():
    # Same package passes; another package's private name fails.
    inside = os.path.join("cluster", "simulator.py")
    assert not list(_foreign_private_names(
        inside, "from repro.cluster.replay import _compute_span\n"))
    outside = os.path.join("fleet", "site.py")
    assert list(_foreign_private_names(
        outside, "def f():\n    from repro.cluster.replay import _x\n")) \
        == ["repro.cluster.replay._x"]
