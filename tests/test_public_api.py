"""The package's public surface: imports, __all__, quick_campaign."""

import importlib
import pkgutil

import pytest

import repro

#: Every package under ``repro``, found by walking its path.
SUBPACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


class TestTopLevel:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quick_campaign_defaults(self):
        result = repro.quick_campaign(controller="performant", rounds=2)
        assert result.rounds == 2
        assert result.training_energy > 0

    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} has no module docstring"
        listed = set(dir(mod))
        for name in getattr(mod, "__all__", []):
            assert name in listed, f"{module}.{name} missing from dir()"
            assert hasattr(mod, name), f"{module}.{name}"


class TestChoiceTuples:
    """The CLI's choice tuples have one definition each, re-exported by
    the engines that used to define them."""

    @pytest.mark.parametrize(
        ("home", "name", "old_paths"),
        [
            ("repro.federated.choices", "FLEET_MODES",
             ("repro.federated.async_engine", "repro.federated")),
            ("repro.federated.choices", "FLEET_DETAILS",
             ("repro.federated.async_engine",)),
            ("repro.faults.schedule", "CHAOS_PRESETS", ("repro.sim.chaos", "repro.sim")),
            ("repro.sim.choices", "CONTROLLER_NAMES", ("repro.sim.runner", "repro.sim")),
        ],
    )
    def test_old_import_paths_resolve_to_the_one_definition(self, home, name, old_paths):
        value = getattr(importlib.import_module(home), name)
        for path in old_paths:
            assert getattr(importlib.import_module(path), name) is value, path


class TestDocumentationCoverage:
    """Every public callable on the top-level API must carry a docstring."""

    def test_public_objects_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_core_classes_documented(self):
        from repro.core import (
            BoFLConfig,
            BoFLController,
            DeadlineGuardian,
            ExploitationPlanner,
            ObservationStore,
            StoppingCondition,
        )

        for cls in (
            BoFLConfig,
            BoFLController,
            DeadlineGuardian,
            ExploitationPlanner,
            ObservationStore,
            StoppingCondition,
        ):
            assert cls.__doc__
            public_methods = [
                name
                for name in vars(cls)
                if not name.startswith("_") and callable(getattr(cls, name))
            ]
            for method in public_methods:
                assert getattr(cls, method).__doc__, f"{cls.__name__}.{method}"
