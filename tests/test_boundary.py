"""Samples are validated once, where they enter the public API, and every
name one module takes from another is part of that module's exports."""

import ast
import importlib
import pathlib
from collections import defaultdict

import numpy as np
import pytest

import dwmd
from dwmd import (
    DwmdConfig, cmd, cmd_with_gradient, dwmd_gradient, dwmd_with_gradient, mmd_rbf,
    mmd_rbf_with_gradient, moments, smd, smd_gradient, weight_profile,
)
from dwmd.nettrain import NetworkSpec, TrainConfig, init_model, objective_gradient, train_uda

PACKAGE_DIR = pathlib.Path(dwmd.__file__).parent
MODULES = ["moments", "weighting", "discrepancy", "nettrain", "harness", "cli"]
# The modules with an export list; cli is the command-line entry point.
LIBRARY = ["dwmd"] + [f"dwmd.{m}" for m in MODULES if m != "cli"]


@pytest.fixture
def validation_calls(monkeypatch):
    """Counts validate_samples calls, patched at every dwmd module attribute
    that refers to it (callers look it up through their module globals)."""
    calls = []
    original = moments.validate_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in [dwmd] + [importlib.import_module(f"dwmd.{m}") for m in MODULES]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def two_layer_spec():
    return NetworkSpec((2, 4, 3, 2), ("sigmoid", "relu"), matched_layers=(0, 1))


def blobs(m=80, seed=1):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], m // 2)
    signs = np.where(labels == 0, -1.0, 1.0)[:, None]
    source = signs * [1.5, 0.0] + rng.normal(size=(m, 2))
    target = signs * [1.5, 0.0] + rng.normal(size=(m, 2)) + [0.5, 0.5]
    return source, labels, target, labels.copy()


class TestValidateOnce:
    @pytest.mark.parametrize(
        "regularizer, expected", [("dwmd", 4), ("smd", 4), ("cmd", 4), ("mmd", 4), ("none", 0)]
    )
    def test_one_check_per_domain_and_matched_layer(
        self, regularizer, expected, validation_calls
    ):
        x_s, y_s, x_t, _ = blobs(m=40)
        cfg = TrainConfig(regularizer=regularizer, batch_size=40)
        objective_gradient(init_model(two_layer_spec(), seed=3), x_s, y_s, x_t, cfg)
        assert len(validation_calls) == expected

    @pytest.mark.parametrize("regularizer", ["dwmd", "cmd", "mmd", "none"])
    def test_train_uda_checks_nothing_twice(self, regularizer, validation_calls):
        x_s, y_s, x_t, y_t = blobs(m=80)
        epochs, steps = 3, 3 * 4  # 80 rows in batches of 20, 3 epochs
        cfg = TrainConfig(regularizer=regularizer, epochs=epochs, batch_size=20)
        train_uda(x_s, y_s, x_t, two_layer_spec(), cfg, target_labels=y_t)
        # Both inputs once, one evaluate per epoch, and each matched layer's
        # two activation matrices once per step in the regularizer.
        per_step = 0 if regularizer == "none" else 2 * 2
        assert len(validation_calls) == 2 + epochs + per_step * steps

    def test_non_finite_activations_still_stopped(self):
        # A frozen-free dwmd step checks each matched layer once, through
        # weight_profile, so an overflowing activation cannot pass silently.
        spec = NetworkSpec((2, 4, 2), ("relu",), matched_layers=(0,))
        model = init_model(spec, seed=3)
        model.weights[0][:] = 1e308
        x_s, y_s, x_t, _ = blobs(m=40)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite entry"):
                objective_gradient(model, x_s, y_s, x_t, TrainConfig(batch_size=40))


SERIES_CALLS = {
    "dwmd": dwmd.dwmd,
    "smd": smd,
    "dwmd_with_gradient": dwmd_with_gradient,
    "dwmd_gradient": dwmd_gradient,
    "smd_gradient": smd_gradient,
}
OTHER_CALLS = {
    "cmd": cmd,
    "cmd_with_gradient": cmd_with_gradient,
    "mmd_rbf": mmd_rbf,
    "mmd_rbf_with_gradient": mmd_rbf_with_gradient,
    "weight_profile": weight_profile,
}


def sigmoid_pair(m=60, d=3):
    rng = np.random.default_rng(5)
    a = 1.0 / (1.0 + np.exp(-rng.normal(size=(2 * m, d))))
    return a[:m], a[m:]


class TestOneCheckPerMatrix:
    @pytest.mark.parametrize("frozen", [False, True], ids=["profile-built", "profile-frozen"])
    @pytest.mark.parametrize("config", [None, DwmdConfig(standardize=True)], ids=["default", "std"])
    @pytest.mark.parametrize("name", SERIES_CALLS)
    def test_series_calls(self, name, config, frozen, validation_calls):
        s, t = sigmoid_pair()
        profile = weight_profile(s, t) if frozen else None
        validation_calls.clear()
        SERIES_CALLS[name](s, t, config, profile)
        assert [args[1:] for args in validation_calls] == [("source",), ("target",)]

    @pytest.mark.parametrize("name", OTHER_CALLS)
    def test_baselines_and_profile(self, name, validation_calls):
        OTHER_CALLS[name](*sigmoid_pair())
        assert [args[1:] for args in validation_calls] == [("source",), ("target",)]

    @pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd", "mmd"])
    def test_frozen_step_stops_non_finite_activations(self, regularizer):
        # The frozen constants skip the profile, widths or median, but not
        # the check of the activations that the public call makes.
        spec = NetworkSpec((2, 4, 2), ("relu",), matched_layers=(0,))
        frozen = {
            "dwmd": weight_profile(*sigmoid_pair(d=4)),
            "smd": weight_profile(*sigmoid_pair(d=4)),
            "cmd": [1.0] * 4,
            "mmd": 1.0,
        }[regularizer]
        model = init_model(spec, seed=3)
        model.weights[0][:] = 1e308
        x_s, y_s, x_t, _ = blobs(m=40)
        cfg = TrainConfig(regularizer=regularizer, batch_size=40)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite entry"):
                objective_gradient(model, x_s, y_s, x_t, cfg, {0: frozen})


def _cross_module_names():
    """module name -> non-underscore names other dwmd modules take from it,
    by `from .module import name` or as `alias.name` after
    `from . import module as alias`."""
    taken = defaultdict(set)
    for path in PACKAGE_DIR.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        taken[node.module].add(alias.name)
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                taken[aliases[node.value.id]].add(node.attr)
    return {mod: {n for n in names if not n.startswith("_")} for mod, names in taken.items()}


class TestPublicSurface:
    def test_names_crossing_modules_are_exported(self):
        taken = _cross_module_names()
        assert "harness" in taken and "save_csv" in taken["harness"]
        missing = {
            mod: sorted(names - set(importlib.import_module(f"dwmd.{mod}").__all__))
            for mod, names in taken.items()
        }
        assert {mod: names for mod, names in missing.items() if names} == {}

    @pytest.mark.parametrize("name", LIBRARY)
    def test_every_export_resolves(self, name):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__)
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    def test_package_root_exports(self):
        from dwmd import TrainingDiverged, cmd_with_gradient, mmd_rbf_with_gradient
        from dwmd.discrepancy import cmd_with_gradient as cmd_grad
        from dwmd.discrepancy import mmd_rbf_with_gradient as mmd_grad
        from dwmd.nettrain import TrainingDiverged as diverged

        assert (TrainingDiverged, cmd_with_gradient, mmd_rbf_with_gradient) == (
            diverged,
            cmd_grad,
            mmd_grad,
        )
