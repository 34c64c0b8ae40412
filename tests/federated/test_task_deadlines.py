"""Unit tests for FL task specs and deadline schedules."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.federated.deadlines import StaticDeadlines, UniformDeadlines
from repro.federated.task import (
    FLTaskSpec,
    cifar10_vit,
    imagenet_resnet50,
    imdb_lstm,
    paper_tasks,
)


class TestTable2Specs:
    def test_cifar10_vit(self, agx_spec, tx2_spec):
        task = cifar10_vit()
        assert (task.batch_size, task.epochs) == (32, 5)
        assert task.jobs_per_round(agx_spec) == 200
        assert task.jobs_per_round(tx2_spec) == 75
        assert task.name == "CIFAR10-ViT"

    def test_imagenet_resnet50(self, agx_spec, tx2_spec):
        task = imagenet_resnet50()
        assert (task.batch_size, task.epochs) == (8, 2)
        assert task.jobs_per_round(agx_spec) == 180
        assert task.jobs_per_round(tx2_spec) == 60

    def test_imdb_lstm(self, agx_spec, tx2_spec):
        task = imdb_lstm()
        assert (task.batch_size, task.epochs) == (8, 4)
        assert task.jobs_per_round(agx_spec) == 160
        assert task.jobs_per_round(tx2_spec) == 80

    def test_default_rounds_is_100(self):
        for task in paper_tasks():
            assert task.rounds == 100

    def test_samples_on_device(self, agx_spec):
        assert cifar10_vit().samples_on(agx_spec) == 40 * 32

    def test_unknown_device_raises(self, tiny_spec):
        with pytest.raises(ConfigurationError):
            cifar10_vit().jobs_per_round(tiny_spec)

    def test_whole_number_fields(self):
        """Integral floats normalize (as ``BoFLConfig``'s do); bools,
        fractions and non-finite counts raise naming the field."""
        base = cifar10_vit()
        task = FLTaskSpec(
            base.workload, batch_size=32.0, epochs=1.0, rounds=5.0,
            minibatches={"agx": 40.0},
        )
        assert (task.batch_size, task.epochs, task.rounds) == (32, 1, 5)
        assert all(type(v) is int for v in (task.epochs, task.minibatches["agx"]))
        for name in ("batch_size", "epochs", "rounds"):
            for bad in (0, 1.5, True, float("nan")):
                with pytest.raises(ConfigurationError, match=f"{name} must be a whole"):
                    FLTaskSpec(base.workload, **{"batch_size": 8, "epochs": 1, name: bad})
        for bad in (0, 2.5, True):
            with pytest.raises(ConfigurationError, match="minibatches"):
                FLTaskSpec(base.workload, 8, 1, minibatches={"agx": bad})


class TestUniformDeadlines:
    def test_range_respected(self):
        schedule = UniformDeadlines(ratio=2.0, floor=1.05)
        deadlines = schedule.generate(t_min=40.0, rounds=200, seed=0)
        assert len(deadlines) == 200
        assert min(deadlines) >= 1.05 * 40.0
        assert max(deadlines) <= 2.0 * 40.0

    def test_deterministic_per_seed(self):
        schedule = UniformDeadlines(2.0)
        assert schedule.generate(40.0, 10, seed=1) == schedule.generate(40.0, 10, seed=1)
        assert schedule.generate(40.0, 10, seed=1) != schedule.generate(40.0, 10, seed=2)

    def test_spreads_over_range(self):
        deadlines = UniformDeadlines(4.0).generate(10.0, 500, seed=0)
        assert np.std(deadlines) > 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformDeadlines(ratio=1.0)
        with pytest.raises(ConfigurationError):
            UniformDeadlines(ratio=2.0, floor=2.5)
        with pytest.raises(ConfigurationError):
            UniformDeadlines(2.0).generate(t_min=-1.0, rounds=5)
        with pytest.raises(ConfigurationError):
            UniformDeadlines(2.0).generate(t_min=1.0, rounds=0)


class TestStaticDeadlines:
    def test_constant(self):
        deadlines = StaticDeadlines(1.5).generate(t_min=40.0, rounds=5)
        assert deadlines == [60.0] * 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticDeadlines(0.9)
