"""Shared helpers: the bundled presets and model variants for tests."""

import random
from dataclasses import replace
from functools import partial
from pathlib import Path

from bell_lab.models import LocalSetting, load_model
from bell_lab.search import SearchMode, SearchSpec, random_model

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"
# Name -> loader of the committed file; the files are the only presets.
PRESETS = {
    name: partial(load_model, PRESET_DIR / f"{name}.json")
    for name in ("singleton", "singleton_flip", "perfect_correlation", "noisy_readout", "random_seed7")
}


def relation_models():
    """The presets and three random `3,2,3,2,2,3` models, by name: the
    models that the metamorphic relations transform."""
    models = {name: load() for name, load in sorted(PRESETS.items())}
    spec = SearchSpec(cardinalities=(3, 2, 3, 2, 2, 3), mode=SearchMode.RANDOM)
    for seed in (1, 2, 3):
        models[f"random-{seed}"] = random_model(spec, random.Random(seed))
    return models


def alter_local(model, side, label, pmf=None, table=None):
    """Copy of `model` with one setting's pmf weights and/or table replaced."""
    settings = dict(model.alice if side == "alice" else model.bob)
    local = settings[label]
    settings[label] = LocalSetting(
        local.weights if pmf is None else pmf, local.table if table is None else table
    )
    if side == "alice":
        return replace(model, alice=settings)
    return replace(model, bob=settings)


def alter_pmf(model, side, label, weights, table=None):
    return alter_local(model, side, label, pmf=weights, table=table)


def split_local(model, side, label, k):
    """Copy of `model` with local value k of one setting split in two: its
    weight halved into two adjacent values, its table column duplicated."""
    local = (model.alice if side == "alice" else model.bob)[label]
    w = local.weights[k]
    weights = (*local.weights[:k], w / 2, w / 2, *local.weights[k + 1:])
    table = tuple((*row[:k], row[k], *row[k:]) for row in local.table)
    return alter_local(model, side, label, pmf=weights, table=table)


def local_splits(model):
    """Every (side, label, k) that `split_local` takes for `model`."""
    return [
        (side, label, k)
        for side, settings in (("alice", model.alice), ("bob", model.bob))
        for label, local in settings.items()
        for k in range(len(local.weights))
    ]


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
