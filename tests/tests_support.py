"""Shared helpers: the bundled presets and model variants for tests."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from bell_lab.models import ContextualModel, JointPmf, LocalSetting, load_model
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


def _composition(rng, parts: int, denominator: int) -> list[Fraction]:
    """`parts` strictly positive weights k/denominator summing to 1."""
    cuts = sorted(rng.sample(range(1, denominator), parts - 1))
    bounds = [0, *cuts, denominator]
    return [Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]


def positive_model(shape, seed: int = 0) -> ContextualModel:
    """A model of cardinalities `shape` with every weight positive and
    coin-flip tables.  Each pmf of n weights is a composition over 4n, as
    the benchmark draws them, so D stays far below 2^63 at the tests'
    widths, where `random_model`'s 64 units leave most of a wide axis at 0."""
    rng = random.Random(seed)
    s1, s2, *sizes = shape
    flat = _composition(rng, s1 * s2, 4 * s1 * s2)

    def local(rows, n):
        return LocalSetting(
            _composition(rng, n, 4 * n), [[rng.choice((1, -1)) for _ in range(n)] for _ in range(rows)]
        )

    return ContextualModel(
        source=JointPmf([flat[r * s2:(r + 1) * s2] for r in range(s1)]),
        alice={"x": local(s1, sizes[0]), "x'": local(s1, sizes[1])},
        bob={"y": local(s2, sizes[2]), "y'": local(s2, sizes[3])},
    )


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


def split_source(model, side, index):
    """Copy of `model` with one source index split in two halves of its
    weights: row `index`, with row `index` of both of Alice's tables
    duplicated (side "alice"), or column `index`, with row `index` of both
    of Bob's tables duplicated (side "bob")."""

    def twice(items, item):
        return (*items[:index], item, item, *items[index + 1:])

    weights = model.source.weights
    if side == "alice":
        source = twice(weights, tuple(w / 2 for w in weights[index]))
    else:
        source = tuple(twice(row, row[index] / 2) for row in weights)
    settings = {
        label: LocalSetting(local.weights, twice(local.table, local.table[index]))
        for label, local in getattr(model, side).items()
    }
    return replace(model, source=JointPmf(source), **{side: settings})


def source_splits(model):
    """Every (side, index) that `split_source` takes for `model`."""
    return [("alice", i) for i in range(model.source.rows)] + [
        ("bob", j) for j in range(model.source.cols)
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
