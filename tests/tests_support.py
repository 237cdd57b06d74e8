"""Shared helpers: the bundled presets and model variants for tests."""

from dataclasses import replace
from functools import partial
from pathlib import Path

from bell_lab.models import LocalSetting, Pmf, ResponseTable, load_model

PRESET_DIR = Path(__file__).resolve().parent.parent / "presets"
# Name -> loader of the committed file; the files are the only presets.
PRESETS = {
    name: partial(load_model, PRESET_DIR / f"{name}.json")
    for name in ("singleton", "singleton_flip", "perfect_correlation", "noisy_readout", "random_seed7")
}


def alter_local(model, side, label, pmf=None, table=None):
    """Copy of `model` with one setting's pmf and/or table replaced."""
    settings = dict(model.alice if side == "alice" else model.bob)
    local = settings[label]
    new_table = (
        local.table
        if table is None
        else ResponseTable(side=side, setting=label, values=table)
    )
    settings[label] = LocalSetting(
        pmf=local.pmf if pmf is None else Pmf(tuple(pmf)), table=new_table
    )
    if side == "alice":
        return replace(model, alice=settings)
    return replace(model, bob=settings)


def alter_pmf(model, side, label, weights, table=None):
    return alter_local(model, side, label, pmf=weights, table=table)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
