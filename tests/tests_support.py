"""Shared helpers for building model variants in tests."""

from dataclasses import replace

from bell_lab.models import LocalSetting, Pmf, ResponseTable


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
