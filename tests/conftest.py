import gc
import os
import sys
from types import FrameType, SimpleNamespace

import pytest

from heatctl import pde


@pytest.fixture
def solve_calls(monkeypatch):
    """Record every ``solve_forward`` and ``solve_adjoint`` call.

    Modules that imported a solver by name hold their own reference to it, so
    the recorder replaces it in every heatctl module that holds the original.
    ``forward`` collects ``(control, trajectory)`` pairs, ``adjoint`` the
    trajectory each costate was solved along and ``adjoint_reaction`` the
    reaction term it was solved with.
    """
    calls = SimpleNamespace(forward=[], adjoint=[], adjoint_reaction=[])

    def recorded_forward(y0, u, f, g):
        traj = original_forward(y0, u, f, g)
        calls.forward.append((u, traj))
        return traj

    def recorded_adjoint(y, xi, f, g):
        calls.adjoint.append(y)
        calls.adjoint_reaction.append(f)
        return original_adjoint(y, xi, f, g)

    original_forward, original_adjoint = pde.solve_forward, pde.solve_adjoint
    for name, original, recorded in (("solve_forward", original_forward, recorded_forward),
                                     ("solve_adjoint", original_adjoint, recorded_adjoint)):
        for module_name, module in list(sys.modules.items()):
            if ((module_name == "heatctl" or module_name.startswith("heatctl."))
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture
def use_cpus(monkeypatch):
    """``use_cpus(count)`` makes the worker rule of ``solvers._map_points``
    see ``count`` CPUs, whatever the host has."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return use


@pytest.fixture
def heatctl_frames_in_cycles():
    """``heatctl_frames_in_cycles(run)`` calls ``run()`` with cyclic garbage
    collection off, then names the heatctl frames that only a cyclic
    collection frees: each one keeps its locals, arrays included, alive
    until the collector runs."""
    def collect(run):
        gc.collect()
        gc.disable()
        try:
            run()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            return [obj.f_code.co_name for obj in gc.garbage
                    if isinstance(obj, FrameType)
                    and obj.f_globals.get("__name__", "").startswith("heatctl")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
    return collect
