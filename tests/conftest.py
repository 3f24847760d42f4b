"""Shared fixtures: grids, catalog potentials and cached eigenbases."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vww
from vww.grid import Grid, GridFunction
from vww.potential import NuPrimitive
from vww.prufer import build_basis


def catalog_potentials() -> dict:
    """Named potentials exercised across the suite."""
    return {
        "zero": NuPrimitive(),
        "const": NuPrimitive("const", (1.0,)),
        "linear5": NuPrimitive("linear", (5.0,)),
        "sine": NuPrimitive("sine", (1.0, 1.0)),
        "step": NuPrimitive(jumps=((0.5, 1.0),)),
        "mixed": NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),)),
    }


@pytest.fixture(scope="session")
def grid512():
    return Grid(512)


@pytest.fixture(scope="session")
def grid2048():
    return Grid(2048)


@pytest.fixture(scope="session")
def grid1600():
    return Grid(1600)


@pytest.fixture(scope="session")
def free_basis_small(grid512):
    return build_basis(NuPrimitive(), 10, grid512)


@pytest.fixture(scope="session")
def free_basis_40(grid2048):
    return build_basis(NuPrimitive(), 40, grid2048)


@pytest.fixture(scope="session")
def step_basis_40(grid2048):
    return build_basis(NuPrimitive(jumps=((0.5, 1.0),)), 40, grid2048)


@pytest.fixture(scope="session")
def const5_basis_40(grid1600):
    return build_basis(NuPrimitive("linear", (5.0,)), 40, grid1600)


@pytest.fixture(scope="session")
def catalog_bases_40(free_basis_40, step_basis_40, const5_basis_40, grid2048):
    """N=40 bases for every catalog potential."""
    named = catalog_potentials()
    bases = {
        "zero": free_basis_40,
        "step": step_basis_40,
        "linear5": const5_basis_40,
    }
    for name in ("const", "sine"):
        bases[name] = build_basis(named[name], 40, grid2048)
    # the mixed atom at 0.3 sits inside a Simpson panel; the eigenfunction
    # derivative kink then costs O(h^2) in the Gram, so this one needs the
    # finer grid to clear 1e-7
    bases["mixed"] = build_basis(named["mixed"], 40, Grid(4096))
    return bases


@pytest.fixture(scope="session")
def delta_sweep_battery(grid2048):
    """Mollified-delta problems over alpha x epsilon with fixed data."""
    from oracles import random_sine_data
    from vww.potential import MollifiedNu, MollifierSpec
    from vww.spectral import analyze
    from vww.wave import WaveProblem, solve_homogeneous

    rng = np.random.default_rng(3)
    u0 = random_sine_data(grid2048, rng)
    u1 = random_sine_data(grid2048, rng)
    entries = []
    for alpha in (1.0, 2.0, 4.0):
        nu = NuPrimitive(jumps=((0.5, alpha),))
        for k in range(2, 10):
            eps = 2.0**-k
            q_eps = MollifiedNu(nu, MollifierSpec("bump", eps))
            basis = build_basis(q_eps, 16, grid2048, tol=1e-9)
            prob = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis),
                               1.0)
            sol = solve_homogeneous(prob, np.linspace(0.0, 1.0, 33))
            entries.append((prob, sol, {"alpha": alpha, "epsilon": eps}))
    return entries


def sine_data(grid: Grid, pairs) -> GridFunction:
    vals = np.zeros(grid.n + 1)
    for amp, m in pairs:
        vals += amp * np.sin(m * math.pi * grid.nodes)
    return GridFunction(grid, vals)


def parabola(grid: Grid) -> GridFunction:
    x = grid.nodes
    return GridFunction(grid, x * (1.0 - x))


def checkout_env() -> dict:
    """The environment with this checkout's ``vww`` first on the path."""
    src = os.path.dirname(os.path.dirname(vww.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def modules_in_fresh_python(code: str, *packages: str) -> list:
    """Names of the modules of ``packages`` loaded after running ``code``
    in a new interpreter with this checkout's ``vww`` on its path."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] in {packages!r})))")
    done = subprocess.run([sys.executable, "-c", code + probe],
                          env=checkout_env(), capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])
