"""Records hold read-only arrays and never change the caller's arrays."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import EIGENBASIS_ARRAYS
from vww.grid import GridFunction
from vww.spectral import SpectralCoeffs, analyze
from vww.wave import (ForcingTable, WaveProblem, analyze_forcing,
                      solve_homogeneous)


def _problem(basis):
    g = basis.grid
    u0 = GridFunction(g, np.sin(math.pi * g.nodes))
    return WaveProblem(basis, analyze(u0, basis),
                       analyze(GridFunction.zeros(g), basis), 1.0)


def _forcing(basis):
    times = np.linspace(0.0, 1.0, 5)
    w = GridFunction(basis.grid, np.sin(math.pi * basis.grid.nodes))
    return analyze_forcing(np.cos(times), w, basis, times)


# record name -> (builder from a basis, its array fields)
RECORDS = {
    "GridFunction": (lambda b: GridFunction(b.grid, np.ones(b.grid.n + 1)),
                     ("values",)),
    "SpectralCoeffs": (lambda b: SpectralCoeffs(b, np.ones(len(b))),
                       ("coeffs",)),
    "ForcingTable": (_forcing, ("times", "table")),
    "WaveSolution": (lambda b: solve_homogeneous(_problem(b), [0.0, 0.5]),
                     ("times", "modal", "modal_dt", "values", "dt_values")),
    "EigenBasis": (lambda b: b, EIGENBASIS_ARRAYS),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_arrays_reject_writes(name, free_basis_small):
    build, fields = RECORDS[name]
    record = build(free_basis_small)
    for field in fields:
        arr = getattr(record, field)
        assert not arr.flags.writeable, field
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_caller_arrays_stay_writeable(free_basis_small):
    t = np.linspace(0.0, 1.0, 5)
    sol = solve_homogeneous(_problem(free_basis_small), t)
    arr = np.array(free_basis_small.lambdas)
    basis = dataclasses.replace(free_basis_small, lambdas=arr)
    assert t.flags.writeable and arr.flags.writeable
    assert not sol.times.flags.writeable
    assert not basis.lambdas.flags.writeable


def test_copying_records_keep_c_ordered_copies(free_basis_small):
    # a Fortran-ordered table comes back as a C-ordered copy
    table = np.asfortranarray(_forcing(free_basis_small).table)
    assert not table.flags.c_contiguous
    kept = ForcingTable(np.linspace(0.0, 1.0, 5), table).table
    assert kept.flags.c_contiguous and np.array_equal(kept, table)
    values = np.zeros(free_basis_small.grid.n + 1)
    f = GridFunction(free_basis_small.grid, values)
    values[1] = 1.0
    assert f.values[1] == 0.0 and values.flags.writeable
