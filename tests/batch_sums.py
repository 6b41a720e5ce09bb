"""The Monte Carlo atom sum of a test's own ensemble, taken as a replica of one batch takes it.

:func:`gravdicke.spectrum.monte_carlo_spectrum` adds one batch into a replica's
cells, a contraction then sums the cells over the grid, and the replica
applies the timed Dicke state's norm 1 / sqrt(N).  The tests that check the sum
on an ensemble of their own run these steps through :func:`one_batch_sum`.
"""

import math

import numpy as np

from gravdicke import spectrum


def one_batch_sum(ens, kz_grid, p, *, work=None, stats=None):
    """Atom sum of ``ens`` over the grid, as a replica whose one batch is ``ens`` takes it.

    The cells' h comes from the grid and the heights' reach max |z_j|.  The
    batch is added into cells with room for one per atom, in ``work`` (fresh
    arrays if None), contracted once and divided by sqrt(ens.n); ``stats``
    receives the contraction's counts.
    """
    kz = np.asarray(kz_grid, dtype=float)
    h = spectrum._cell_half_width(kz, p, float(np.max(np.abs(ens.positions[:, 2]))))
    work = spectrum._sum_work(ens.n) if work is None else work
    cells = spectrum._Cells(h, ens.n)
    spectrum.monte_carlo_spectrum(ens, p, kz, cells, work=work)
    total = spectrum._contract(cells, kz, p, work, {} if stats is None else stats)
    return total / math.sqrt(ens.n)
