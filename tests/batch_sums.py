"""The Monte Carlo atom sum of a test's own ensemble, taken as a replica of one batch takes it.

:func:`gravdicke.spectrum.monte_carlo_spectrum` adds one batch, whose state is
in the cells' frame, into a replica's cells, and a contraction then sums the
cells over the grid.  The tests that check the sum on an ensemble of their own
run both steps through :func:`one_batch_sum`.
"""

import numpy as np

from gravdicke import spectrum
from gravdicke.emission import curved_timed_dicke


def one_batch_sum(ens, kz_grid, p, lab=None, *, state=curved_timed_dicke, work=None,
                  stats=None):
    """Atom sum of ``ens`` over the grid, as a replica whose one batch is ``ens`` takes it.

    The cells' k_c and h come from the grid and the heights' reach max |z_j|.
    The batch's state is state(ens, k0z - k_c), the timed Dicke state in the
    cells' frame; lab-frame amplitudes ``lab`` are taken into that frame by
    e^{-i k_c z_j} instead.  The batch is added into cells with room for one
    per atom, in ``work`` (fresh arrays if None), and contracted once; ``stats``
    receives the contraction's counts.
    """
    kz = np.asarray(kz_grid, dtype=float)
    z = ens.positions[:, 2]
    k_c, h = spectrum._cell_half_width(kz, p, float(np.max(np.abs(z))))
    amplitudes = state(ens, p.k0z - k_c) if lab is None else lab * np.exp(-1j * k_c * z)
    work = spectrum._sum_work(ens.n) if work is None else work
    cells = spectrum._Cells(k_c, h, ens.n, ens.n)
    spectrum.monte_carlo_spectrum(ens, amplitudes, kz, p, cells, work=work)
    return spectrum._contract(cells, kz, p, work, {} if stats is None else stats)
