"""Dense oracles of the circle-averaged coupling.

The package assembles the linearized forward amplitude from the three band
vectors of rates.template_bands. These helpers keep the dense form of the
same sum: five (d, d) templates T_1..T_5 and their contraction
sum_a g_a(n') T_a with scattering.geometry_factors. test_scattering checks
that contraction against a circle quadrature of coupling_matrix to 1e-12,
and the rate and energy-shift oracles of test_rates read the templates.
"""

import numpy as np

from superrotor.rates import template_bands
from superrotor.scattering import geometry_factors


def coupling_templates(j, mol, kappa_mode="exact"):
    """The five real banded templates of block j as a (5, d, d) array.

    T_1 holds the diagonal, T_2 and T_4 the first and second superdiagonal
    of template_bands; T_3 and T_5 are their transposes.
    """
    diag, band1, band2 = template_bands(j, mol, kappa_mode)
    d = len(diag)
    i = np.arange(d)
    t = np.zeros((5, d, d))
    t[0][i, i] = diag
    t[1][i[:-1], i[:-1] + 1] = band1
    t[2] = t[1].T
    t[3][i[:-2], i[:-2] + 2] = band2
    t[4] = t[3].T
    return t


def averaged_coupling(j, n_prime, mol, kappa_mode="exact"):
    """Circle average of the coupling matrix, sum_a g_a(n') T_a."""
    g = geometry_factors(n_prime)
    t = coupling_templates(j, mol, kappa_mode)
    return np.tensordot(g, t, axes=(0, 0))
