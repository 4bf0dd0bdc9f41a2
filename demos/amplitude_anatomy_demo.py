"""Anatomy of the anisotropic forward scattering amplitude.

Walks through the pieces that feed the decoherence rates: the scalar
eikonal amplitude, the rotor coupling matrix for one collision direction,
and the circle-averaged forward amplitude in both the linearized and the
exact fractional-power (spectral) form.  The gap between the two shrinks
quadratically with the anisotropy parameter, which is why the linearized
backend is the default.
"""

import json
import math

import numpy as np

from superrotor.params import builtin_config, load_config
from superrotor.scattering import (
    coupling_matrix,
    forward_amplitude_linearized,
    forward_amplitude_spectral,
    forward_scalar,
)


def spec_with_aniso(alpha_aniso):
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = alpha_aniso
    return load_config(json.dumps(doc))


def main():
    spec = spec_with_aniso(1.0)  # epsilon = 2/3, small enough for both routes
    q = spec.thermal_momentum

    c = forward_scalar(q, spec)
    print("scalar forward amplitude at q = q_th:")
    print("  c(q) = %.6f%+.6fi, phase = %.4f rad" % (c.real, c.imag, np.angle(c)))
    print("  (fixed phase 3*pi/10 = %.4f from the b^-5 tail)" % (0.3 * math.pi))
    print()

    # one collision orientation: impact direction in the plane normal to n'
    j = 2
    e_b = np.array([math.cos(0.7), math.sin(0.7), 0.0])
    coup = coupling_matrix(j, [0.0, 0.0, 1.0], e_b, spec.molecule)
    print("coupling matrix band pattern for j = %d (|entries| > 1e-12):" % j)
    for r in range(2 * j + 1):
        marks = "".join("x" if abs(coup[r, s]) > 1e-12 else "."
                        for s in range(2 * j + 1))
        print("    " + marks)
    print("  with e_b in the equatorial plane only m and m+-2 couple;")
    print("  tilting n' off the quantization axis fills in the m+-1 bands")
    print()

    # linearized vs exact fractional power as the anisotropy grows
    print("linearized vs spectral forward amplitude, j = 2, n' = z:")
    print("%10s %12s %12s" % ("epsilon", "max gap", "gap ratio"))
    previous = None
    for aniso in (0.25, 0.5, 1.0, 2.0):
        s = spec_with_aniso(aniso)
        lin = forward_amplitude_linearized(j, q, [0, 0, 1], s)
        spe = forward_amplitude_spectral(j, q, [0, 0, 1], s)
        gap = float(np.max(np.abs(spe - lin)))
        ratio = gap / previous if previous else float("nan")
        print("%10.4f %12.4e %12.4f" % (s.molecule.epsilon, gap, ratio))
        previous = gap
    print("  doubling epsilon quadruples the gap: the linearization error is O(epsilon^2)")


if __name__ == "__main__":
    main()
