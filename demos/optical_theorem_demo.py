"""Cross-section consistency checks for the eikonal amplitude.

For an isotropic molecule the scattering problem is scalar, so three
independent routes to the same physics have to agree:

  1. closed-form elastic cross section from the b^-5 phase tail,
  2. impact-parameter norm integral of |f|^2,
  3. the optical theorem (4 pi / q) Im f(0) with f(0) from the full
     two-dimensional impact-parameter quadrature.

Routes 2 and 3 are -4 pi Re of one radial integral
(scattering._radial_jump_integral), route 3 at twice the nodes and twice
b_max, so their agreement measures that integral's node doubling, not the
optical theorem.  Their agreement with route 1, and the forward amplitude
against its closed form below, test the integral itself.
"""

import json
import math

from superrotor.params import builtin_config, load_config
from superrotor.scattering import (
    forward_scalar,
    scalar_cross_section_bspace,
    scalar_cross_section_closed_form,
    schiff_amplitude_full,
)

Z = [0.0, 0.0, 1.0]


def isotropic_spec():
    doc = json.loads(builtin_config("n1"))
    doc["molecule"]["alpha_aniso"] = 0.0
    return load_config(json.dumps(doc))


def main():
    spec = isotropic_spec()
    q_th = spec.thermal_momentum

    print("isotropic molecule, three cross-section routes")
    print("%8s %12s %12s %12s %10s %10s" %
          ("q/q_th", "closed", "b-space", "optical", "opt/closed", "conv"))
    for factor in (0.5, 1.0, 2.0):
        q = factor * q_th
        sigma_closed = scalar_cross_section_closed_form(q, spec)
        sigma_b = scalar_cross_section_bspace(q, spec)
        full, converged = schiff_amplitude_full(0, q, Z, spec)
        f0 = complex(full[0, 0])
        sigma_opt = 4.0 * math.pi / q * f0.imag
        print("%8.2f %12.6f %12.6f %12.6f %10.5f %10s" %
              (factor, sigma_closed, sigma_b, sigma_opt,
               sigma_opt / sigma_closed, converged))

    # the forward amplitude itself: 2D quadrature against the exact scalar
    q = q_th
    full, _ = schiff_amplitude_full(0, q, Z, spec)
    f0 = complex(full[0, 0])
    ref = forward_scalar(q, spec)
    print()
    print("forward amplitude at q = q_th:")
    print("  2D quadrature  %.6f%+.6fi" % (f0.real, f0.imag))
    print("  closed form    %.6f%+.6fi" % (ref.real, ref.imag))
    print("  cross section scales as q^{-2/5}: sigma(4 q)/sigma(q) = %.4f (expect %.4f)"
          % (scalar_cross_section_closed_form(4 * q, spec)
             / scalar_cross_section_closed_form(q, spec), 4.0**-0.4))


if __name__ == "__main__":
    main()
