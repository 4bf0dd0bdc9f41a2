"""Sweep the alignment-signal decay rate over rotational level.

Computes Gamma_j for the normalized benchmark gas, prints a short table,
and shows how j * A(j, j-2) approaches 6 so that Gamma_j falls off as 1/j
for fast rotors.  Run with --csv to also write the sweep next to this file.
"""

import os
import sys

from superrotor.params import builtin_config, load_config
from superrotor.rates import a_coefficient, gamma_closed_form, rate_table_csv


def main():
    spec = load_config(builtin_config("n1"))

    js = [2, 4, 8, 16, 32, 64, 128, 256, 512]
    rows = [gamma_closed_form(j, j - 2, spec) for j in js]

    print("alignment decay rates, normalized benchmark gas")
    print("%6s %14s %14s %10s" % ("j", "gamma(j,j-2)", "Gamma_j", "j*A"))
    for j, row in zip(js, rows):
        ja = j * a_coefficient(j, j - 2)
        print("%6d %14.6e %14.6e %10.5f" % (j, row.gamma, row.gamma_signal, ja))

    # the anisotropy coefficient carries the whole j dependence;
    # j * A(j, j-2) -> 6 means Gamma_j ~ 6 * const / j at large j
    big = 4096
    ja_big = big * a_coefficient(big, big - 2)
    print()
    print("j * A(j, j-2) at j = %d: %.6f (limit 6)" % (big, ja_big))

    ratio = rows[-1].gamma_signal * js[-1] / (rows[-2].gamma_signal * js[-2])
    print("Gamma_j * j ratio between j = %d and j = %d: %.4f" % (js[-1], js[-2], ratio))

    if "--csv" in sys.argv:
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "rate_sweep.csv")
        with open(out, "w", newline="") as fh:
            fh.write(rate_table_csv(rows))
        print("wrote", out)


if __name__ == "__main__":
    main()
