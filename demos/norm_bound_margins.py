"""Transformed norms of the difference transfer matrices vs their bounds.

Each local step multiplies the inter-worker difference vector
(d_ag, d_w) by a 2x2 matrix that depends on the curvature H the two
workers straddle.  In the transformed basis diag(1, gamma/eta) the matrix
norm is bounded by a closed form independent of H: 1 + 2 gamma^2 mu / eta
for the first schedule (exactly 1 when gamma = eta) and
1 + gamma^2 mu / eta for the second.  This script random-searches for
violations and prints the worst observed margins.

    python3 demos/norm_bound_margins.py --samples 500
"""

import argparse

import numpy as np

from fedsim.diagnostics import (norm_bound_fedac1, norm_bound_sweep,
                                sample_admissible, transfer_matrix_fedac1,
                                transfer_matrix_fedac2, transformed_norm)

MATRICES = {"fedac1": transfer_matrix_fedac1, "fedac2": transfer_matrix_fedac2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=500,
                    help="random admissible (mu, L, gamma, eta) draws")
    ap.add_argument("--n-h", type=int, default=21,
                    help="curvature samples per draw")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # one worked example first
    mu, gamma, eta, h = 1.0, 0.1, 0.1, 10.0
    a = transfer_matrix_fedac1(mu, gamma, eta, h)
    print("example: mu=1, gamma=eta=0.1, H=10 (eta*H = 1 kills the top row)")
    print(np.array_str(a, precision=6, suppress_small=True))
    print(f"transformed norm {transformed_norm(a, gamma, eta):.6f} "
          f"<= bound {norm_bound_fedac1(mu, gamma, eta):.6f}\n")

    draws = sample_admissible(args.seed, args.samples)
    report = norm_bound_sweep(draws[:, 0], draws[:, 1], draws[:, 2:], args.n_h)
    total = args.samples * args.n_h
    for s, (name, matrix_fn) in enumerate(MATRICES.items()):
        rows = report.rows[s::len(MATRICES)]  # this schedule's row of each draw
        d = min(range(len(rows)), key=lambda d: rows[d].margin)
        mu, big_l, gamma, eta = draws[d]
        hs = np.linspace(mu, big_l, args.n_h)
        h = hs[transformed_norm(matrix_fn(mu, gamma, eta, hs), gamma, eta).argmax()]
        print(f"{name}: {total} (draw, H) pairs, worst margin "
              f"{rows[d].margin:.3e}")
        print(f"        at mu={mu:.4g} L={big_l:.4g} gamma={gamma:.4g} "
              f"eta={eta:.4g} H={h:.4g}")
    print("VIOLATION FOUND" if report.violations else "no violations")


if __name__ == "__main__":
    main()
