"""Per-step decay of the Lyapunov potentials along an accelerated run.

Runs the first accelerated schedule on a noiseless random quadratic at
K=1 and tracks the decentralized potential (mean function gap of the
per-worker accelerated iterates plus a mu/2-weighted distance of the
averaged iterate) next to its guaranteed contraction factor 1 - gamma*mu.
The centralized variant with the mu/6 weight is printed alongside.

    python3 demos/potential_decay.py --steps 40
"""

import argparse

import numpy as np

from fedsim.algorithms import fedac_run, schedule_fedac1
from fedsim.diagnostics import potential_phi, potential_psi
from fedsim.objectives import Quadratic
from fedsim.rng import StreamBundle


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--dim", type=int, default=6)
    ap.add_argument("--kappa", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    stream = StreamBundle(args.seed, [0])
    mu = 0.5
    spectrum = np.linspace(mu, mu * args.kappa, args.dim)
    shift = stream.gaussians(args.dim)[0]
    obj = Quadratic(spectrum, shift=shift, sigma=0.0)
    eta = 1.0 / obj.l_est
    hyper = schedule_fedac1(eta, mu, 1)
    rate = 1.0 - hyper.gamma * mu
    print(f"kappa={args.kappa:g}: eta={eta:.4f}, gamma={hyper.gamma:.4f}, "
          f"guaranteed factor {rate:.4f} per step\n")

    # record each state, then evaluate both potentials over the whole
    # trajectory in one call each
    ws, w_ags = np.empty((2, args.steps + 1, 4, args.dim))

    def track(step, w, w_ag):
        ws[step], w_ags[step] = w, w_ag

    w0 = shift + stream.gaussians(args.dim)[0]
    fedac_run(obj, 4, args.steps, 1, hyper, seed=2, w0=w0, callback=track)
    psis = potential_psi(ws, w_ags, obj, mu, shift, 0.0)
    phis = potential_phi(ws, w_ags, obj, mu, shift, 0.0)

    print(f"{'t':>4}{'psi':>14}{'psi ratio':>12}{'phi':>14}")
    show = sorted(set(range(0, args.steps + 1, max(1, args.steps // 10)))
                  | {args.steps})
    for t in show:
        ratio = psis[t] / psis[t - 1] if t else float("nan")
        print(f"{t:>4}{psis[t]:>14.4e}{ratio:>12.4f}{phis[t]:>14.4e}")
    worst = (psis[1:] / psis[:-1]).max()
    print(f"\nworst observed per-step ratio {worst:.6f} "
          f"vs guaranteed {rate:.6f}")


if __name__ == "__main__":
    main()
