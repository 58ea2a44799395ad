"""How much does infrequent synchronization cost each algorithm?

Fixes the worker count and stretches the synchronization interval K while
retuning the step size for every cell.  Local-update methods pay a drift
penalty that grows with K; the accelerated variant is designed so its
coupling weight shrinks like 1/sqrt(K), which keeps that penalty flat.

    python3 demos/sync_interval_tradeoff.py --m 16
"""

import argparse

from fedsim.harness import (ExperimentConfig, compute_optimum,
                            make_synthetic_logistic, tune_and_sweep)
from fedsim.objectives import Logistic


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=16, help="workers")
    ap.add_argument("--t", type=int, default=512, help="parallel runtime")
    args = ap.parse_args()

    ds = make_synthetic_logistic(4000, 123, seed=7, nnz=14, flip=0.03)
    obj = Logistic(ds, lam=1e-3)
    k_list = tuple(k for k in (1, 4, 16, 64) if args.t % k == 0)
    cfg = ExperimentConfig(
        dataset="synthetic", lam=1e-3,
        algorithms=("fedac1", "fedavg", "mb_sgd"),
        t=args.t, k_list=k_list, m_list=(args.m,),
        etas=(0.005, 0.02, 0.05, 0.2, 0.5, 1.0, 2.0), seeds=(0, 1, 2),
        eval_every=max(64, max(k_list)))

    opt = compute_optimum(obj)
    _, rows = tune_and_sweep(cfg, obj, opt.f_star)

    by = {(r.algorithm, r.k): r for r in rows}
    print(f"M={args.m}, T={args.t}, tuned best suboptimality per K:\n")
    print(f"{'algorithm':<10}" + "".join(f"{'K=' + str(k):>12}" for k in k_list)
          + f"{'K=1 vs K=' + str(k_list[-1]):>16}")
    for alg in cfg.algorithms:
        vals = [by[(alg, k)].best_suboptimality for k in k_list]
        degrade = vals[-1] / vals[0]
        print(f"{alg:<10}" + "".join(f"{v:>12.2e}" for v in vals)
              + f"{degrade:>15.2f}x")
    print("\nthe last column is the price of synchronizing "
          f"{k_list[-1]}x less often.")


if __name__ == "__main__":
    main()
