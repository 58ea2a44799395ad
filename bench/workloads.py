"""Workload definitions and seeded input generation for the fedsim benchmark.

A workload is a fixed job for the program plus inputs made from the
benchmark seed.  The sweep workloads hand fedsim a LibSVM file and a flat
config; the diagnostics workload hands ``fedsim.cli.main`` an argv list.

Every seed selects one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``).
Each input set has its output hash pinned in ``pins.json``, so any seed the
benchmark is given can be checked against a recorded answer.

Inputs come from PCG64's raw 64-bit output, which numpy keeps stable across
releases, turned into indices and uniforms here rather than by numpy's
distribution methods, whose streams numpy may change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

INPUT_SETS = 16
PINS_PATH = Path(__file__).with_name("pins.json")

# every third point of fedsim's 13-point default grid, minus the smallest,
# so that a pass fits several times into one run
ETAS = "0.01,0.1,1.0,10.0"


@dataclass(frozen=True)
class SweepSpec:
    name: str
    n: int
    dim: int
    nnz: int
    flip: float
    algorithms: Tuple[str, ...]
    m_list: Tuple[int, ...]
    k_list: Tuple[int, ...]
    etas: str
    t: int
    eval_every: int
    lam: float = 1e-3

    kind = "sweep"

    def cells(self) -> int:
        return (len(self.algorithms) * len(self.m_list) * len(self.k_list)
                * len(self.etas.split(",")))

    def grad_queries(self) -> int:
        """Nominal sum over cells of M * T stochastic-gradient queries.

        The minibatch baselines take T/K steps of batch M*K, which is the
        same M*T queries as the federated drivers."""
        per_m = len(self.algorithms) * len(self.k_list) * len(self.etas.split(","))
        return sum(m * self.t for m in self.m_list) * per_m

    def config_text(self, data_path: str) -> str:
        return "\n".join([
            f"dataset = {data_path}",
            f"dim = {self.dim}",
            f"lam = {self.lam!r}",
            f"algorithms = {','.join(self.algorithms)}",
            f"M = {','.join(map(str, self.m_list))}",
            f"K = {','.join(map(str, self.k_list))}",
            f"etas = {self.etas}",
            "seeds = 0",
            f"T = {self.t}",
            f"eval_every = {self.eval_every}",
            "",
        ])


DIAGNOSTICS_COMMANDS = (
    ("verify", "--deterministic-output"),
    ("instability", "--kappa", "25", "--K", "4", "--eps", "1e-9"),
    ("norm-bounds", "--mu", "0.1", "--L", "10", "--samples", "200",
     "--seed", "{input_set}"),
)


@dataclass(frozen=True)
class DiagnosticsSpec:
    name: str
    commands: Tuple[Tuple[str, ...], ...] = DIAGNOSTICS_COMMANDS

    kind = "diagnostics"

    def argvs(self, input_set: int) -> List[List[str]]:
        return [[a.format(input_set=input_set) for a in cmd]
                for cmd in self.commands]


WORKLOADS = {
    "sweep-small-m": SweepSpec(
        "sweep-small-m", n=8000, dim=123, nnz=14, flip=0.03,
        algorithms=("fedac1", "fedavg"), m_list=(1, 4), k_list=(1, 16, 64),
        etas=ETAS, t=1024, eval_every=128),
    "sweep-wide-m": SweepSpec(
        "sweep-wide-m", n=32000, dim=123, nnz=14, flip=0.03,
        algorithms=("fedac1", "fedavg", "mb_sgd", "mb_acsgd"), m_list=(64,),
        k_list=(16, 64), etas=ETAS, t=1024, eval_every=64),
    "diagnostics": DiagnosticsSpec("diagnostics"),
}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


@dataclass
class SparseData:
    """A generated binary-feature classification set in CSR arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def nnz(self) -> int:
        return len(self.indices)


def generate(spec: SweepSpec, seed: int) -> SparseData:
    """Rows with up to ``nnz`` distinct indicator features (duplicate draws
    merge), labelled by a planted linear rule with a ``flip`` share flipped."""
    bits = np.random.PCG64(input_set(seed) * 1000003 + spec.n)
    raw = bits.random_raw(spec.dim * 2 + spec.n * (spec.nnz + 1))
    unit = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u1, u2 = 1.0 - unit[:spec.dim], unit[spec.dim:2 * spec.dim]
    w_true = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    rest = 2 * spec.dim
    draws = (raw[rest:rest + spec.n * spec.nnz] % np.uint64(spec.dim))
    draws = np.sort(draws.astype(np.int64).reshape(spec.n, spec.nnz), axis=1)
    keep = np.ones_like(draws, dtype=bool)
    keep[:, 1:] = draws[:, 1:] != draws[:, :-1]
    flips = unit[rest + spec.n * spec.nnz:] < spec.flip
    margins = np.where(keep, w_true[draws], 0.0).sum(axis=1)
    labels = np.where(margins >= 0, 1.0, -1.0)
    labels[flips] = -labels[flips]
    indptr = np.zeros(spec.n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return SparseData(indptr, draws[keep].astype(np.int32), labels, spec.dim)


def write_libsvm(data: SparseData, path: Path) -> None:
    lines = []
    for i in range(data.n):
        cols = data.indices[data.indptr[i]:data.indptr[i + 1]] + 1
        label = "+1" if data.labels[i] > 0 else "-1"
        lines.append(label + "".join(f" {c}:1" for c in cols.tolist()))
    path.write_text("\n".join(lines) + "\n")


def check_data_line(data: SparseData) -> str:
    """The line ``fedsim check-data`` must print for this data (all values 1,
    so a row's squared norm is its feature count)."""
    row_sq = np.diff(data.indptr).astype(np.float64)
    return (f"n={data.n} dim={data.dim} max_row_norm_sq={row_sq.max():.6g} "
            f"mean_row_norm_sq={row_sq.mean():.6g}\n")


def file_record(data: SparseData, path: Path, l2_bytes: int,
                l3_bytes: int) -> Dict[str, object]:
    blob = path.read_bytes()
    dense = data.n * data.dim * 8
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "n": data.n,
        "dim": data.dim,
        "nnz": data.nnz,
        "bytes": len(blob),
        "dense_cache_mib": dense / 2 ** 20,
        "dense_cache_over_l2": dense / l2_bytes if l2_bytes else None,
        "dense_cache_over_l3": dense / l3_bytes if l3_bytes else None,
    }


def load_pins() -> Dict[str, Dict[str, str]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def pinned_hash(pins, workload: str, seed: int,
                blas_threads: str) -> Optional[str]:
    return pins.get(f"{workload}|blas={blas_threads}", {}).get(str(input_set(seed)))
