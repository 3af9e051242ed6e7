"""Correctness checks computed by the benchmark itself, apart from the program.

The package supplies the data (graph and loss builders); every reference
value below - the optimum, the gradient at it, the hop diameter, the round
identities, the decay slope - is computed here with numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.special import expit

import synthetic_logistic
from workloads import LOGISTIC_DATA_SEED, Workload

X_STAR_RTOL = 1e-8
GRAD_TOL = 1e-7  # ten times the program's fixed-point tolerance (1e-8)

# vector and scalar rounds per iteration; nips_global floods D scalar rounds
_VECTOR_PER_K = {"adaptive": 3, "nips_global": 3, "nips_local": 3, "extra": 1}
_SCALAR_PER_K = {"adaptive": 3, "nips_local": 1, "extra": 0}


@dataclass(frozen=True)
class Reference:
    diameter: int
    edges: int
    dim: int
    x_star: np.ndarray | None  # quadratic: least-squares optimum
    features: np.ndarray | None  # logistic: stacked samples, (m*h, d)
    labels: np.ndarray | None
    h: int


def _hop_diameter(graph) -> int:
    i, j = np.array(sorted(graph.edges)).T
    adj = coo_matrix((np.ones(len(i)), (i, j)), shape=(graph.m, graph.m)).tocsr()
    return int(shortest_path(adj, directed=False, unweighted=True).max())


def reference(pkg, workload: Workload) -> Reference:
    graph = pkg.graph_from_spec({"seed": 1, **workload.graph})
    p = workload.problem
    if workload.kind == "quadratic":
        family = pkg.generate_quadratic(m=p["m"], h=p["h"], n=p["n"], ridge=p["lambda"], seed=p["seed"])
        A = family.A.reshape(-1, family.dim)
        x_star = np.linalg.lstsq(A, family.b.reshape(-1), rcond=None)[0]
        return Reference(_hop_diameter(graph), len(graph.edges), family.dim, x_star, None, None, p["h"])
    labels, features = synthetic_logistic.generate(LOGISTIC_DATA_SEED)
    family = pkg.partition_logistic(labels, features, m=p["m"], samples_per_agent=p["h"], seed=p["seed"])
    return Reference(
        _hop_diameter(graph), len(graph.edges), family.dim, None,
        family.features.reshape(-1, family.dim), family.labels.reshape(-1), p["h"],
    )


def _logistic_gradient_norm(ref: Reference, x: np.ndarray) -> float:
    """|| sum_i grad f_i(x) || for f_i = mean_j log(1 + exp(-y_ij <a_ij, x>))."""
    z = ref.labels * (ref.features @ x)
    return float(np.linalg.norm(ref.features.T @ (ref.labels * expit(-z))) / ref.h)


def check_record(workload: Workload, ref: Reference, record) -> list[str]:
    """Checks on one run() call: anchor, round identities, and (quadratic) decay."""
    problems = []
    algo = record.algorithm
    fp = record.fixed_point
    if fp is None:
        problems.append("run() computed no fixed point")
    elif ref.x_star is not None:
        err = np.linalg.norm(fp.x_star - ref.x_star) / max(1.0, np.linalg.norm(ref.x_star))
        if not err <= X_STAR_RTOL:
            problems.append(f"x* differs from the least-squares optimum by {err:.2e} (relative)")
    else:
        gnorm = _logistic_gradient_norm(ref, fp.x_star)
        if not gnorm <= GRAD_TOL:
            problems.append(f"||sum grad f_i(x*)|| = {gnorm:.2e} > {GRAD_TOL:g}")

    rows = record.trace.rows
    k = np.array([r.k for r in rows])
    vec = np.array([r.vector_rounds for r in rows])
    sca = np.array([r.scalar_rounds for r in rows])
    per_k = ref.diameter if algo == "nips_global" else _SCALAR_PER_K[algo]
    if not np.array_equal(vec, _VECTOR_PER_K[algo] * k):
        problems.append(f"{algo}: vector rounds are not {_VECTOR_PER_K[algo]}k")
    if not np.array_equal(sca, per_k * k):
        problems.append(f"{algo}: scalar rounds are not {per_k}k (D = {ref.diameter})")

    if workload.kind == "quadratic" and algo != "extra" and record.trace.status == "converged":
        half = rows[len(rows) // 2:]
        ks = np.array([r.k for r in half], dtype=float)
        V = np.array([r.V for r in half], dtype=float)
        keep = V > 0.0
        slope = np.polyfit(ks[keep], np.log(V[keep]), 1)[0] if keep.sum() >= 2 else np.nan
        if not slope < 0.0:
            problems.append(f"{algo}: log V slope over the second half is {slope:.3g}, not negative")
    return problems


def check_final(workload: Workload, trace) -> list[str]:
    """The run that an operation returns reached the stopping target."""
    final = trace.final
    if trace.status != "converged":
        return []  # counted as a failed operation, not as a wrong output
    if workload.kind == "quadratic":
        ok, what = final.err_rel <= workload.epsilon, f"err_rel = {final.err_rel:.3e}"
    else:
        ok, what = final.M_erg is not None and final.M_erg <= workload.epsilon, f"M_erg = {final.M_erg}"
    return [] if ok else [f"converged with {what} above epsilon {workload.epsilon:g}"]


def check_tuning(grid, alpha, best, records) -> list[str]:
    """The tuned EXTRA stepsize is in the grid, converged, and used the fewest rounds."""
    problems = []
    if alpha not in grid:
        problems.append(f"tuned alpha {alpha!r} is not in the grid")
    if len(records) != len(grid):
        problems.append(f"tune_extra made {len(records)} runs for a grid of {len(grid)}")
    converged = [r.trace.final.vector_rounds for r in records if r.trace.status == "converged"]
    if best.status != "converged":
        problems.append(f"tuned run ended {best.status}")
    elif best.final.vector_rounds != min(converged):
        problems.append("tuned run does not have the fewest vector rounds among converged runs")
    return problems
