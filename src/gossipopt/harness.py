"""Experiment runner: seeded configs, CSV traces, EXTRA tuning, and suites.

A run is fully specified by a :class:`RunConfig` (parsed from YAML); it is
deterministic given its seeds, and emits one merit row per recorded iterate.
Suites reproduce the desk-scale experiments: strongly convex quadratics on
three graph families, a condition-number sweep, a line-graph diameter sweep,
and logistic regression on a libsvm dataset.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algorithms import (
    METHODS,
    AdaptiveAlgorithm,
    DivergenceError,
    ExtraAlgorithm,
    GammaSchedule,
)
from .backtracking import BacktrackingError
from .graphs import gossip_matrix, graph_from_spec, spectral_data
from .losses import (
    generate_quadratic,
    parse_libsvm,
    partition_logistic,
    quadratic_condition_numbers,
)
from .metrics import ErgodicAverage, fixed_point, merit_cvx, merit_sc

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "MeritRow",
    "RunConfig",
    "RunTrace",
    "TuneExtraError",
    "experiment_suite",
    "load_config",
    "run",
    "tune_extra",
    "SUITE_NAMES",
]

CSV_HEADER = "k,vector_rounds,scalar_rounds,err_rel,V,M_erg,theta_min,theta_max,pi_min,pi_max,d_max,status"

_ALGORITHMS = (*METHODS, "extra")

_DEFAULT_ALPHA_GRID = tuple(float(a) for a in np.logspace(-6.0, 0.0, 25))


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class TuneExtraError(RuntimeError):
    """No stepsize in the tuning grid converged; carries per-alpha statuses."""

    def __init__(self, statuses: dict[float, str]):
        self.statuses = dict(statuses)
        lines = ", ".join(f"alpha={a:g}: {s}" for a, s in statuses.items())
        super().__init__(f"no EXTRA stepsize converged ({lines})")


@dataclass(frozen=True)
class RunConfig:
    """One experiment: topology, losses, algorithm, budgets, and seeds."""

    graph: dict
    problem: dict
    algorithm: dict
    c: float = 0.5
    epsilon: float = 1e-5
    max_iterations: int = 50_000
    max_vector_rounds: int = 200_000
    stride: int = 1
    seed: int = 0
    output: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for req in ("graph", "problem", "algorithm"):
            if req not in raw:
                raise ConfigError(f"config is missing required section {req!r}")
        cfg = cls(**raw)
        _validate(cfg)
        return cfg


def load_config(path) -> RunConfig:
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


# problem keys without a default, by problem kind
_PROBLEM_KEYS = {"quadratic": ("m", "h", "n"), "logistic": ("dataset", "m", "h")}

# typed keys of the graph, problem and algorithm sections, when present
_INT_KEYS = {"graph": ("m", "seed"), "problem": ("m", "h", "n", "seed"), "algorithm": ("d0",)}
_REAL_KEYS = {"graph": ("p",), "problem": ("lambda",), "algorithm": ("theta0", "delta", "extra_alpha")}
_INT64 = np.iinfo(np.int64)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _validate(cfg: RunConfig) -> None:
    for key in ("max_iterations", "max_vector_rounds", "stride", "seed"):
        if not _is_int(getattr(cfg, key)):
            raise ConfigError(f"{key} must be an integer, got {getattr(cfg, key)!r}")
    for key in ("c", "epsilon"):
        if not _is_real(getattr(cfg, key)):
            raise ConfigError(f"{key} must be a real number, got {getattr(cfg, key)!r}")
    if not isinstance(cfg.graph, dict) or not isinstance(cfg.problem, dict):
        raise ConfigError("graph and problem sections must be mappings")
    if not isinstance(cfg.algorithm, dict) or "algorithm" not in cfg.algorithm:
        raise ConfigError("algorithm section must be a mapping with an 'algorithm' name")
    for section in ("graph", "problem", "algorithm"):
        spec = getattr(cfg, section)
        for key in _INT_KEYS[section]:
            if key in spec and not (_is_int(spec[key]) and _INT64.min <= spec[key] <= _INT64.max):
                raise ConfigError(f"{section}.{key} must be an integer within int64, got {spec[key]!r}")
        for key in _REAL_KEYS[section]:
            if key in spec and not (_is_real(spec[key]) and -np.inf < spec[key] < np.inf):
                raise ConfigError(f"{section}.{key} must be a finite real number, got {spec[key]!r}")
    name = cfg.algorithm["algorithm"]
    if name not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; pick one of {_ALGORITHMS}")
    kind = cfg.problem.get("kind")
    if kind not in ("quadratic", "logistic"):
        raise ConfigError(f"problem kind must be 'quadratic' or 'logistic', got {kind!r}")
    missing = [key for key in _PROBLEM_KEYS[kind] if key not in cfg.problem]
    if missing:
        raise ConfigError(f"{kind} problem is missing required keys {missing}")
    if kind == "logistic":
        dataset = cfg.problem.get("dataset")
        if not (dataset and isinstance(dataset, str)):
            raise ConfigError(f"logistic problem needs a 'dataset' path, got {dataset!r}")
        if not Path(dataset).is_file():
            raise ConfigError(f"dataset file not found: {dataset}")
    if cfg.problem.get("m") != cfg.graph.get("m"):
        raise ConfigError(
            f"problem and graph agent counts differ: {cfg.problem.get('m')} vs {cfg.graph.get('m')}"
        )
    if not (0.0 < cfg.c <= 0.5):
        raise ConfigError(f"gossip c must lie in (0, 1/2], got {cfg.c}")
    if not cfg.epsilon > 0.0:
        raise ConfigError(f"tolerance target must be positive, got {cfg.epsilon}")
    if cfg.max_iterations < 1 or cfg.max_vector_rounds < 1 or cfg.stride < 1:
        raise ConfigError("budgets and stride must be positive integers")
    if cfg.output is not None and not isinstance(cfg.output, str):
        raise ConfigError(f"output must be a path string, got {cfg.output!r}")


@dataclass(frozen=True)
class MeritRow:
    k: int
    vector_rounds: int
    scalar_rounds: int
    err_rel: float
    V: float | None
    M_erg: float | None
    theta_min: float | None
    theta_max: float | None
    pi_min: float | None
    pi_max: float | None
    d_max: int | None
    status: str


@dataclass
class RunTrace:
    """Ordered merit rows plus the final status and wall-clock time."""

    rows: list[MeritRow]
    status: str
    wall_time: float
    comment: dict = field(default_factory=dict)

    @property
    def final(self) -> MeritRow:
        return self.rows[-1]

    def write_csv(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {json.dumps(self.comment, sort_keys=True)}\n")
            fh.write(CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(_format_row(row) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _format_row(row: MeritRow) -> str:
    return ",".join(
        (
            str(row.k),
            str(row.vector_rounds),
            str(row.scalar_rounds),
            _fmt(row.err_rel),
            _fmt(row.V),
            _fmt(row.M_erg),
            _fmt(row.theta_min),
            _fmt(row.theta_max),
            _fmt(row.pi_min),
            _fmt(row.pi_max),
            _fmt(row.d_max),
            row.status,
        )
    )


def _build_family(problem: dict, default_seed: int):
    kind = problem["kind"]
    if kind == "quadratic":
        return generate_quadratic(
            m=int(problem["m"]),
            h=int(problem["h"]),
            n=int(problem["n"]),
            ridge=float(problem.get("lambda", 0.0)),
            seed=int(problem.get("seed", default_seed)),
        )
    labels, features, _ = parse_libsvm(problem["dataset"])
    return partition_logistic(
        labels,
        features,
        m=int(problem["m"]),
        samples_per_agent=int(problem["h"]),
        seed=int(problem.get("seed", default_seed)),
    )


def _gamma_from_cfg(raw):
    """The growth factor k -> gamma of a spec: {beta1, beta2}, {constant: c} or a bare c."""
    if raw is None:
        return GammaSchedule()
    if isinstance(raw, dict) and "constant" not in raw:
        return GammaSchedule(
            beta1=float(raw.get("beta1", 2.0)), beta2=float(raw.get("beta2", 1.0))
        )
    if not isinstance(raw, (dict, int, float)):
        raise ConfigError(f"cannot interpret gamma spec {raw!r}")
    value = float(raw["constant"] if isinstance(raw, dict) else raw)
    if not (1.0 <= value < np.inf):
        raise ConfigError(f"constant gamma must be finite and >= 1, got {value}")
    return lambda k: value


def _safeguard_radius(raw) -> float | None:
    """R_tilde of an enabled safeguard spec; None when the spec is absent or disabled."""
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"safeguard must be a mapping {{enabled, R_tilde}}, got {raw!r}")
    if not raw or not raw.get("enabled"):
        return None
    radius = raw.get("R_tilde")
    if not (_is_real(radius) and 0.0 < radius < np.inf):
        raise ConfigError(f"enabled safeguard needs a positive finite R_tilde, got {radius!r}")
    return float(radius)


# algorithm keys a method does not use, and so rejects
_FOREIGN_KEYS = {
    "adaptive": (),
    "nips_global": ("d0", "safeguard"),
    "nips_local": ("d0", "safeguard"),
    "extra": ("d0", "safeguard", "gamma"),
}


def _make_algorithm(cfg: RunConfig, gm, family, X0: np.ndarray, delta: float):
    spec = cfg.algorithm
    name = spec["algorithm"]
    stray = sorted(set(_FOREIGN_KEYS[name]) & set(spec))
    if stray:
        raise ConfigError(f"{stray} do not apply to the {name!r} method")
    # checked for every method: merit_cvx weighs consensus by delta on EXTRA runs too
    theta0 = float(spec.get("theta0", 1.0))
    if not (0.0 < theta0 < np.inf):
        raise ConfigError(f"theta0 must be finite and > 0, got {theta0}")
    if not (0.0 < delta <= 1.0):
        raise ConfigError(f"delta must lie in (0, 1], got {delta}")
    if name == "extra":
        if "extra_alpha" not in spec:
            raise ConfigError("EXTRA needs 'extra_alpha' (or run tune-extra first)")
        return ExtraAlgorithm(gm, family, X0, alpha=float(spec["extra_alpha"]))
    common = {"delta": delta, "theta0": theta0, "gamma": _gamma_from_cfg(spec.get("gamma"))}
    if name == "adaptive":
        common["d0"] = int(spec.get("d0", 1))
        common["safeguard_radius"] = _safeguard_radius(spec.get("safeguard"))
    return AdaptiveAlgorithm(gm, family, X0, method=name, **common)


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run; a diverged or stalled step ends it with that status, not an error."""
    started = time.perf_counter()
    graph_spec = dict(config.graph)
    graph_spec.setdefault("seed", config.seed)
    try:
        graph = graph_from_spec(graph_spec)
        gm = gossip_matrix(graph, c=config.c)
        family = _build_family(config.problem, config.seed)
        if family.m != graph.m:
            raise ConfigError(f"family has {family.m} agents but graph has {graph.m}")
        fp = fixed_point(family)
        delta = float(config.algorithm.get("delta", 1.0))
        X0 = np.zeros((family.m, family.dim))
        algo = _make_algorithm(config, gm, family, X0, delta)
        # the strongly convex merit weighs the duals; EXTRA has none
        T = spectral_data(gm) if algo.Y is not None else None
    # GraphError, LossError, MetricsError, int()/float(), a d0 beyond int64, an unreadable dataset
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    # spectral_data's factor holds m^2 doubles
    except MemoryError as exc:
        m = graph_spec.get("m")
        raise ConfigError(f"not enough memory to set up a run with m={m} agents: {exc}") from exc

    kind = config.problem["kind"]
    erg = ErgodicAverage()
    denom = float(np.linalg.norm(X0 - fp.X_star)) or 1.0

    def row(status: str) -> MeritRow:
        """The row of iterate k; a quadratic run computes its merits only here."""
        return MeritRow(
            k=k,
            vector_rounds=vector_rounds,
            scalar_rounds=scalar_rounds,
            err_rel=err_rel,
            V=merit_sc(algo.X, algo.Y, stats["theta_min"], fp, T) if T is not None else None,
            M_erg=(
                merit_cvx(erg.value, erg.image, fp, family, gm, delta)
                if kind == "quadratic" and erg.count
                else m_erg
            ),
            status=status,
            **stats,
        )

    rows: list[MeritRow] = []
    k = 0
    while True:
        stats = algo.stats()
        vector_rounds, scalar_rounds = algo.exchange.vector_rounds, algo.exchange.scalar_rounds
        err_rel = float(np.linalg.norm(algo.X - fp.X_star)) / denom
        # the logistic stop reads M_erg every iteration; the quadratic one only err_rel
        m_erg = (
            merit_cvx(erg.value, erg.image, fp, family, gm, delta)
            if kind == "logistic" and erg.count
            else None
        )

        if kind == "quadratic" and err_rel <= config.epsilon:
            status = "converged"
        elif kind == "logistic" and m_erg is not None and m_erg <= config.epsilon:
            status = "converged"
        elif k >= config.max_iterations or vector_rounds >= config.max_vector_rounds:
            status = "budget_exhausted"
        else:
            status = None
        if status is not None:
            rows.append(row(status))
            break

        # a recorded row holds the iterate before the step
        recorded = row("running") if k % config.stride == 0 else None
        try:
            algo.step()
        except (DivergenceError, BacktrackingError) as exc:
            # a failed step leaves the state and the round counters untouched
            failed = "diverged" if isinstance(exc, DivergenceError) else "stalled"
            rows.append(row(failed) if recorded is None else replace(recorded, status=failed))
            break
        if recorded is not None:
            rows.append(recorded)
        erg.update(algo.X, algo.image)
        k += 1

    trace = RunTrace(
        rows=rows,
        status=rows[-1].status,
        wall_time=time.perf_counter() - started,
        comment={
            "seed": config.seed,
            "graph": graph_spec,
            "problem": {k_: v for k_, v in config.problem.items()},
            "algorithm": config.algorithm,
            "c": config.c,
            "epsilon": config.epsilon,
        },
    )
    if config.output:
        trace.write_csv(config.output)
    return trace


def tune_extra(config: RunConfig, grid=None) -> tuple[float, RunTrace]:
    """Grid-search EXTRA's stepsize: fewest vector rounds to target wins.

    Later grid points are capped at the incumbent's round count, so clearly
    worse stepsizes are pruned early. Ties go to the smaller alpha.
    """
    if config.algorithm.get("algorithm") != "extra":
        raise ConfigError("tune_extra needs an 'extra' algorithm config")
    if grid is None:
        grid = config.algorithm.get("extra_alpha_grid", _DEFAULT_ALPHA_GRID)
    grid = [float(a) for a in grid]
    if not grid:
        raise ConfigError("alpha grid is empty")

    best: tuple[int, float, RunTrace] | None = None
    statuses: dict[float, str] = {}
    for alpha in sorted(grid, reverse=True):
        budget = config.max_vector_rounds if best is None else best[0]
        algo_spec = {k: v for k, v in config.algorithm.items() if k != "extra_alpha_grid"}
        algo_spec["extra_alpha"] = alpha
        sub = replace(
            config, algorithm=algo_spec, max_vector_rounds=budget, output=None
        )
        trace = run(sub)
        statuses[alpha] = trace.status
        if trace.status == "converged":
            rounds = trace.final.vector_rounds
            if best is None or rounds < best[0] or (rounds == best[0] and alpha < best[1]):
                best = (rounds, alpha, trace)
    if best is None:
        raise TuneExtraError(statuses)
    return best[1], best[2]


_SUITE_GRAPHS = {
    "line": {"kind": "line", "m": 20},
    "er01": {"kind": "erdos_renyi", "m": 20, "p": 0.1, "seed": 7},
    "er05": {"kind": "erdos_renyi", "m": 20, "p": 0.5, "seed": 11},
}


def _algo_spec(name: str, **extra) -> dict:
    spec = {"algorithm": name, "delta": 1.0, "theta0": 1.0}
    if name == "adaptive":
        spec["d0"] = 1
        spec["gamma"] = {"beta1": 2.0, "beta2": 1.0}
    elif name in ("nips_global", "nips_local"):
        spec["gamma"] = {"beta1": 2.0, "beta2": 1.0}
    spec.update(extra)
    return spec


def _quadratic(m: int, h: int, ridge: float, seed: int) -> dict:
    return {"kind": "quadratic", "m": m, "h": h, "n": 100, "lambda": ridge, "seed": seed}


def _graph_members(problem: dict) -> list:
    return [((label,), label, spec, problem, 1) for label, spec in _SUITE_GRAPHS.items()]


def _condition_members(data_path) -> list:
    members = []
    for ridge in (0.0, 1.0, 10.0, 100.0, 1000.0):
        problem = _quadratic(20, 110, ridge, 1)
        kappa = float(quadratic_condition_numbers(_build_family(problem, 1)).max())
        key = (_fmt(ridge), _fmt(kappa))
        members.append((key, f"lambda{ridge:g}", _SUITE_GRAPHS["er05"], problem, 1))
    return members


def _diameter_members(data_path) -> list:
    return [
        ((str(m), str(m - 1)), f"m{m}", {"kind": "line", "m": m}, _quadratic(m, 1, 0.0, 3), 3)
        for m in (5, 10, 20, 40)
    ]


def _logistic_members(data_path) -> list:
    if not data_path or not Path(data_path).exists():
        raise ConfigError("logistic_graphs needs --data pointing at a libsvm file (a3a)")
    return _graph_members(
        {"kind": "logistic", "dataset": str(data_path), "m": 20, "h": 159, "seed": 1}
    )


# name -> (summary key columns, members(data_path), algorithms, epsilon, result columns);
# a member is (summary key values, file stem, graph spec, problem spec, seed)
_SUITES = {
    "quadratic_graphs": (
        "graph",
        lambda data_path: _graph_members(_quadratic(20, 110, 0.0, 1)),
        _ALGORITHMS,
        1e-5,
        ("alpha", "status", "iterations", "vector_rounds", "scalar_rounds", "err_rel"),
    ),
    "condition_sweep": (
        "lambda,kappa", _condition_members, _ALGORITHMS, 1e-5, ("alpha", "status", "vector_rounds")
    ),
    "diameter_sweep": (
        "m,diameter", _diameter_members, ("adaptive", "nips_global"), 1e-5, ("status", "vector_rounds")
    ),
    "logistic_graphs": (
        "graph", _logistic_members, _ALGORITHMS, 1e-3, ("alpha", "status", "vector_rounds", "merit")
    ),
}

SUITE_NAMES = tuple(_SUITES)


def experiment_suite(
    name: str,
    out_dir,
    data_path: str | None = None,
    max_vector_rounds: int | None = None,
    alpha_grid=None,
) -> Path:
    """Run one named experiment suite; returns the summary CSV path.

    Every member runs under every algorithm of the suite, EXTRA tuned on the
    spot over ``alpha_grid``. A grid with no converged stepsize gives a
    ``tune_failed`` summary row, and no trace, instead of aborting the suite.
    Every run is configured, and so validated, before anything is written.
    """
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    keys, members, algorithms, epsilon, columns = _SUITES[name]
    budget = 200_000 if max_vector_rounds is None else max_vector_rounds
    runs = [
        (key, f"{stem}_{algo}", RunConfig.from_dict({
            "graph": graph, "problem": problem, "algorithm": _algo_spec(algo),
            "epsilon": epsilon, "max_vector_rounds": budget, "seed": seed,
        }))
        for key, stem, graph, problem, seed in members(data_path)
        for algo in algorithms
    ]
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join((keys, "algorithm", *columns))]
    for key, stem, cfg in runs:
        algo = cfg.algorithm["algorithm"]
        alpha = None
        try:
            if algo == "extra":
                alpha, trace = tune_extra(cfg, grid=alpha_grid)
            else:
                trace = run(cfg)
        except TuneExtraError:
            cells = {"status": "tune_failed"}
        else:
            trace.comment["suite_member"] = stem
            trace.write_csv(out / f"{stem}.csv")
            f = trace.final
            cells = {
                "alpha": _fmt(alpha),
                "status": trace.status,
                "iterations": str(f.k),
                "vector_rounds": str(f.vector_rounds),
                "scalar_rounds": str(f.scalar_rounds),
                "err_rel": _fmt(f.err_rel),
                "merit": _fmt(f.M_erg),
            }
        lines.append(",".join((*key, algo, *(cells.get(c, "") for c in columns))))
    summary = out / "summary.csv"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return summary
