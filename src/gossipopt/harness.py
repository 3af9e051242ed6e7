"""Experiment runner: seeded configs, CSV traces, EXTRA tuning, and suites.

A run is fully specified by a :class:`RunConfig` (parsed from YAML); it is
deterministic given its seeds, and emits one merit row per recorded iterate.
Suites reproduce the desk-scale experiments: strongly convex quadratics on
three graph families, a condition-number sweep, a line-graph diameter sweep,
and logistic regression on a libsvm dataset.

The runs of one ``tune_extra`` or ``experiment_suite`` call share their
set-up: each distinct gossip matrix, loss family (with its fixed point) and
merit factor is built once per call and dropped when the call ends. A
``run()`` called on its own builds everything itself.
"""

from __future__ import annotations

import contextvars
import json
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .algorithms import METHODS, AdaptiveAlgorithm, DivergenceError, ExtraAlgorithm, GammaSchedule
from .backtracking import BacktrackingError
from .graphs import gossip_matrix, graph_from_spec, spectral_data
from .losses import generate_quadratic, inner, parse_libsvm, partition_logistic, quadratic_condition_numbers
from .metrics import ErgodicAverage, PreimageMerit, fixed_point, merit_cvx

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


_INT64_MAX = int(np.iinfo(np.int64).max)
_FLOAT_MAX = float(np.finfo(float).max)


# A config number is one YAML reads and JSON writes: a Python int or float, never a bool, and
# not an np.int64 or np.float32, which the trace comment's json.dumps rejects.
def _is_int(value) -> bool:
    """An int, not a bool, within int64."""
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= _INT64_MAX


def _is_real(value) -> bool:
    """An int or a float, not a bool, that converts to a finite float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


def _value(test, description: str):
    """The check of one value: ``test`` holds, or the error names the key and what it takes."""

    def check(path: str, value) -> None:
        if not test(value):
            raise ConfigError(f"{path} must be {description}, got {value!r}")

    return check


def _key(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _keys(path: str, raw, schema: dict) -> None:
    """Reject a non-mapping, a missing required key, and any key ``schema`` does not list."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be a mapping, got {raw!r}")
    for key, (_, required) in schema.items():
        if required and key not in raw:
            raise ConfigError(f"config is missing required key {_key(path, key)}")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {_key(path, key)}; accepted here: {', '.join(schema)}")


def _mapping(path: str, raw, schema: dict) -> None:
    """Check the mapping ``raw`` against ``schema``: key -> (check of its value, required)."""
    _keys(path, raw, schema)
    for key, (check, _) in schema.items():
        if key in raw:
            check(_key(path, key), raw[key])


def _variants(selector: str, schemas: dict):
    """The check of a section whose ``selector`` key names, among ``schemas``, the schema of the rest."""

    def check(path: str, raw) -> None:
        name = raw.get(selector) if isinstance(raw, dict) else None
        if isinstance(raw, dict) and selector in raw and not (isinstance(name, str) and name in schemas):
            raise ConfigError(f"unknown {path}.{selector} {name!r}; pick one of {', '.join(schemas)}")
        _mapping(path, raw, {selector: (lambda path, value: None, True), **schemas.get(name, {})})

    return check


_COUNT = _value(lambda v: _is_int(v) and v > 0, "an integer (positive, within int64)")
_SEED = _value(lambda v: _is_int(v) and v >= 0, "an integer (non-negative, within int64)")
_POSITIVE = _value(lambda v: _is_real(v) and v > 0, "a positive finite real number")
_AT_LEAST_ONE = _value(lambda v: _is_real(v) and v >= 1, "a finite real number >= 1")
_FRACTION = _value(lambda v: _is_real(v) and 0 < v <= 1, "a finite real number in (0, 1]")
_PROBABILITY = _value(lambda v: _is_real(v) and 0 <= v <= 1, "a finite real number in [0, 1]")
_RIDGE = _value(lambda v: _is_real(v) and v >= 0, "a finite real number >= 0")
_GRID = _value(
    lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(_is_real(a) and a > 0 for a in v),
    "a non-empty list of positive finite real numbers",
)

# The config schema: every key of every section, as key -> (check, required); the
# graph's and the problem's kind, and the algorithm's name, pick the keys of the rest.
# the growth schedule ((k + beta1)/(k + 1))**beta2; {beta1: 1} is gamma = 1
_GAMMA = {"beta1": (_AT_LEAST_ONE, False), "beta2": (_POSITIVE, False)}
# the boundedness safeguard's radius; no safeguard key is no safeguard
_SAFEGUARD = {"R_tilde": (_POSITIVE, True)}
# run() writes the seed into every graph spec's trace comment, so every kind takes one
_GRAPH = {"m": (_COUNT, True), "seed": (_SEED, False)}
_PROBLEM = {"m": (_COUNT, True), "h": (_COUNT, True), "seed": (_SEED, False)}
# merit_cvx weighs consensus by delta on EXTRA runs too
_METHOD = {"theta0": (_POSITIVE, False), "delta": (_FRACTION, False)}
_NIPS = {**_METHOD, "gamma": (lambda path, raw: _mapping(path, raw, _GAMMA), False)}
_SCHEMA = {
    "graph": (_variants("kind", {
        "line": _GRAPH, "cycle": _GRAPH, "complete": _GRAPH,
        "erdos_renyi": {**_GRAPH, "p": (_PROBABILITY, True)},
    }), True),
    "problem": (_variants("kind", {
        "quadratic": {**_PROBLEM, "n": (_COUNT, True), "lambda": (_RIDGE, False)},
        "logistic": {**_PROBLEM, "dataset": (_value(lambda v: isinstance(v, str) and v, "a path string"), True)},
    }), True),
    "algorithm": (_variants("algorithm", {
        "adaptive": {**_NIPS, "d0": (_COUNT, False),
                     "safeguard": (lambda path, raw: _mapping(path, raw, _SAFEGUARD), False)},
        "nips_global": _NIPS, "nips_local": _NIPS,
        # a tune-extra config carries a grid and no stepsize
        "extra": {**_METHOD, "extra_alpha": (_POSITIVE, False), "extra_alpha_grid": (_GRID, False)},
    }), True),
    "c": (_value(lambda v: _is_real(v) and 0 < v <= 0.5, "a finite real number in (0, 1/2]"), False),
    "epsilon": (_POSITIVE, False),
    "max_iterations": (_COUNT, False),
    "max_vector_rounds": (_COUNT, False),
    "stride": (_COUNT, False),
    "seed": (_SEED, False),
    "output": (_value(lambda v: v is None or isinstance(v, str), "a path string or null"), False),
}


@dataclass(frozen=True)
class RunConfig:
    """One experiment: topology, losses, algorithm, budgets, and seeds.

    Every instance is checked against the config schema when it is built,
    by ``from_dict`` or by ``dataclasses.replace``.
    """

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

    def __post_init__(self):
        _mapping("", {f.name: getattr(self, f.name) for f in fields(self)}, _SCHEMA)
        if self.problem["m"] != self.graph["m"]:
            raise ConfigError(
                f"problem and graph agent counts differ: {self.problem['m']} vs {self.graph['m']}"
            )
        dataset = self.problem.get("dataset")
        if dataset is not None and not Path(dataset).is_file():
            raise ConfigError(f"dataset file not found: {dataset}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _keys("", raw, _SCHEMA)
        return cls(**raw)


# YAML 1.2 floats with an exponent that YAML 1.1, and so yaml.safe_load, reads as strings:
# no dot (1e-6) or an unsigned exponent (1.0e308). Integers and quoted scalars stay as they were.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


def load_config(path) -> RunConfig:
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=Loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


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


# the 12 trace columns, in MeritRow's field order
_COLUMNS = tuple(f.name for f in fields(MeritRow))
CSV_HEADER = ",".join(_COLUMNS)


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
                fh.write(",".join(_fmt(getattr(row, column)) for column in _COLUMNS) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# The set-ups shared by the runs of the tune_extra or experiment_suite call under way, by key;
# None outside one, where every run() builds its own.
_SETUPS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("gossipopt_setups", default=None)


@contextmanager
def _shared_setups():
    """Let the runs inside build each distinct set-up once; a nested scope reuses the open one.

    ``tune_extra`` and ``experiment_suite`` each run inside one. The set-ups
    go when the outermost scope ends, normally or by an error, so two
    top-level calls share nothing.
    """
    if _SETUPS.get() is not None:
        yield
        return
    token = _SETUPS.set({})
    try:
        yield
    finally:
        _SETUPS.reset(token)


def _setup(key: tuple, build):
    """``build()``; inside a scope, the value the first ``build()`` for ``key`` gave."""
    setups = _SETUPS.get()
    if setups is None:
        return build()
    if key not in setups:
        setups[key] = build()
    return setups[key]


def _spec_key(spec: dict) -> tuple:
    return tuple(sorted(spec.items()))


def _family(problem: dict, default_seed: int):
    """The loss family of a problem section, built once per set-up scope."""
    return _setup(("family", _spec_key(problem), default_seed), lambda: _build_family(problem, default_seed))


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


def _make_algorithm(spec: dict, gm, family, X0: np.ndarray, delta: float):
    name = spec["algorithm"]
    if name == "extra":
        if "extra_alpha" not in spec:
            raise ConfigError("EXTRA needs 'extra_alpha' (or run tune-extra first)")
        return ExtraAlgorithm(gm, family, X0, alpha=float(spec["extra_alpha"]))
    gamma = GammaSchedule(**{key: float(v) for key, v in spec.get("gamma", {}).items()})
    # theta0 and the adaptive-only d0 and safeguard keep the constructor's defaults unless given
    given = {key: cast(spec[key]) for key, cast in (("theta0", float), ("d0", int)) if key in spec}
    if "safeguard" in spec:
        given["safeguard_radius"] = float(spec["safeguard"]["R_tilde"])
    return AdaptiveAlgorithm(gm, family, X0, method=name, delta=delta, gamma=gamma, **given)


def run(config: RunConfig) -> RunTrace:
    """Execute one seeded run; a diverged or stalled step ends it with that status, not an error."""
    started = time.perf_counter()
    graph_spec = dict(config.graph)
    graph_spec.setdefault("seed", config.seed)
    graph_key = (_spec_key(graph_spec), config.c)
    try:
        gm = _setup(("gossip", graph_key), lambda: gossip_matrix(graph_from_spec(graph_spec), c=config.c))
        family = _family(config.problem, config.seed)
        fp = fixed_point(family)  # computed once per family
        delta = float(config.algorithm.get("delta", 1.0))
        X0 = np.zeros((family.m, family.dim))
        algo = _make_algorithm(config.algorithm, gm, family, X0, delta)
        # the strongly convex merit weighs the duals, through their preimage; EXTRA has none
        merit = None
        if algo.Y is not None:
            merit = PreimageMerit(fp, _setup(("factor", graph_key), lambda: spectral_data(gm)), gm.W_op)
    # GraphError, LossError, MetricsError, an unreadable dataset
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    # spectral_data's factor holds m^2 doubles; everything else a run keeps is O(nnz + m d)
    except MemoryError as exc:
        raise ConfigError(f"not enough memory to set up a run with m={graph_spec.get('m')} agents: {exc}") from exc

    kind = config.problem["kind"]
    erg = ErgodicAverage()
    denom = math.sqrt(inner(X0 - fp.X_star)) or 1.0

    def ergodic_merit() -> float | None:
        """M_erg at the mean of the iterates X^1..X^k; None at k = 0, with nothing averaged yet."""
        return merit_cvx(erg.X_sum, erg.image_sum, erg.WX_sum, fp, family, delta, erg.count) if erg.count else None

    rows: list[MeritRow] = []

    def record(status: str) -> None:
        """Write the row of iterate k; a quadratic run computes its merits only here."""
        V = merit(dX_sq, algo.Y, algo.Z, stats["theta_min"]) if merit is not None else None
        M_erg = ergodic_merit() if kind == "quadratic" else m_erg
        rows.append(MeritRow(k=k, vector_rounds=vector_rounds, scalar_rounds=scalar_rounds, err_rel=err_rel,
                             V=V, M_erg=M_erg, status=status, **stats))

    k = 0
    while True:
        stats = algo.stats()
        vector_rounds, scalar_rounds = algo.exchange.vector_rounds, algo.exchange.scalar_rounds
        dX_sq = inner(algo.X - fp.X_star)
        err_rel = math.sqrt(dX_sq) / denom
        # the logistic stop reads M_erg every iteration; the quadratic one only err_rel
        m_erg = ergodic_merit() if kind == "logistic" else None
        gauge = err_rel if kind == "quadratic" else m_erg

        if gauge is not None and gauge <= config.epsilon:
            status = "converged"
        elif k >= config.max_iterations or vector_rounds >= config.max_vector_rounds:
            status = "budget_exhausted"
        else:
            status = None
        if status is not None:
            record(status)
            break

        # a written row holds the iterate before the step
        written = k % config.stride == 0
        if written:
            record("running")
        try:
            algo.step()
        except (DivergenceError, BacktrackingError) as exc:
            # a failed step leaves the state and the round counters untouched
            failed = "diverged" if isinstance(exc, DivergenceError) else "stalled"
            if not written:
                record(failed)
            rows[-1] = replace(rows[-1], status=failed)
            break
        erg.update(algo.X, algo.image, algo.WX)
        k += 1

    trace = RunTrace(
        rows=rows,
        status=rows[-1].status,
        wall_time=time.perf_counter() - started,
        comment={"seed": config.seed, "graph": graph_spec, "problem": dict(config.problem),
                 "algorithm": config.algorithm, "c": config.c, "epsilon": config.epsilon},
    )
    if config.output:
        trace.write_csv(config.output)
    return trace


@_shared_setups()
def tune_extra(config: RunConfig, grid=None) -> tuple[float, RunTrace]:
    """Grid-search EXTRA's stepsize: fewest vector rounds to target wins.

    Later grid points are capped at the incumbent's round count, so clearly
    worse stepsizes are pruned early. Ties go to the smaller alpha. The grid
    runs share one set-up: graph, data, fixed point.
    """
    if config.algorithm["algorithm"] != "extra":
        raise ConfigError("tune_extra needs an 'extra' algorithm config")
    if grid is not None:  # checked as a config's own grid is
        config = replace(config, algorithm={**config.algorithm, "extra_alpha_grid": list(grid)})
    spec = {k: v for k, v in config.algorithm.items() if k != "extra_alpha_grid"}
    grid = config.algorithm.get("extra_alpha_grid", _DEFAULT_ALPHA_GRID)

    best: tuple[int, float, RunTrace] | None = None
    statuses: dict[float, str] = {}
    for alpha in sorted(map(float, grid), reverse=True):
        budget = config.max_vector_rounds if best is None else best[0]
        sub = replace(
            config, algorithm={**spec, "extra_alpha": alpha}, max_vector_rounds=budget, output=None
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


def _algo_spec(name: str, alpha_grid) -> dict:
    """A suite's algorithm section; EXTRA's carries the tuning grid, if one is given."""
    spec = {"algorithm": name, "delta": 1.0, "theta0": 1.0}
    if name == "extra":
        if alpha_grid is not None:
            spec["extra_alpha_grid"] = list(alpha_grid)
        return spec
    spec["gamma"] = {"beta1": 2.0, "beta2": 1.0}
    if name == "adaptive":
        spec["d0"] = 1
    return spec


def _quadratic(m: int, h: int, ridge: float, seed: int) -> dict:
    return {"kind": "quadratic", "m": m, "h": h, "n": 100, "lambda": ridge, "seed": seed}


def _graph_members(problem: dict) -> list:
    return [((label,), label, spec, problem, 1) for label, spec in _SUITE_GRAPHS.items()]


def _condition_members(data_path) -> list:
    members = []
    for ridge in (0.0, 1.0, 10.0, 100.0, 1000.0):
        problem = _quadratic(20, 110, ridge, 1)
        kappa = float(quadratic_condition_numbers(_family(problem, 1)).max())
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


@_shared_setups()
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
    The suite's runs share their set-up, as a ``tune_extra`` call's do.
    """
    if name not in _SUITES:
        raise ConfigError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    keys, members, algorithms, epsilon, columns = _SUITES[name]
    # RunConfig holds the default budget
    budget = {} if max_vector_rounds is None else {"max_vector_rounds": max_vector_rounds}
    runs = [
        (key, f"{stem}_{algo}", RunConfig.from_dict({
            "graph": graph, "problem": problem, "algorithm": _algo_spec(algo, alpha_grid),
            "epsilon": epsilon, **budget, "seed": seed,
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
                alpha, trace = tune_extra(cfg)
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
