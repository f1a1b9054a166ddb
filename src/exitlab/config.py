"""Flat key = value experiment configuration.

The grammar is one dotted key per line, ``key = value``, with ``#`` comments
and blank lines ignored.  Values are typed per key (scalar, list, point list,
enum); unknown keys, duplicates, and bad literals are ParseErrors carrying
the line number, while violated invariants raise ValidationError naming the
invariant.  The echoed canonical form (every key with its effective value)
is what gets hashed into run outputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    BoxDomain,
    ConjugateFieldModel,
    NoiseModel,
    SmoothDomain,
    check_inclusion,
    transversality_check,
)
from .errors import ExitlabError, ParseError, ValidationError
from .estimator import DEFAULT_BATCH_SIZE, MIN_DENSITY_SAMPLES
from .exponents import InitialScaleSpec, Spectrum, ThresholdSpec, classify_admissible
from .sde import PathConfig

# key -> (type tag, default); None default means unset
_SCHEMA: dict[str, tuple[str, object]] = {
    "model.variant": ("enum:identity,component_quadratic", "identity"),
    "model.lambdas": ("floatlist", None),
    "model.quad_coeff": ("floatlist", None),
    "model.validity_radius": ("float", None),
    "noise.sigma": ("floatlist", None),
    "noise.cols": ("int", None),
    "noise.form": ("enum:constant,state_scaled", "constant"),
    "noise.gamma": ("float", 0.0),
    "domain.lower": ("floatlist", None),
    "domain.upper": ("floatlist", None),
    "domain.inner": ("str", None),
    "domain.outer": ("str", None),
    "domain.big": ("str", None),
    "threshold.alpha": ("float", None),
    "threshold.r0": ("float", 0.0),
    "threshold.r_coeff": ("float", 0.0),
    "threshold.r_exponent": ("float", 1.0),
    "initial.points": ("points", ((0.0,),)),
    "initial.coords": ("enum:x,y", "x"),
    "initial.kappa": ("float", 1.0),
    "initial.rho": ("float", 0.0),
    "sweep.epsilons": ("floatlist", None),
    "estimator.method": ("enum:direct,splitting,adjusted", "direct"),
    "estimator.n_paths": ("int", 100_000),
    "estimator.dt": ("float", 1e-3),
    "estimator.t_cap": ("float", 0.0),
    "estimator.batch_size": ("int", DEFAULT_BATCH_SIZE),
    "estimator.budget": ("int", 10_000),
    "estimator.level_step": ("float", 1.0),
    "diagnostic.time": ("float", 1.0),
    "diagnostic.n_samples": ("int", 10_000),
    "diagnostic.point": ("points", ((0.0,),)),
    "diagnostic.epsilon": ("float", None),
    "diagnostic.grid_points": ("int", 161),
    "diagnostic.halfwidth": ("float", 6.0),
    "run.seed": ("int", 1),
    "run.workers": ("int", 1),
}

_REQUIRED = ("model.lambdas", "domain.lower", "domain.upper",
             "threshold.alpha", "sweep.epsilons")


def _parse_scalar(text: str, kind: str, line_no: int, key: str):
    text = text.strip()
    if not text:
        # the canonical echo renders unset keys as empty; keep it re-parseable
        return None
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"expected an integer, got {text!r}", line_no, key) from None
    if kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ParseError(f"expected a number, got {text!r}", line_no, key) from None
    if kind == "floatlist":
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        if not parts:
            raise ParseError("expected a comma-separated number list", line_no, key)
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad number in list {text!r}", line_no, key) from None
    if kind == "points":
        points = []
        for chunk in text.split(";"):
            parts = [p for p in (s.strip() for s in chunk.split(",")) if p]
            if not parts:
                raise ParseError("empty point in point list", line_no, key)
            try:
                points.append(tuple(float(p) for p in parts))
            except ValueError:
                raise ParseError(f"bad coordinate in point {chunk!r}", line_no, key) from None
        if not points:
            raise ParseError("expected at least one point", line_no, key)
        return tuple(points)
    if kind.startswith("enum:"):
        options = kind.split(":", 1)[1].split(",")
        if text not in options:
            raise ParseError(
                f"expected one of {options}, got {text!r}", line_no, key)
        return text
    if kind == "str":
        return text
    raise AssertionError(f"unknown schema kind {kind}")


def _parse_text(text: str) -> dict[str, object]:
    raw: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ParseError("unknown key", line_no, key)
        if key in raw:
            raise ParseError("duplicate key", line_no, key)
        kind, _default = _SCHEMA[key]
        raw[key] = _parse_scalar(value, kind, line_no, key)
    return raw


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, tuple) and v and isinstance(v[0], tuple):
        return ";".join(",".join(repr(float(c)) for c in p) for p in v)
    if isinstance(v, tuple):
        return ",".join(repr(float(c)) for c in v)
    raise AssertionError(f"unformattable config value {v!r}")


def _smooth_domain(spec: str, d: int) -> SmoothDomain:
    name, _, args = spec.partition(":")
    if name == "ball":
        return SmoothDomain.ball(float(args))
    if name == "ellipsoid":
        axes = [float(a) for a in args.split(",")]
        if len(axes) not in (1, d):
            raise ValueError(f"ellipsoid needs 1 or d = {d} semi-axes, got {len(axes)}")
        return SmoothDomain.ellipsoid(axes)
    raise ValueError(
        f"unknown domain kind {name!r} (expected ball:R or ellipsoid:a,b,...)")


def _transversality_warning(model: ConjugateFieldModel, domain: SmoothDomain,
                            key: str) -> str | None:
    # a boundary past the validity radius raises OutsideValidity, which
    # _built turns into a config error: no run could use that domain
    report = transversality_check(model, domain, n_samples=16)
    if report.ok:
        return None
    return (f"{key}: drift is not strictly outward on the boundary "
            f"(min inner product {report.min_inner_product!r})")


@dataclass
class ExperimentConfig:
    """Fully built experiment: model objects plus the canonical key echo."""

    echo: dict[str, str]
    model: ConjugateFieldModel
    noise: NoiseModel
    box: BoxDomain
    inner: SmoothDomain | None
    outer: SmoothDomain | None
    big: SmoothDomain | None
    threshold: ThresholdSpec
    scale: InitialScaleSpec
    points: tuple[np.ndarray, ...]
    coords: str
    epsilons: tuple[float, ...]
    method: str
    n_paths: int
    path: PathConfig
    batch_size: int
    budget: int
    level_step: float
    diagnostic_time: float
    diagnostic_n_samples: int
    diagnostic_point: np.ndarray
    diagnostic_epsilon: float
    diagnostic_grid_points: int
    diagnostic_halfwidth: float
    seed: int
    workers: int
    warnings: list[str] = field(default_factory=list)
    raw: dict[str, object] = field(default_factory=dict)

    def with_overrides(self, seed: int | None = None,
                       workers: int | None = None) -> "ExperimentConfig":
        """Rebuild with CLI overrides so echo and hash stay canonical."""
        raw = dict(self.raw)
        if seed is not None:
            raw["run.seed"] = int(seed)
        if workers is not None:
            raw["run.workers"] = int(workers)
        return build_config(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    return hash_echo(cfg.echo)


# Keys that only choose how the paths are split over batches and processes.
# rows.csv is byte-identical for every value of them, so the hash, which names
# the result, leaves them out; the echo still records them.
_UNHASHED_KEYS = frozenset({"estimator.batch_size", "run.workers"})


def hash_echo(echo: dict[str, str]) -> str:
    """sha256 over the canonical 'key = value' lines, sorted by key, of every
    key except the batch and worker counts."""
    blob = "\n".join(f"{k} = {echo[k]}" for k in sorted(echo)
                     if k not in _UNHASHED_KEYS) + "\n"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _built(key: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError or ExitlabError by which an
    object's own constructor rejects its arguments raised as a
    ValidationError naming the config key."""
    try:
        return make(*args, **kwargs)
    except (ValueError, ExitlabError) as exc:
        raise ValidationError(f"{key}: {exc}") from None


def _as_vector(values, d: int, key: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return np.full(d, float(arr.reshape(-1)[0]))
    if arr.shape == (d,):
        return arr.astype(float)
    raise ValidationError(f"{key} must have 1 or {d} entries, got {arr.size}")


def _point(values, d: int, key: str) -> np.ndarray:
    x = _as_vector(values, d, key)
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{key} must be finite")
    return x


def _build_sigma(raw: dict[str, object], d: int) -> np.ndarray:
    values = raw.get("noise.sigma")
    cols = raw.get("noise.cols")
    if values is None:
        return np.eye(d)
    arr = np.asarray(values, dtype=float)
    n = int(cols) if cols is not None else d
    if n < 1:
        raise ValidationError("noise.cols must be >= 1")
    if arr.size == 1 and cols is None:
        return float(arr.reshape(-1)[0]) * np.eye(d)
    if arr.size == d and cols is None and d > 1:
        return np.diag(arr)
    if arr.size == d * n:
        return arr.reshape(d, n)
    raise ValidationError(
        f"noise.sigma must have 1, {d} (diagonal) or d*cols entries, got {arr.size}")


_SMOOTH_KEYS = ("domain.inner", "domain.outer", "domain.big")


def build_config(raw: dict[str, object]) -> ExperimentConfig:
    """Typed dict -> validated objects.  Raises ValidationError on invariants.

    Each object checks its own arguments; build_config builds it through
    _built, so the object's error comes back naming the key.  Only keys that
    no object owns at parse time are checked here.
    """
    for key in raw:
        if key not in _SCHEMA:
            raise ParseError("unknown key", key=key)
    for key in _REQUIRED:
        if raw.get(key) is None:
            raise ValidationError(f"missing required key {key}")

    def get(key):
        value = raw.get(key)
        return _SCHEMA[key][1] if value is None else value

    spectrum = _built("model.lambdas", Spectrum, raw["model.lambdas"])
    d = spectrum.d

    coeff = raw.get("model.quad_coeff")
    radius = raw.get("model.validity_radius")
    if get("model.variant") == "identity":
        if coeff is not None:
            raise ValidationError("model.quad_coeff is only valid for component_quadratic")
        model = ConjugateFieldModel.identity(spectrum)
        if radius is not None:
            _built("model.validity_radius", setattr, model, "validity_radius", radius)
    else:
        if coeff is None:
            raise ValidationError("model.quad_coeff is required for component_quadratic")
        model = _built("model", ConjugateFieldModel.component_quadratic, spectrum,
                       _as_vector(coeff, d, "model.quad_coeff"),
                       validity_radius=radius)

    sigma0 = _build_sigma(raw, d)
    if get("noise.form") == "state_scaled":
        noise = _built("noise", NoiseModel.state_scaled, sigma0, get("noise.gamma"))
    else:
        noise = _built("noise", NoiseModel, sigma0)

    box = _built("domain", BoxDomain,
                 _as_vector(raw["domain.lower"], d, "domain.lower"),
                 _as_vector(raw["domain.upper"], d, "domain.upper"))
    corners = np.array([[lo, hi] for lo, hi in zip(box.lower, box.upper)])
    corner_pts = np.stack(np.meshgrid(*corners, indexing="ij"), axis=-1).reshape(-1, d)
    pulled = model.pull_batch(corner_pts)
    if np.max(np.abs(pulled)) > model.validity_radius * (1.0 + 1e-12):
        raise ValidationError(
            "domain must pull back inside the model validity region")

    inner, outer, big = (
        None if raw.get(key) is None else _built(key, _smooth_domain, raw[key], d)
        for key in _SMOOTH_KEYS)
    if (inner is None) != (outer is None):
        raise ValidationError("domain.inner and domain.outer must be given together")
    if inner is not None:
        _built("domain", check_inclusion, model, box, inner, outer)

    threshold = _built(
        "threshold", ThresholdSpec, alpha=float(raw["threshold.alpha"]),
        r0=float(get("threshold.r0")), r_coeff=float(get("threshold.r_coeff")),
        r_exponent=float(get("threshold.r_exponent")))
    scale = _built("initial", InitialScaleSpec, kappa=float(get("initial.kappa")),
                   rho=float(get("initial.rho")))

    eps = tuple(float(e) for e in raw["sweep.epsilons"])
    if any(not (0.0 < e < 1.0) for e in eps):
        raise ValidationError("sweep.epsilons must lie strictly inside (0, 1)")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValidationError("sweep.epsilons must be strictly decreasing")
    for e in eps:
        if not threshold.time(e) > 0.0:
            raise ValidationError(f"threshold: time alpha*log(1/eps) + r0 + r_coeff*"
                                  f"eps**r_exponent is not positive at eps = {e!r}")

    points = tuple(_point(p, d, "initial.points") for p in get("initial.points"))
    coords = get("initial.coords")

    method = get("estimator.method")
    if method == "adjusted" and big is None:
        raise ValidationError("estimator.method adjusted requires domain.big")
    n_paths = int(get("estimator.n_paths"))
    if n_paths < 1:
        raise ValidationError("estimator.n_paths must be >= 1")
    path = _built("estimator", PathConfig, dt=float(get("estimator.dt")),
                  t_cap=float(get("estimator.t_cap")))
    batch_size = int(get("estimator.batch_size"))
    if batch_size < 1:
        raise ValidationError("estimator.batch_size must be >= 1")
    budget = int(get("estimator.budget"))
    if budget < 100:
        raise ValidationError("estimator.budget must be at least 100")
    level_step = float(get("estimator.level_step"))
    if not level_step > 0.0:
        raise ValidationError("estimator.level_step must be positive")
    seed = int(get("run.seed"))
    if seed < 0:
        raise ValidationError("run.seed must be >= 0")
    workers = int(get("run.workers"))
    if workers < 1:
        raise ValidationError("run.workers must be >= 1")

    diag_eps = raw.get("diagnostic.epsilon")
    diag_eps = float(diag_eps) if diag_eps is not None else eps[0]
    if not (0.0 < diag_eps < 1.0):
        raise ValidationError("diagnostic.epsilon must lie in (0, 1)")
    diag_time = float(get("diagnostic.time"))
    if not 0.0 < diag_time < math.inf:
        raise ValidationError("diagnostic.time must be finite and positive")
    diag_n = int(get("diagnostic.n_samples"))
    if diag_n < MIN_DENSITY_SAMPLES:
        raise ValidationError(
            f"diagnostic.n_samples must be >= {MIN_DENSITY_SAMPLES}")
    diag_points = get("diagnostic.point")
    if len(diag_points) != 1:
        raise ValidationError(
            f"diagnostic.point must be one point, got {len(diag_points)}")
    diag_point = _point(diag_points[0], d, "diagnostic.point")
    diag_grid = int(get("diagnostic.grid_points"))
    if diag_grid < 8:
        raise ValidationError("diagnostic.grid_points must be >= 8")
    diag_half = float(get("diagnostic.halfwidth"))
    if not 0.0 < diag_half < math.inf:
        raise ValidationError("diagnostic.halfwidth must be finite and positive")

    warnings: list[str] = []
    if not classify_admissible(scale, spectrum, threshold.alpha):
        warnings.append(
            f"initial scale kappa={scale.kappa!r} rho={scale.rho!r} grows too "
            f"fast for alpha={threshold.alpha!r}: prediction not guaranteed")
    for key, dom in zip(_SMOOTH_KEYS, (inner, outer, big)):
        if dom is not None:
            warning = _built(key, _transversality_warning, model, dom, key)
            if warning is not None:
                warnings.append(warning)

    echo = {key: _fmt_value(get(key)) for key in _SCHEMA}
    echo["diagnostic.epsilon"] = _fmt_value(diag_eps)

    return ExperimentConfig(
        echo=echo, model=model, noise=noise, box=box, inner=inner, outer=outer,
        big=big, threshold=threshold, scale=scale, points=points, coords=coords,
        epsilons=eps, method=method, n_paths=n_paths, path=path,
        batch_size=batch_size, budget=budget, level_step=level_step,
        diagnostic_time=diag_time, diagnostic_n_samples=diag_n,
        diagnostic_point=diag_point, diagnostic_epsilon=diag_eps,
        diagnostic_grid_points=diag_grid, diagnostic_halfwidth=diag_half,
        seed=seed, workers=workers, warnings=warnings, raw=dict(raw))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text into a ready-to-run experiment."""
    return build_config(_parse_text(text))
