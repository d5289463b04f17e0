"""Model/run configuration files.

Flat INI-style text with sections [branching], [immigration], [competition],
[sim] and [certificate]; numbers in decimal and finite, Levy measures
declared by kind plus parameters.  Example::

    [branching]
    b = 0.5
    c = 0.0
    mu = uniform rate=1.0 lo=0.0 hi=1.0

    [immigration]
    beta = 0.3
    nu = none

    [competition]
    g = none

    [sim]
    dt = 1e-3
    t_end = 1.0
    paths = 1000
    seed = 7
    eps = auto
    x_max = 1e8

    [certificate]
    weight = v1

An omitted [sim] key defaults to dt 1e-3, t_end 1, paths 1, seed 0, eps auto
or x_max 1e8, and an omitted [certificate] weight to v1.  ``eps`` is the
small-jump truncation level (``auto`` derives it), and a state above
``x_max`` counts as an explosion.  Keys not named here are ignored.

Measure kinds: ``none``; ``stable alpha=1.5 sigma=1.0``; ``uniform rate=1.0
lo=0.0 hi=1.0``; ``atoms 2.0:1.0, 3.0:0.5``.  A sum joins kinds with `` + ``
(spaces required, so ``rate=1e+0`` stays one number).  A stable branching
block may be given directly as ``kind = stable`` with ``a, c, sigma, alpha``
instead of ``b, c, mu``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from .generator import WeightFunction
from .mechanisms import (
    BranchingMechanism,
    CompetitionMechanism,
    ImmigrationMechanism,
    LevyMeasure,
    ModelSpec,
    stable_to_generic,
)
from .simulator import SimConfig, SimulationError


class ConfigError(ValueError):
    """Malformed configuration; the message names the section and field."""


def _number(raw: str, what: str) -> float:
    """``float(raw)``, or a ConfigError naming ``what`` unless it is finite."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {raw!r}")
    return value


def _kv_args(parts, where):
    out = {}
    for p in parts:
        if "=" not in p:
            raise ConfigError(f"{where}: expected key=value, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = _number(v, f"{where}: {k.strip()}")
    return out


def parse_measure(text: str, where: str) -> LevyMeasure:
    pieces = re.split(r"\s\+\s", text)
    if len(pieces) > 1:
        return LevyMeasure.sum_of([parse_measure(piece, where) for piece in pieces])
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: empty measure declaration")
    kind = parts[0].lower()
    if kind == "none":
        return LevyMeasure.zero()
    if kind == "stable":
        kv = _kv_args(parts[1:], where)
        try:
            return LevyMeasure.stable(kv.pop("alpha"), kv.pop("sigma"))
        except KeyError as exc:
            raise ConfigError(f"{where}: stable needs alpha= and sigma=") from exc
    if kind == "uniform":
        kv = _kv_args(parts[1:], where)
        try:
            return LevyMeasure.uniform(kv.pop("rate"), kv.pop("lo"), kv.pop("hi"))
        except KeyError as exc:
            raise ConfigError(f"{where}: uniform needs rate=, lo= and hi=") from exc
    if kind == "atoms":
        pairs = []
        for tok in parts[1:]:
            if ":" not in tok:
                raise ConfigError(f"{where}: atoms need loc:mass entries, got {tok!r}")
            loc, mass = tok.split(":", 1)
            what = f"{where}: atom {tok!r}"
            pairs.append((_number(loc, what), _number(mass, what)))
        if not pairs:
            raise ConfigError(f"{where}: atoms needs at least one loc:mass entry")
        return LevyMeasure.from_atoms(pairs)
    raise ConfigError(f"{where}: unknown measure kind {kind!r}")


def parse_competition(text: str, where: str) -> CompetitionMechanism:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: empty competition declaration")
    kind = parts[0].lower()
    kv = _kv_args(parts[1:], where)
    if kind == "none":
        return CompetitionMechanism.none()
    if kind == "linear":
        return CompetitionMechanism.linear(kv.get("a", 0.0))
    if kind == "power":
        try:
            return CompetitionMechanism.power(kv["k"], kv["p"])
        except KeyError as exc:
            raise ConfigError(f"{where}: power needs k= and p=") from exc
    if kind == "xlog":
        try:
            return CompetitionMechanism.xlog(kv["k"])
        except KeyError as exc:
            raise ConfigError(f"{where}: xlog needs k=") from exc
    raise ConfigError(f"{where}: unknown competition kind {kind!r}")


@dataclass
class RunConfig:
    model: ModelSpec
    sim: SimConfig
    weight: WeightFunction


def _getfloat(sec, key, default, where):
    raw = sec.get(key, None)
    if raw is None:
        return default
    return _number(raw, f"{where}: field {key!r}")


def _getint(sec, key, default, where):
    value = _getfloat(sec, key, default, where)
    if not float(value).is_integer():
        raise ConfigError(f"{where}: field {key!r} must be an integer, got {sec[key]!r}")
    return int(value)


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
        # reading every value here surfaces interpolation errors too
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: " + " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    if "branching" not in sections:
        raise ConfigError("[branching]: section missing")
    bsec = sections["branching"]
    if bsec.get("kind", "").strip().lower() == "stable":
        branching = stable_to_generic(
            _getfloat(bsec, "a", 0.0, "[branching]"),
            _getfloat(bsec, "c", 0.0, "[branching]"),
            _getfloat(bsec, "sigma", 0.0, "[branching]"),
            _getfloat(bsec, "alpha", 1.5, "[branching]"),
        )
    else:
        branching = BranchingMechanism(
            b=_getfloat(bsec, "b", 0.0, "[branching]"),
            c=_getfloat(bsec, "c", 0.0, "[branching]"),
            mu=parse_measure(bsec.get("mu", "none"), "[branching] mu"),
        )

    isec = sections.get("immigration", {})
    immigration = ImmigrationMechanism(
        beta=_getfloat(isec, "beta", 0.0, "[immigration]"),
        nu=parse_measure(isec.get("nu", "none"), "[immigration] nu"),
    )

    gsec = sections.get("competition", {})
    competition = parse_competition(gsec.get("g", "none"), "[competition] g")

    model = ModelSpec(branching, immigration, competition)

    ssec = sections.get("sim", {})
    eps_raw = ssec.get("eps", "auto").strip().lower()
    eps = None if eps_raw in ("auto", "none", "") else _getfloat(ssec, "eps", None, "[sim]")
    try:
        sim = SimConfig(
            dt=_getfloat(ssec, "dt", 1e-3, "[sim]"),
            t_end=_getfloat(ssec, "t_end", 1.0, "[sim]"),
            eps=eps,
            x_max=_getfloat(ssec, "x_max", 1e8, "[sim]"),
            seed=_getint(ssec, "seed", 0, "[sim]"),
            n_paths=_getint(ssec, "paths", 1, "[sim]"),
        )
    except SimulationError as exc:
        raise ConfigError(f"[sim]: {exc}") from exc

    csec = sections.get("certificate", {})
    wname = csec.get("weight", "v1").strip().lower()
    if wname == "v1":
        weight = WeightFunction.v1()
    elif wname == "vlog":
        weight = WeightFunction.vlog()
    else:
        raise ConfigError(f"[certificate]: weight must be v1 or vlog, got {wname!r}")
    return RunConfig(model=model, sim=sim, weight=weight)
