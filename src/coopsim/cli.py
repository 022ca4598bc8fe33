"""Command-line front end.

Every subcommand resolves its options from, in order of precedence, the
command line, an optional flat ``key=value`` config file, the ``COOP_SEED``
environment variable (seed only), and built-in defaults.  A config file
key that names no option of the subcommand is an error.  The resolved
configuration is serialized, hashed, and embedded in every output, so a
run can be replayed byte-for-byte from its own artifact.

Each subcommand is declared once, by ``_command`` on its handler, with its
options; the parser and the dispatch are built from those declarations.

Exit codes: 0 success, 1 I/O failure, 2 validation failure (including
argparse usage errors).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .errors import CoopSimError, DomainError
from .graphical import (
    STANDARD,
    build_dual,
    estimate_sterile,
    sample_event_log,
    sterile_probability,
)
from .lattice import Torus, survival_estimate
from .mean_field import classify_regime, fixed_points, integrate, transition_curve
from .params import Params, equal_rate_benefit
from . import percolation as blocks_mod
from .experiments import (
    SweepSpec,
    _fmt,
    bracket_critical,
    bracket_document,
    monotonicity_check,
    sweep_phase_diagram,
    sweep_to_csv,
)

__all__ = ["main", "RunConfig", "parse_config_text"]


# ---------------------------------------------------- options and commands


@dataclass(frozen=True, slots=True)
class Opt:
    name: str
    kind: str  # "float" | "int" | "str" | "bool" | "floats"
    default: object
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated floats; an empty item is an error, not skipped."""
    return tuple(float(tok) for tok in raw.split(","))


# text parser per non-bool option kind, for the command line and config files
_PARSERS = {"float": float, "int": int, "str": str, "floats": _float_list}


def _convert(opt: Opt, raw: str, key: str):
    """Parse the text ``raw`` given for ``opt`` under the name ``key``."""
    if opt.kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise DomainError(f"{key}={raw!r} is not a boolean")
    try:
        return _PARSERS[opt.kind](raw)
    except ValueError:
        raise DomainError(f"{key}={raw!r} is not a valid {opt.kind}") from None


_SEED = Opt("seed", "int", 0)
_OUT = Opt("out", "str", None)
_CONFIG = Opt("config", "str", None)
_JOBS = Opt("jobs", "int", 1)

# options that steer runtime plumbing only; excluded from the hashed config
_UNHASHED = {"out", "config", "jobs"}

_COMMON_PROCESS = [
    Opt("beta", "float", None, required=True),
    Opt("beta_c", "float", 0.0),
    Opt("beta_d", "float", 0.0),
    Opt("dim", "int", 1),
]


@dataclass(frozen=True, slots=True)
class Command:
    """A subcommand's key (``name``, or ``group:action`` such as
    ``blocks:a1``, as hashed), its options and its handler."""

    key: str
    options: tuple[Opt, ...]
    run: Callable[[dict, RunConfig], str]


_COMMANDS: dict[str, Command] = {}


def _command(key: str, *options: Opt):
    """Declare command ``key``, run by the decorated handler.

    Its options are ``options`` plus ``--out`` and ``--config``.  Commands
    appear in ``--help`` in declaration order.
    """

    def declare(run):
        _COMMANDS[key] = Command(key, (*options, _OUT, _CONFIG), run)
        return run

    return declare


# ------------------------------------------------------------ configuration


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Fully resolved options for one run, in serializable string form."""

    command: str
    entries: tuple[tuple[str, str], ...]

    def to_text(self) -> str:
        lines = [f"command={self.command}"]
        lines += [f"{k}={v}" for k, v in self.entries]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def as_dict(self) -> dict[str, str]:
        return {"command": self.command, **dict(self.entries)}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and ``#`` comments ignored.

    A key given twice is an error: neither value silently wins.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise DomainError(f"config line {lineno} is not key=value: {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in values:
            raise DomainError(f"config key {key!r} is given twice (lines {first_line[key]} and {lineno})")
        first_line[key] = lineno
        values[key] = raw.strip()
    return values


def _value_to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _resolve(cmd: Command, ns: argparse.Namespace) -> tuple[dict, RunConfig]:
    file_values: dict[str, str] = {}
    if ns.config is not None:
        with open(ns.config, encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read())
        unknown = sorted(set(file_values) - {opt.name for opt in cmd.options})
        if unknown:
            raise DomainError(
                f"config file {ns.config} has keys that no {cmd.key} option names: "
                + ", ".join(unknown)
            )

    resolved: dict[str, object] = {}
    for opt in cmd.options:
        value, source = getattr(ns, opt.name), opt.flag
        if value is None and opt.name in file_values:
            value, source = _convert(opt, file_values[opt.name], opt.name), f"config key {opt.name}"
        if value is None and opt.name == "seed" and "COOP_SEED" in os.environ:
            value, source = _convert(opt, os.environ["COOP_SEED"], "COOP_SEED"), "COOP_SEED"
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise DomainError(f"missing required option {opt.flag}")
        if opt.name == "seed" and value < 0:
            raise DomainError(f"{source} must be a non-negative integer, got {value}")
        resolved[opt.name] = value

    entries = tuple(
        (name, _value_to_text(value))
        for name, value in sorted(resolved.items())
        if name not in _UNHASHED and value is not None
    )
    return resolved, RunConfig(command=cmd.key, entries=entries)


def _header_lines(cfg: RunConfig, seed: object) -> list[str]:
    return [
        f"# coopsim {__version__}",
        f"# config_hash={cfg.digest()}",
        f"# seed={seed if seed is not None else '-'}",
        *(f"# cfg {line}" for line in cfg.to_text().splitlines()),
    ]


def _json_payload(cfg: RunConfig, seed: object, result: dict) -> str:
    doc = {
        "version": __version__,
        "config_hash": cfg.digest(),
        "seed": seed,
        "config": cfg.as_dict(),
        "result": result,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------- subcommands


@_command(
    "meanfield",
    *_COMMON_PROCESS,
    Opt("x0", "float", 0.2),
    Opt("y0", "float", 0.2),
    Opt("t_end", "float", 50.0),
    Opt("dt", "float", 1e-3),
    Opt("sample_interval", "float", 0.5),
    Opt("phi_curve", "bool", False),
    Opt("beta_c_max", "float", 10.0),
    Opt("points", "int", 100),
)
def _cmd_meanfield(v: dict, cfg: RunConfig) -> str:
    p = Params(v["beta"], v["beta_c"], v["beta_d"], v["dim"])
    lines = _header_lines(cfg, None)
    if v["phi_curve"]:
        if not (v["points"] >= 2 and 0 < v["beta_c_max"] < math.inf):
            raise DomainError("phi curve needs points >= 2 and a finite beta_c_max > 0")
        lines.append("beta_c,phi")
        for i in range(v["points"]):
            bc = v["beta_c_max"] * i / (v["points"] - 1)
            lines.append(f"{_fmt(bc)},{_fmt(transition_curve(bc, v['beta']))}")
        return "\n".join(lines) + "\n"

    if not 0 < v["sample_interval"] < math.inf:
        raise DomainError(f"sample_interval must be positive and finite, got {v['sample_interval']}")
    traj = integrate((v["x0"], v["y0"]), p, v["t_end"], dt=v["dt"])
    reports = [
        {
            "kind": fp.kind,
            "x": _fmt(fp.x),
            "y": _fmt(fp.y),
            "in_simplex": fp.in_simplex,
            "locally_stable": fp.locally_stable,
        }
        for fp in fixed_points(p)
    ]
    lines.append(f"# regime={classify_regime(p)}")
    lines.append(
        f"# terminal x={_fmt(traj.final.x)} y={_fmt(traj.final.y)}"
    )
    lines.append("# fixed_points=" + json.dumps(reports, sort_keys=True))
    lines.append("t,x,y")
    ratio = v["sample_interval"] / v["dt"]
    if ratio == math.inf:
        raise DomainError(f"sample_interval / dt overflows: {v['sample_interval']} / {v['dt']}")
    step = max(1, round(ratio))
    idx = list(range(0, len(traj), step))
    if idx[-1] != len(traj) - 1:
        idx.append(len(traj) - 1)
    for i in idx:
        lines.append(f"{_fmt(float(traj.t[i]))},{_fmt(float(traj.x[i]))},{_fmt(float(traj.y[i]))}")
    return "\n".join(lines) + "\n"


@_command(
    "simulate",
    *_COMMON_PROCESS,
    Opt("side", "int", 50),
    Opt("t_end", "float", 50.0),
    Opt("replicas", "int", 100),
    Opt("rho_c", "float", 0.2),
    Opt("rho_d", "float", 0.2),
    _SEED,
    _JOBS,
)
def _cmd_simulate(v: dict, cfg: RunConfig) -> str:
    p = Params(v["beta"], v["beta_c"], v["beta_d"], v["dim"])
    result = survival_estimate(
        p,
        v["side"],
        v["t_end"],
        v["replicas"],
        v["rho_c"],
        v["rho_d"],
        v["seed"],
        jobs=v["jobs"],
    )
    lines = _header_lines(cfg, v["seed"])
    for name in (
        "freq_c_alive",
        "freq_d_alive",
        "freq_c_wins",
        "freq_d_wins",
        "freq_coexist",
        "freq_both_extinct",
    ):
        lines.append(f"# {name}={_fmt(getattr(result, name))}")
    lines.append("replica,n_c,n_d,n_e")
    for o in result.outcomes:
        lines.append(f"{o.index},{o.n_c},{o.n_d},{o.n_e}")
    return "\n".join(lines) + "\n"


@_command(
    "sweep",
    Opt("beta", "float", None, required=True),
    Opt("beta_c_grid", "floats", None, required=True),
    Opt("beta_d_grid", "floats", None, required=True),
    Opt("dim", "int", 1),
    Opt("side", "int", 50),
    Opt("t_end", "float", 50.0),
    Opt("replicas", "int", 100),
    Opt("rho_c", "float", 0.2),
    Opt("rho_d", "float", 0.2),
    _SEED,
    _JOBS,
)
def _cmd_sweep(v: dict, cfg: RunConfig) -> str:
    spec = SweepSpec(
        beta=v["beta"],
        beta_c_grid=v["beta_c_grid"],
        beta_d_grid=v["beta_d_grid"],
        side=v["side"],
        dim=v["dim"],
        horizon=v["t_end"],
        replicas=v["replicas"],
        master_seed=v["seed"],
        rho_c=v["rho_c"],
        rho_d=v["rho_d"],
    )
    rows = sweep_phase_diagram(spec, jobs=v["jobs"])
    return "\n".join(_header_lines(cfg, v["seed"])) + "\n" + sweep_to_csv(spec, rows)


def _rates(p: Params) -> dict:
    return {"beta": _fmt(p.beta), "beta_c": _fmt(p.beta_c), "beta_d": _fmt(p.beta_d)}


@_command(
    "couple",
    *_COMMON_PROCESS,
    Opt("delta_c", "float", 0.0),
    Opt("delta_d", "float", 0.0),
    Opt("side", "int", 24),
    Opt("t_end", "float", 4.0),
    Opt("replicas", "int", 100),
    Opt("rho_c", "float", 0.25),
    Opt("rho_d", "float", 0.25),
    _SEED,
)
def _cmd_couple(v: dict, cfg: RunConfig) -> str:
    base = Params(v["beta"], v["beta_c"], v["beta_d"], v["dim"])
    rep = monotonicity_check(
        base,
        v["delta_c"],
        v["delta_d"],
        v["replicas"],
        np.random.default_rng(v["seed"]),
        side=v["side"],
        horizon=v["t_end"],
        rho_c=v["rho_c"],
        rho_d=v["rho_d"],
    )
    result = {
        "base": _rates(base),
        "favored": _rates(rep.favored),
        "replicas": rep.replicas,
        "c_sets_nested_at_horizon": rep.c_sets_nested_at_horizon,
        "d_sets_nested_at_horizon": rep.d_sets_nested_at_horizon,
        "identical_trajectories": rep.identical_trajectories,
        "freq_c_alive_favored": _fmt(rep.freq_c_alive_favored),
        "freq_c_alive_base": _fmt(rep.freq_c_alive_base),
        "freq_d_alive_favored": _fmt(rep.freq_d_alive_favored),
        "freq_d_alive_base": _fmt(rep.freq_d_alive_base),
    }
    return _json_payload(cfg, v["seed"], result)


@_command(
    "dual",
    *_COMMON_PROCESS,
    Opt("side", "int", 20),
    Opt("t_end", "float", 3.0),
    Opt("site", "int", 0),
    Opt("at", "float", None),
    Opt("flavor", "str", STANDARD),
    _SEED,
)
def _cmd_dual(v: dict, cfg: RunConfig) -> str:
    p = Params(v["beta"], v["beta_c"], v["beta_d"], v["dim"])
    torus = Torus(v["side"], dim=v["dim"])
    rng = np.random.default_rng(v["seed"])
    log = sample_event_log(p, torus, v["t_end"], rng, flavor=v["flavor"])
    origin_time = v["at"] if v["at"] is not None else v["t_end"]
    tree = build_dual(log, v["site"], origin_time)
    lines = _header_lines(cfg, v["seed"])
    lines.append(
        f"# origin site={tree.origin_site} time={_fmt(tree.origin_time)}"
        f" horizon={_fmt(tree.horizon)} nodes={len(tree.nodes)}"
    )
    lines.append("index\tsite\tsigma_start\tsigma_stop\tstopped_by_cross")
    for node in tree.nodes:
        idx = "(" + ",".join(str(i) for i in node.index) + ")"
        lines.append(
            f"{idx}\t{node.site}\t{_fmt(node.sigma_start)}\t{_fmt(node.sigma_stop)}"
            f"\t{'yes' if node.stopped_by_cross else 'no'}"
        )
    return "\n".join(lines) + "\n"


@_command(
    "bracket",
    Opt("beta", "float", None, required=True),
    Opt("beta_d", "float", 0.0),
    Opt("dim", "int", 1),
    Opt("side", "int", 40),
    Opt("t_end", "float", 120.0),
    Opt("replicas", "int", 40),
    Opt("rho_c", "float", 0.25),
    Opt("rho_d", "float", 0.25),
    Opt("tau", "float", 0.9),
    Opt("lo", "float", 0.0),
    Opt("hi", "float", 16.0),
    Opt("budget", "int", 10),
    _SEED,
)
def _cmd_bracket(v: dict, cfg: RunConfig) -> str:
    bracket = bracket_critical(
        v["beta"],
        v["beta_d"],
        dim=v["dim"],
        side=v["side"],
        horizon=v["t_end"],
        replicas=v["replicas"],
        rho_c=v["rho_c"],
        rho_d=v["rho_d"],
        master_seed=v["seed"],
        tau=v["tau"],
        lo=v["lo"],
        hi=v["hi"],
        budget=v["budget"],
    )
    doc = bracket_document(bracket, v["beta"], v["beta_d"], v["seed"])
    return _json_payload(cfg, v["seed"], doc)


def _estimate(freq: float, stderr: float, **reference: float) -> dict:
    """A Monte Carlo frequency with its standard error and reference values."""
    return {
        "estimate": _fmt(freq),
        "stderr": _fmt(stderr),
        **{name: _fmt(value) for name, value in reference.items()},
    }


@_command(
    "sterile",
    Opt("beta", "float", None, required=True),
    Opt("beta_c", "float", 0.0),
    Opt("side", "int", 60),
    Opt("t_end", "float", 20.0),
    Opt("replicas", "int", 10_000),
    _SEED,
)
def _cmd_sterile(v: dict, cfg: RunConfig) -> str:
    freq, stderr = estimate_sterile(
        v["beta"],
        v["beta_c"],
        v["replicas"],
        np.random.default_rng(v["seed"]),
        side=v["side"],
        window=v["t_end"],
    )
    closed = sterile_probability(v["beta"], v["beta_c"])
    abs_z = abs(freq - closed) / stderr if stderr > 0 else float("inf")
    return _json_payload(cfg, v["seed"], _estimate(freq, stderr, closed_form=closed, abs_z=abs_z))


@_command(
    "blocks:a1",
    Opt("T", "float", 1.0),
    Opt("dim", "int", 1),
    Opt("replicas", "int", 10_000),
    _SEED,
)
def _cmd_blocks_a1(v: dict, cfg: RunConfig) -> str:
    rng = np.random.default_rng(v["seed"])
    freq, stderr = blocks_mod.estimate_a1(v["T"], v["dim"], v["replicas"], rng)
    closed = blocks_mod.prob_a1(v["T"], v["dim"])
    return _json_payload(cfg, v["seed"], _estimate(freq, stderr, closed_form=closed))


@_command(
    "blocks:a2",
    Opt("beta", "float", None, required=True),
    Opt("beta_d", "float", 0.0),
    Opt("dim", "int", 1),
    Opt("T", "float", 1.0),
    Opt("delta", "float", 0.001),
    Opt("replicas", "int", 10_000),
    _SEED,
)
def _cmd_blocks_a2(v: dict, cfg: RunConfig) -> str:
    p = Params(v["beta"], 0.0, v["beta_d"], v["dim"])
    rng = np.random.default_rng(v["seed"])
    freq, stderr = blocks_mod.estimate_a2(p, v["T"], v["delta"], v["dim"], v["replicas"], rng)
    bound = blocks_mod.bound_a2(v["T"], v["delta"], v["dim"], p)
    return _json_payload(cfg, v["seed"], _estimate(freq, stderr, lower_bound=bound))


@_command(
    "blocks:a3",
    Opt("beta", "float", None, required=True),
    Opt("beta_c", "float", 0.0),
    Opt("T", "float", 1.0),
    Opt("delta", "float", 0.5),
    Opt("dim", "int", 1),
)
def _cmd_blocks_a3(v: dict, cfg: RunConfig) -> str:
    bound = blocks_mod.prob_a3_bound(v["beta"], v["beta_c"], v["T"], v["delta"], v["dim"])
    return _json_payload(cfg, None, {"lower_bound": _fmt(bound)})


@_command(
    "blocks:cplus",
    Opt("L", "int", 2),
    Opt("dim", "int", 1),
    Opt("rho", "float", 0.001),
    Opt("replicas", "int", 10_000),
    _SEED,
)
def _cmd_blocks_cplus(v: dict, cfg: RunConfig) -> str:
    rng = np.random.default_rng(v["seed"])
    freq, stderr = blocks_mod.estimate_c_plus_absence(v["L"], v["dim"], v["rho"], v["replicas"], rng)
    closed = blocks_mod.c_plus_absence_prob(v["L"], v["dim"], v["rho"])
    return _json_payload(cfg, v["seed"], _estimate(freq, stderr, closed_form=closed))


@_command(
    "blocks:spread",
    Opt("beta", "float", None, required=True),
    Opt("beta_d", "float", None, required=True),
    Opt("L", "int", 4),
    Opt("replicas", "int", 40),
    _SEED,
)
def _cmd_blocks_spread(v: dict, cfg: RunConfig) -> str:
    p = Params(v["beta"], equal_rate_benefit(v["beta_d"], 1), v["beta_d"], 1)
    spec = blocks_mod.BlockSpec.for_scale(v["L"])
    res = blocks_mod.block_spread_estimate(p, spec, v["replicas"], np.random.default_rng(v["seed"]))
    result = {
        "frequency": _fmt(res.frequency),
        "stderr": _fmt(res.stderr),
        "replicas": res.replicas,
        "L": spec.L,
        "T": _fmt(spec.T),
        "beta_c": _fmt(p.beta_c),
    }
    return _json_payload(cfg, v["seed"], result)


@_command(
    "blocks:perc",
    Opt("epsilon", "float", 0.05),
    Opt("levels", "int", 20),
    Opt("width", "int", 30),
    _SEED,
)
def _cmd_blocks_perc(v: dict, cfg: RunConfig) -> str:
    rng = np.random.default_rng(v["seed"])
    field = blocks_mod.percolate(v["epsilon"], v["levels"], v["width"], sources="all", rng=rng)
    lines = _header_lines(cfg, v["seed"])
    wet = ",".join(str(int(n)) for n in field.wet_levels())
    lines.append(f"# wet_per_level={wet}")
    return "\n".join(lines) + "\n" + field.dump_rle()


# ------------------------------------------------------------------ driver


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every declared command, built once per process."""
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Cooperator/defector lattice dynamics toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"coopsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in _COMMANDS.values():
        group, _, action = cmd.key.rpartition(":")
        if not group:
            p = sub.add_parser(cmd.key)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group).add_subparsers(dest="action", required=True)
            p = groups[group].add_parser(action)
        p.set_defaults(cmd=cmd)
        for opt in cmd.options:
            if opt.kind == "bool":
                p.add_argument(opt.flag, dest=opt.name, action=argparse.BooleanOptionalAction, default=None)
            else:
                p.add_argument(
                    opt.flag,
                    dest=opt.name,
                    type=_PARSERS[opt.kind],
                    default=None,
                    metavar="X,Y,..." if opt.kind == "floats" else None,
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        values, cfg = _resolve(ns.cmd, ns)
        payload = ns.cmd.run(values, cfg)
        if values["out"]:
            with open(values["out"], "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except CoopSimError as exc:
        print(f"coopsim: error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 2
    except OSError as exc:
        print(f"coopsim: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
