"""Command-line interface: phase sweeps, design reports, oracle validation.

Parameter sources merge in a fixed order: preset defaults, then a config file,
then explicit command-line flags (later sources win key by key).  The preset and
the config file become click's ``default_map``, so the option that declares a
key converts and checks its value whichever layer gives it.  Squeezing can be
given in dB (variance convention, 10 log10 e^{2r}) or as a raw factor r, but
not both.

The two sweep formats write numbers by different rules.  CSV writes 12
significant digits (``%.12g``), ``inf`` for an infinity of either sign and
``nan`` for nan.  JSON writes what ``json.dumps`` writes for a finite float,
its shortest round-trip ``repr``, and the string ``"inf"`` for every
non-finite value.  Either renderer formats each distinct bit pattern of a
column once.  ``report --format json`` is plain ``json.dumps``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from . import oracle as oracle_mod
from .model import (
    InterferometerParams,
    ParameterError,
    Strategy,
    StrategyKind,
    _shown,
    db_to_squeeze_factor,
    inefficiency,
    squeeze_factor_to_db,
    technical_noise_factor,
)
from .oracle import OracleConfig
from .sensitivity import (
    SensitivityResult,
    apriori_tolerance,
    dphi_min,
    fwhm,
    fwhm_approx,
    implied_inefficiency,
    k_factor,
    snl,
    sweep,
)

OUTPUT_DIR_ENV = "SQZMZI_OUTPUT_DIR"

CSV_HEADER = "phi,strategy,dphi,dphi_normalized,k_opt"

DEFAULT_STRATEGIES = ("single", "differential", "optimal")

# named parameter sets reproducing the package's reference sensitivity curves
PRESETS: dict[str, dict[str, float]] = {
    # 10 dB input squeezing, lossless, coherent-level excess noise
    "fig2-solid": {"r1_db": 10.0, "mu": 1.0, "eta": 1.0, "n_photons": 1e6, "a_factor": 1.0},
    # same squeezing with external loss giving eps^2 = 0.04
    "fig2-dashed": {"r1_db": 10.0, "mu": 1.0, "eta": 1.0 / 1.04, "n_photons": 1e6, "a_factor": 1.0},
    # lossless but doubled excess photon-number noise
    "fig2-dotted": {"r1_db": 10.0, "mu": 1.0, "eta": 1.0, "n_photons": 1e6, "a_factor": 2.0},
}

# pairs of alternative spellings of one knob: a layer gives at most one of
# each pair, and a later layer's value displaces the sibling from earlier ones
_SIBLINGS = (("r1", "r1_db"), ("r2", "r2_db"), ("g2", "a_factor"))
_SIBLING = {a: b for a, b in _SIBLINGS} | {b: a for a, b in _SIBLINGS}

# options a config file cannot set: the layer sources themselves, the output
# path and the one-off gain query
_NOT_IN_CONFIG = {"preset", "config", "output", "implied_gain_db"}


def _grid(phi_start: float, phi_end: float, points: int) -> list[float]:
    """``points`` evenly spaced phases from ``phi_start`` to ``phi_end``."""
    if not (math.isfinite(phi_start) and math.isfinite(phi_end)):
        raise ParameterError("phi_start and phi_end must be finite")
    if phi_end <= phi_start:
        raise ParameterError(f"phi_end must exceed phi_start, got [{phi_start}, {phi_end}]")
    if not math.isfinite(phi_end - phi_start):
        raise ParameterError(f"phi_end - phi_start overflows, got [{phi_start}, {phi_end}]")
    if points < 2:
        raise ParameterError(f"the phase grid needs at least 2 points, got {points}")
    step = (phi_end - phi_start) / (points - 1)
    return [phi_start + i * step for i in range(points)]


def _texts(columns: list[np.ndarray | None], n: int, number, nonfinite, missing: str) -> list[str]:
    """One field of a sweep's ``n`` phases in row order: phase-major, then one
    entry per strategy column (``missing`` where a column is None).  ``number``
    maps the field's distinct bit patterns in C, so each is formatted once and
    0.0 and -0.0 stay apart; ``nonfinite`` then gives each inf or nan its text."""
    present = [j for j, column in enumerate(columns) if column is not None]
    index = np.zeros((n, len(columns)), dtype=np.intp)
    texts = [missing]
    if present:
        values = np.column_stack([columns[j] for j in present])
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        floats = distinct.view(np.float64)
        texts += map(number, floats.tolist())
        for i in np.flatnonzero(~np.isfinite(floats)).tolist():
            texts[i + 1] = nonfinite(floats[i])
        index[:, present] = inverse.reshape(values.shape) + 1
    return np.array(texts, dtype=object)[index].ravel().tolist()


def _rows(grids: list[SensitivityResult], number, nonfinite, missing: str):
    """The rows of a sweep in grid order, each phase followed by every
    strategy: tuples of the texts of the phase, the strategy name, dphi,
    dphi_normalized and k_opt (``missing`` where a strategy applies no
    weight), each number through :func:`_texts`."""
    if not grids:
        raise ParameterError("a sweep to render needs at least one strategy grid")
    if not all(isinstance(grid.phi, np.ndarray) for grid in grids):
        raise ParameterError("a sweep to render needs results over a phase grid, not at one phase")
    phi = grids[0].phi.view(np.int64)
    for grid in grids[1:]:
        if not np.array_equal(grid.phi.view(np.int64), phi):
            raise ParameterError(
                f"every grid of a sweep must share one phase grid; the "
                f"{grid.strategy.kind.value} grid's phases differ from the first grid's"
            )
    n = len(phi)
    return zip(
        _texts([grid.phi for grid in grids], n, number, nonfinite, missing),
        [grid.strategy.kind.value for grid in grids] * n,
        _texts([grid.dphi for grid in grids], n, number, nonfinite, missing),
        _texts([grid.normalized for grid in grids], n, number, nonfinite, missing),
        _texts([grid.k_opt for grid in grids], n, number, nonfinite, missing),
    )


def render_csv(grids: list[SensitivityResult]) -> str:
    # inf for either sign; nan stays nan
    rows = _rows(grids, "%.12g".__mod__, lambda x: "inf" if math.isinf(x) else "nan", "")
    return "\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n"


# one row of json.dumps(rows, indent=2)
_JSON_ROW = """  {
    "phi": %s,
    "strategy": "%s",
    "dphi": %s,
    "dphi_normalized": %s,
    "k_opt": %s
  }"""


def render_json(grids: list[SensitivityResult]) -> str:
    # what json.dumps writes for a float, with the string "inf" for every
    # non-finite value; json.dumps writes an empty list on one line
    body = ",\n".join(map(_JSON_ROW.__mod__, _rows(grids, repr, lambda x: '"inf"', "null")))
    return f"[\n{body}\n]\n" if body else "[]\n"


def _one_of(keys: list[str], source: str) -> None:
    if len(keys) > 1:
        raise click.UsageError(f"{source}: give only one of {' / '.join(keys)}")


def _over(lower: dict, upper: dict) -> dict:
    """``lower`` overridden key by key by ``upper``, whose keys also displace
    their siblings."""
    merged = {k: v for k, v in lower.items() if _SIBLING.get(k) not in upper}
    merged.update(upper)
    return merged


def _config_keys() -> dict[str, list[click.Option]]:
    """Config key -> the options that declare it, over every command: each
    option's name and its long flags, lowercased with '-' as '_' (so 'a' as
    well as 'a_factor'), are keys of that option."""
    keys: dict[str, list[click.Option]] = {}
    for command in main.commands.values():
        for opt in command.params:
            if isinstance(opt, click.Option) and not opt.is_flag and opt.name not in _NOT_IN_CONFIG:
                flags = (opt.name, *(o for o in opt.opts if o.startswith("--")))
                for key in dict.fromkeys(f.lstrip("-").lower().replace("-", "_") for f in flags):
                    keys.setdefault(key, []).append(opt)
    return keys


def _read_config(ctx: click.Context, path: str) -> dict:
    """Parse a ``key = value`` config file ('#' starts a comment) into raw
    values keyed by option name; an option repeatable on any command takes a
    comma list."""
    keys = _config_keys()
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in keys:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        options, text = keys[key], text.strip()
        name = options[0].name
        if any(opt.multiple for opt in options):
            values[name] = [v.strip() for v in text.split(",") if v.strip()]
        else:
            values[name] = text
    for pair in _SIBLINGS:
        _one_of([k for k in pair if k in values], path)
    own = {p.name for p in ctx.command.params}
    for name, value in values.items():
        if name not in own:
            _check_elsewhere(ctx, keys[name], value)
    return values


def _check_elsewhere(ctx: click.Context, options: list[click.Option], value) -> None:
    """A config value for an option the running command lacks never reaches
    click, so convert it with the options that declare it on other commands;
    it must be valid for at least one of them ('format' has other choices on
    'sweep' than on 'report')."""
    errors = []
    for opt in options:
        try:
            opt.type_cast_value(ctx, value)
            return
        except click.BadParameter as exc:
            errors.append(exc)
    raise errors[0]


def _preset_layer(ctx: click.Context, param: click.Parameter, name: str | None) -> None:
    # eager: runs before any option reads ctx.default_map; a preset goes under
    # a config file whichever comes first on the command line
    if name is not None:
        ctx.default_map = _over(PRESETS[name], ctx.default_map or {})


def _config_layer(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    if path is not None:
        ctx.default_map = _over(ctx.default_map or {}, _read_config(ctx, path))


def _params_from(ctx: click.Context, values: dict) -> InterferometerParams:
    """The parameter set from the parameter options' merged values; a flag on
    the command line displaces its sibling from the preset or config file."""
    for pair in _SIBLINGS:
        flags = [k for k in pair if ctx.get_parameter_source(k) is ParameterSource.COMMANDLINE]
        _one_of(flags, "command line")
        if flags:
            values[_SIBLING[flags[0]]] = None
    try:
        for r in ("r1", "r2"):
            if values[f"{r}_db"] is not None:
                values[r] = db_to_squeeze_factor(values[f"{r}_db"])
        kwargs = {
            f.name: values[f.name]
            for f in fields(InterferometerParams)
            if values[f.name] is not None
        }
        if values["a_factor"] is not None:
            return InterferometerParams.with_technical_noise(values["a_factor"], **kwargs)
        return InterferometerParams(**kwargs)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
        return
    path = Path(output)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _param_options(f):
    options = [
        click.option("--preset", type=click.Choice(sorted(PRESETS)), is_eager=True,
                     expose_value=False, callback=_preset_layer,
                     help="Start from a named parameter set."),
        click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     is_eager=True, expose_value=False, callback=_config_layer,
                     help="key = value file; flags override it."),
        click.option("--r1-db", type=float, help="Input squeezing in dB (10 log10 e^{2 r1})."),
        click.option("--r1", type=float, help="Input squeeze factor r1 (raw)."),
        click.option("--r2-db", type=float, help="Output amplifier gain in dB."),
        click.option("--r2", type=float, help="Output amplifier gain r2 (raw)."),
        click.option("--mu", type=float, help="Internal power transmissivity, (0, 1]."),
        click.option("--eta", type=float, help="External transmissivity, (0, 1]."),
        click.option("--n-photons", type=float, help="Mean photon number N of the bright input."),
        click.option("--g2", type=float, help="Degree of second-order coherence of the laser."),
        click.option("--A", "a_factor", type=float,
                     help="Excess-noise factor A = N(g2 - 1) + 1 (alternative to --g2)."),
    ]
    for opt in reversed(options):
        f = opt(f)
    return f


@click.group()
@click.version_option(version=__version__, prog_name="sqzmzi")
def main() -> None:
    """Phase sensitivity of a squeezing-assisted Mach-Zehnder interferometer."""


@main.command(name="sweep")
@_param_options
@click.option("--phi-start", type=float, default=0.0, show_default=True,
              help="First phase of the grid (rad).")
@click.option("--phi-end", type=float, default=2.0 * math.pi, show_default="2 pi",
              help="Last phase of the grid (rad).")
@click.option("--points", type=int, default=721, show_default=True, help="Grid size.")
@click.option("--strategy", multiple=True, type=click.Choice([k.value for k in StrategyKind]),
              default=DEFAULT_STRATEGIES, show_default=True,
              help="Strategy to evaluate (repeatable).")
@click.option("--phi-apr", type=float, help="A-priori phase for the suboptimal strategy (rad).")
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help=f"Output file (relative paths resolve under ${OUTPUT_DIR_ENV}).")
@click.pass_context
def sweep_cmd(ctx, phi_start, phi_end, points, strategy, phi_apr, format, output, **values):
    """Tabulate phase uncertainty over a phase grid."""
    params = _params_from(ctx, values)
    if not strategy:
        raise click.UsageError("at least one strategy is required")
    if "suboptimal" in strategy and phi_apr is None:
        raise click.UsageError("the suboptimal strategy needs --phi-apr")
    try:
        strategies = tuple(
            Strategy(StrategyKind(name), phi_apr if name == "suboptimal" else None)
            for name in strategy
        )
        grids = sweep(params, _grid(phi_start, phi_end, points), strategies)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc
    _write_output(render_csv(grids) if format == "csv" else render_json(grids), output)


@main.command(name="report")
@_param_options
@click.option("--implied-gain-db", type=float, default=None,
              help="Also solve for the eps^2 implied by this measured gain.")
@click.option("--format", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def report_cmd(ctx, implied_gain_db, format, output, **values):
    """Summarize the design quantities of one parameter set."""
    params = _params_from(ctx, values)
    try:
        floor = dphi_min(params)
        shot = snl(params.n_photons)
        gain_db = -20.0 * math.log10(floor / shot)
        quantities = {
            "r1": params.r1,
            "r1_db": squeeze_factor_to_db(params.r1),
            "r2": params.r2,
            "r2_db": squeeze_factor_to_db(params.r2),
            "mu": params.mu,
            "eta": params.eta,
            "n_photons": params.n_photons,
            "g2": params.g2,
            "technical_noise_factor": technical_noise_factor(params),
            "eps2": inefficiency(params),
            "dphi_snl": shot,
            "dphi_min": floor,
            "dphi_min_normalized": floor / shot,
            "sensitivity_gain_db": gain_db,
            "k_factor": k_factor(params),
            "fwhm_single": fwhm(Strategy.single(), params),
            "fwhm_single_approx": fwhm_approx(Strategy.single(), params),
            "fwhm_differential": fwhm(Strategy.differential(), params),
            "fwhm_differential_approx": fwhm_approx(Strategy.differential(), params),
            "apriori_tolerance": apriori_tolerance(params),
        }
        if implied_gain_db is not None:
            quantities["implied_eps2"] = implied_inefficiency(params.r1, implied_gain_db)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc
    if format == "json":
        text = json.dumps(quantities, indent=2) + "\n"
    else:
        q = quantities
        lines = [
            "interferometer parameters",
            f"  input squeezing r1        {q['r1']:.6f}  ({q['r1_db']:.3f} dB, variance convention 10 log10 e^(2 r1))",
            f"  output amplifier r2       {q['r2']:.6f}  ({q['r2_db']:.3f} dB, variance convention 10 log10 e^(2 r2))",
            f"  internal transmissivity   {q['mu']:.6g}",
            f"  external transmissivity   {q['eta']:.6g}",
            f"  photon number N           {q['n_photons']:.6g}",
            f"  g2                        {q['g2']:.12g}",
            f"  excess noise factor A     {q['technical_noise_factor']:.6g}",
            "derived sensitivity figures",
            f"  inefficiency eps^2        {q['eps2']:.6g}",
            f"  dphi_snl                  {q['dphi_snl']:.6e} rad  (shot-noise limit)",
            f"  dphi_min                  {q['dphi_min']:.6e} rad",
            f"  dphi_min / dphi_snl       {q['dphi_min_normalized']:.6f}",
            f"  sensitivity gain          {q['sensitivity_gain_db']:.3f} dB  (amplitude convention, -20 log10(dphi_min/dphi_snl))",
            f"  deterioration factor K    {q['k_factor']:.6e} rad^2",
            f"  FWHM single               {q['fwhm_single']:.6f} rad  (1 lobe per 2 pi; approx {q['fwhm_single_approx']:.6f})",
            f"  FWHM differential         {q['fwhm_differential']:.6f} rad  (2 lobes per 2 pi; approx {q['fwhm_differential_approx']:.6f})",
            f"  a-priori phase tolerance  {q['apriori_tolerance']:.6f} rad",
        ]
        if "implied_eps2" in quantities:
            lines.append(
                f"  implied eps^2             {q['implied_eps2']:.6g}  (from a measured gain of {implied_gain_db:g} dB)"
            )
        text = "\n".join(lines) + "\n"
    _write_output(text, output)


@main.command(name="validate")
@_param_options
@click.option("--phi-start", type=float, default=0.0, show_default=True)
@click.option("--phi-end", type=float, default=2.0 * math.pi, show_default="2 pi")
@click.option("--points", type=int, default=12, show_default=True)
@click.option("--oracle-samples", type=int, default=100_000, show_default=True,
              help="Monte-Carlo samples per grid point.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["linearized", "exact"]), default="linearized",
              show_default=True, help="Detection model used by the oracle.")
@click.option("--z-threshold", type=float, default=5.0, show_default=True,
              help="Maximum tolerated |z| per moment.")
@click.pass_context
def validate_cmd(ctx, phi_start, phi_end, points, oracle_samples, seed, mode,
                 z_threshold, **values):
    """Check the closed-form moments against the Monte-Carlo oracle."""
    params = _params_from(ctx, values)
    try:
        phis = _grid(phi_start, phi_end, points)
        config = OracleConfig(
            n_samples=oracle_samples,
            seed=seed,
            linearized_mode=(mode == "linearized"),
        )
        if not (math.isfinite(z_threshold) and z_threshold > 0.0):
            raise ParameterError(f"z threshold must be > 0, got {_shown(z_threshold)}")
        reports = oracle_mod.run(params, phis, config)
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(f"oracle validation, {mode} mode, {oracle_samples} samples per point")
    click.echo(f"{'phi':>12}  {'max |z|':>10}  worst moment")
    for report in reports:
        moment, abs_z = report.worst_moment()
        click.echo(f"{report.phi:12.6f}  {abs_z:10.3f}  {moment or ''}")
    click.echo("per-moment max |z| over the grid:")
    worst = oracle_mod.max_abs_z_per_moment(reports)
    for name in sorted(worst):
        click.echo(f"  {name:12s} {worst[name]:10.3f}")
    if oracle_mod.within(worst.values(), z_threshold):
        click.echo(f"PASS: all moments within |z| <= {z_threshold:g}")
    else:
        click.echo(f"FAIL: some moment exceeds |z| = {z_threshold:g}")
        ctx.exit(1)


if __name__ == "__main__":
    main()
