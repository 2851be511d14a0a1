"""Command-line scenario runner emitting machine-readable CSV tables.

Every subcommand writes one table per file: a strict-JSON metadata line after
`# ` (the full resolved configuration, so any table is reproducible from its
own header; non-finite values are the strings "inf", "-inf" and "nan")
followed by a CSV header and rows formatted with 17 significant digits.
Exit codes: 0 success, 1 configuration error, 2 validation FAIL in `compare`.
`run` is the one place where input errors become exit code 1: any ValueError,
from argparse, the flag checks here or an input check in the library, prints
one `configuration error: <message>` line to stderr.  Every other exception is
a program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from ._table import format_rows
from .analytic import (
    NoLongtimeSolution,
    Xi0Diverges,
    dressed_params,
    excitation_curve,
    excitation_probability_exact,
    excitation_probability_longtime,
    excitation_probability_markovian,
    solve_longtime,
)
from .core import Direction, SystemParams
from .trajectory import TrajectoryConfig, ensemble_average
# `spectrum` is unused here; the benchmark's tracer (bench/spans.py) rebinds it in this module.
from .wavepacket import (  # noqa: F401
    _peak_normalized, _whole_photon_spectrum, spatial_profile, spectrum,
)


# argparse reads an argument as a negative number, not a flag, only in the
# forms -12 and -1.5; this also takes -1e-3, -inf and -nan
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse defaults to exit code 2
        raise ValueError(message)


def _json_safe(obj):
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf", "-inf" or "nan": strict JSON has no such numbers
    if isinstance(obj, complex):
        return {"re": _json_safe(obj.real), "im": _json_safe(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_table(out, metadata: dict, header: list[str], columns: list[np.ndarray]) -> None:
    text = "# " + json.dumps(_json_safe(metadata), sort_keys=True, allow_nan=False) + "\n"
    text += ",".join(header) + "\n"
    text += format_rows([np.asarray(col, dtype=float) for col in np.broadcast_arrays(*columns)])
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _params_from_args(args) -> SystemParams:
    r_m = args.rm * np.exp(1j * args.rm_phase)
    if args.phase is not None:
        return SystemParams.from_round_trip_phase(tau=args.tau, phase=args.phase, r_m=r_m)
    return SystemParams(omega_e=args.omega_e, tau=args.tau, r_m=r_m)


def _meta(args, params: SystemParams | None = None, **fields) -> dict:
    """Table header: the subcommand, the version, the system if given, and `fields`."""
    meta = {"scenario": args.command, "version": __version__, **fields}
    if params is not None:
        meta["params"] = {**asdict(params), "round_trip_phase": params.round_trip_phase}
    return meta


def _check_bounds(lo: float, hi: float, flags: str) -> None:
    # np.linspace over an infinite bound or span writes inf and nan with warnings;
    # hi - lo is finite only when both bounds and their span are
    if not math.isfinite(hi - lo):
        raise ValueError(f"{flags} must be finite with a finite span, got [{lo}, {hi}]")


def _time_grid(args) -> np.ndarray:
    if not 0 < args.tmax < math.inf:
        raise ValueError(f"--tmax must be positive and finite, got {args.tmax}")
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2 points, got {args.grid}")
    return np.linspace(0.0, args.tmax, args.grid)


def run_excitation(args) -> int:
    """Exact, long-time (when it exists), and Markovian excitation curves."""
    params = _params_from_args(args)
    times = _time_grid(args)
    curve = excitation_curve(params, times)
    meta = _meta(args, params, grid={"tmax": args.tmax, "points": args.grid})
    header = ["t", "P_exact"]
    columns = [times, curve.probabilities]
    try:
        constants = solve_longtime(params)
        header.append("P_longtime")
        columns.append(excitation_probability_longtime(params, times))
        meta["longtime"] = {
            "xi": constants.xi,
            "xi0": constants.xi0,
            "gamma_eff": params.gamma - 2.0 * constants.xi.real,
        }
    except (NoLongtimeSolution, Xi0Diverges) as err:
        meta["longtime"] = {"unavailable": f"{type(err).__name__}: {err}"}
    try:
        columns.append(excitation_probability_markovian(params, times))
        header.append("P_markovian")
    except ValueError as err:
        meta["markovian"] = {"unavailable": f"{type(err).__name__}: {err}"}
    _write_table(args.out, meta, header, columns)
    return 0


def run_markovian(args) -> int:
    """Markovian excitation curve with the dressed parameters in the metadata."""
    params = _params_from_args(args)
    times = _time_grid(args)
    meta = _meta(args, params, grid={"tmax": args.tmax, "points": args.grid},
                 dressed=asdict(dressed_params(params)))
    _write_table(args.out, meta, ["t", "P_markovian"],
                 [times, excitation_probability_markovian(params, times)])
    return 0


def run_dressed(args) -> int:
    """Dressed frequency shift and decay rate swept over the round-trip phase."""
    if args.phase_points < 2:
        raise ValueError(f"--phase-points must be at least 2, got {args.phase_points}")
    _check_bounds(args.phase_min, args.phase_max, "--phase-min/--phase-max")
    if args.phase_min < 0:
        raise ValueError(f"--phase-min must be non-negative, got {args.phase_min}")
    phases = np.linspace(args.phase_min, args.phase_max, args.phase_points)
    if not np.all(np.diff(phases) > 0):
        raise ValueError("phase grid must be strictly increasing")
    r_m = args.rm * np.exp(1j * args.rm_phase)
    deltas, gammas = [], []
    for phase in phases:
        dressed = dressed_params(SystemParams(omega_e=float(phase), tau=1.0, r_m=r_m))
        deltas.append(dressed.delta_eff)
        gammas.append(dressed.gamma_eff)
    grid = {"phase_min": args.phase_min, "phase_max": args.phase_max, "points": args.phase_points}
    _write_table(args.out, _meta(args, r_m=r_m, grid=grid), ["phase", "delta_eff", "gamma_eff"],
                 [phases, np.array(deltas), np.array(gammas)])
    return 0


def run_wavepacket(args) -> int:
    """Spatial photon density snapshots at the requested times."""
    params = _params_from_args(args)
    try:
        snapshot_times = sorted(float(v) for v in args.times.split(","))
    except ValueError:
        raise ValueError(f"--times must be a comma list of floats, got {args.times!r}") from None
    if not snapshot_times or not all(0 < v < math.inf for v in snapshot_times):
        raise ValueError("snapshot times must be positive and finite")
    labels = [f"density_t{t_snap:g}" for t_snap in snapshot_times]
    if len(set(labels)) < len(labels):
        raise ValueError(f"snapshot times must have distinct column names, got {labels}")
    if args.xpoints < 2:
        raise ValueError(f"--xpoints must be at least 2, got {args.xpoints}")
    xmin = args.xmin if args.xmin is not None else -(snapshot_times[-1] + 1.0)
    _check_bounds(xmin, args.xmax, "--xmin/--xmax")
    if not xmin < args.xmax:
        raise ValueError(f"--xmin must be below --xmax, got [{xmin}, {args.xmax}]")
    positions = np.linspace(xmin, args.xmax, args.xpoints)
    columns = [positions]
    for t_snap in snapshot_times:
        density = spatial_profile(params, t_snap, positions, Direction.LEFT).density
        columns.append(_peak_normalized(density) if args.peak_normalize else density)
    meta = _meta(args, params, grid={"xmin": xmin, "xmax": args.xmax, "points": args.xpoints},
                 times=snapshot_times, direction="left", peak_normalize=bool(args.peak_normalize))
    _write_table(args.out, meta, ["x", *labels], columns)
    return 0


def run_spectrum(args) -> int:
    """Spectral probability density of the photon emitted to the left.

    The closed form of the whole photon where the emitter decays, the FFT of
    the finite window elsewhere; the header names which under "method".
    """
    params = _params_from_args(args)
    frequencies, density, method = _whole_photon_spectrum(
        params, args.t_final, args.samples, args.allow_undecayed)
    grid = {"t_final": args.t_final, "sample_count": args.samples,
            "spacing": args.t_final / args.samples}
    meta = _meta(args, params, grid=grid, method=method)
    _write_table(args.out, meta, ["omega", "spectral_density"], [frequencies, density])
    return 0


def _ensemble(args):
    """The system, its trajectory ensemble average, and the header with the
    ensemble settings under "trajectory"."""
    params = _params_from_args(args)
    settings = {"boxes": args.boxes, "n_trajectories": args.trajectories,
                "t_max": args.tmax, "master_seed": args.seed}
    result = ensemble_average(TrajectoryConfig(params, **settings))
    return params, result, _meta(args, params, trajectory=settings)


def run_trajectory_scenario(args) -> int:
    """Ensemble-averaged quantum-trajectory excitation probability."""
    _, result, meta = _ensemble(args)
    _write_table(args.out, meta, ["t", "P_trajectory_mean", "stderr"],
                 [result.times, result.mean, result.stderr])
    return 0


def run_compare(args) -> int:
    """Exact solution vs trajectory ensemble on the same grid; PASS/FAIL summary."""
    if not args.tolerance >= 0:
        raise ValueError(f"--tolerance must be a non-negative number, got {args.tolerance}")
    params, result, meta = _ensemble(args)
    exact = excitation_probability_exact(params, result.times)
    deviation = float(np.max(np.abs(result.mean - exact)))
    passed = deviation <= args.tolerance
    meta["summary"] = {
        "max_abs_deviation": deviation,
        # the box model's own error against the exact curve, and the
        # Monte Carlo error against the box model's infinite ensemble
        "discretization_error": float(np.max(np.abs(result.limit - exact))),
        "sampling_error": float(np.max(np.abs(result.mean - result.limit))),
        "tolerance": args.tolerance,
        "result": "PASS" if passed else "FAIL",
    }
    _write_table(args.out, meta, ["t", "P_exact", "P_trajectory_mean", "stderr"],
                 [result.times, exact, result.mean, result.stderr])
    print(f"{'PASS' if passed else 'FAIL'}: max |P_trajectory - P_exact| = "
          f"{deviation:.6f} (tolerance {args.tolerance})")
    return 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mirrorqed",
        description="Emitter-in-front-of-a-mirror dynamics, wave packets, and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # parent parsers: flags shared by several subcommands
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--tau", type=float, required=True, help="round-trip time (1/Gamma)")
    group = system.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega-e", type=float, help="transition frequency (Gamma)")
    group.add_argument("--phase", type=float, help="round-trip phase omega_e * tau")
    system.add_argument("--rm", type=float, required=True, help="mirror reflection coefficient")
    system.add_argument(
        "--rm-phase", type=float, default=0.0, help="extra phase turning rm complex"
    )
    system.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--tmax", type=float, default=10.0)
    curve.add_argument("--grid", type=int, default=2001)
    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--tmax", type=float, default=10.0)
    ensemble.add_argument("--boxes", type=int, default=25)
    ensemble.add_argument("--trajectories", type=int, default=5000)
    ensemble.add_argument("--seed", type=int, default=0)

    p_exc = sub.add_parser(
        "excitation", parents=[system, curve], help="exact / long-time / Markovian P_e(t)"
    )
    p_exc.set_defaults(func=run_excitation)

    p_mar = sub.add_parser(
        "markovian", parents=[system, curve], help="Markovian P_e(t) and dressed parameters"
    )
    p_mar.set_defaults(func=run_markovian)

    p_dre = sub.add_parser("dressed", help="dressed shift/rate vs round-trip phase")
    p_dre.add_argument("--rm", type=float, required=True)
    p_dre.add_argument("--rm-phase", type=float, default=0.0)
    p_dre.add_argument("--phase-min", type=float, default=0.0)
    p_dre.add_argument("--phase-max", type=float, default=4.0 * np.pi)
    p_dre.add_argument("--phase-points", type=int, default=401)
    p_dre.add_argument("--out", type=str, default=None)
    p_dre.set_defaults(func=run_dressed)

    p_wav = sub.add_parser(
        "wavepacket", parents=[system], help="spatial photon density snapshots"
    )
    p_wav.add_argument("--times", type=str, default="2,5,10", help="comma list of snapshot times")
    p_wav.add_argument("--xmin", type=float, default=None)
    p_wav.add_argument("--xmax", type=float, default=0.0)
    p_wav.add_argument("--xpoints", type=int, default=4001)
    p_wav.add_argument("--peak-normalize", action="store_true")
    p_wav.set_defaults(func=run_wavepacket)

    p_spe = sub.add_parser(
        "spectrum", parents=[system], help="spectral density of the emitted photon"
    )
    p_spe.add_argument("--t-final", type=float, default=40.0)
    p_spe.add_argument("--samples", type=int, default=2**14)
    p_spe.add_argument("--allow-undecayed", action="store_true")
    p_spe.set_defaults(func=run_spectrum)

    p_tra = sub.add_parser(
        "trajectory", parents=[system, ensemble], help="quantum-trajectory ensemble average"
    )
    p_tra.set_defaults(func=run_trajectory_scenario)

    p_cmp = sub.add_parser(
        "compare", parents=[system, ensemble], help="trajectory ensemble vs exact solution"
    )
    p_cmp.add_argument("--tolerance", type=float, default=0.03)
    p_cmp.set_defaults(func=run_compare)

    return parser


# run parses with one parser per process: building the tree takes ~2 ms
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    """Parse argv, run the subcommand and return its exit code (see the module docstring)."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
