"""Command line interface.

Three subcommands cover the full workflow:

* ``stiffid simulate``   writes synthetic cantilever experiments
  (manifest plus one field CSV per canonical load) for a chosen noise
  level and seed.
* ``stiffid identify``   runs the identification pipeline over a
  manifest of experiments and writes the compliance matrix, the
  significance report and a run log.
* ``stiffid benchmark``  runs one of the validation studies (amplitude,
  noise, zero-detection) and checks its acceptance bands.

Exit codes: 0 success, 2 input/parse error (a bad option value, manifest
or field file), 3 numerical failure, 4 benchmark outside its acceptance
band.  Errors are reported as one JSON object on stderr.  The STIFFID_LOG
environment variable (debug, info, warning, error) controls diagnostic
verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compliance import Wrench, save_compliance_json
from .errors import (
    FieldFileError,
    InvalidArgument,
    ManifestError,
    StiffidError,
)
from .estimation import AngleExtractionMethod
from .field import (
    DisplacementField,
    SensorRegion,
    center_field,
    read_field_csv,
    select_sensor,
    write_field_csv,
)
from .pipeline import IdentifyOptions, LoadCase, run_identification
from .synthetic import (
    DEFAULT_LOADS,
    BeamSpec,
    MeshPattern,
    beam_tip_field,
    run_amplitude_study,
    run_noise_study,
    run_zero_detection_study,
)

log = logging.getLogger("stiffid")

LENGTH_UNITS = {"mm": 1.0, "m": 1000.0}
FORCE_UNITS = {"N": 1.0}
TORQUE_UNITS = {
    "N·mm": 1.0, "N*mm": 1.0, "Nmm": 1.0, "N mm": 1.0,
    "N·m": 1000.0, "N*m": 1000.0, "Nm": 1000.0, "N m": 1000.0,
}

# Reference bands for the amplitude benchmark: max angle error in deg at
# each amplitude, accepted within a factor of two.
AMPLITUDE_BENCH_DEG = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
AMPLITUDE_REF_AVERAGED = (9e-7, 2e-5, 9e-5, 2e-3, 9e-3, 0.24)
AMPLITUDE_REF_PLUS = (2e-6, 4e-5, 2e-4, 4e-3, 2e-2, 0.48)

_EXPERIMENT_NAMES = ("fx", "fy", "fz", "mx", "my", "mz")


def _unit_scale(table: dict, unit, what: str, manifest: str) -> float:
    if not isinstance(unit, str) or unit not in table:
        allowed = ", ".join(sorted(table))
        raise ManifestError(manifest,
                            f"{what} unit must be one of: {allowed}; got {unit!r}")
    return table[unit]


def _vector3(value, what: str, manifest: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float).reshape(3)
    except (TypeError, ValueError):
        raise ManifestError(manifest, f"{what} must be a 3-vector") from None
    if not np.all(np.isfinite(arr)):
        raise ManifestError(manifest, f"{what} must be finite")
    return arr


def _parse_sensor(data, manifest: str) -> SensorRegion | None:
    if data is None:
        return None
    if not isinstance(data, dict) or "shape" not in data:
        raise ManifestError(manifest, "sensor must be an object with a 'shape'")
    shape = data["shape"]
    try:
        if shape == "cube":
            return SensorRegion.cube(float(data["edge"]),
                                     data.get("center", (0.0, 0.0, 0.0)))
        if shape == "square":
            return SensorRegion.square(float(data["edge"]), data["axis"],
                                       data.get("center", (0.0, 0.0, 0.0)))
        if shape == "layer":
            return SensorRegion.layer(data["axis"], float(data["coordinate"]),
                                      float(data["thickness"]))
        if shape == "sphere":
            return SensorRegion.sphere(float(data["radius"]),
                                       data.get("center", (0.0, 0.0, 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(manifest, f"bad {shape} sensor: {exc}") from None
    raise ManifestError(manifest, f"unknown sensor shape {shape!r}")


def _parse_wrench(data, manifest: str) -> Wrench:
    if not isinstance(data, dict):
        raise ManifestError(manifest, "wrench must be an object")
    for key in ("force", "torque", "force_unit", "torque_unit"):
        if key not in data:
            raise ManifestError(manifest, f"wrench is missing '{key}'")
    fscale = _unit_scale(FORCE_UNITS, data["force_unit"], "force", manifest)
    tscale = _unit_scale(TORQUE_UNITS, data["torque_unit"], "torque", manifest)
    force = _vector3(data["force"], "wrench force", manifest) * fscale
    torque = _vector3(data["torque"], "wrench torque", manifest) * tscale
    try:
        return Wrench(force, torque)
    except ValueError as exc:
        raise ManifestError(manifest, str(exc)) from None


def load_manifest(path) -> tuple[list[LoadCase], dict]:
    """Parse a manifest file into centered, sensor-restricted load cases."""
    manifest = str(path)
    try:
        with open(manifest, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ManifestError(manifest, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(manifest, f"line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(manifest, f"not UTF-8 text: {exc.reason}") from None
    if not isinstance(data, dict):
        raise ManifestError(manifest, "top level must be an object")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ManifestError(manifest, "options must be an object")
    units = data.get("units")
    if not isinstance(units, dict) or "length" not in units:
        raise ManifestError(manifest, "missing units.length tag")
    lscale = _unit_scale(LENGTH_UNITS, units["length"], "length", manifest)
    if "reference_point" not in data:
        raise ManifestError(manifest, "missing reference_point")
    reference = _vector3(data["reference_point"], "reference_point", manifest)
    experiments = data.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise ManifestError(manifest, "missing experiments list")

    base = Path(manifest).parent
    cases = []
    for i, entry in enumerate(experiments):
        if not isinstance(entry, dict) or not isinstance(entry.get("field_file"), str) \
                or "wrench" not in entry:
            raise ManifestError(manifest,
                                f"experiment {i}: needs a field_file string and a wrench")
        wrench = _parse_wrench(entry["wrench"], manifest)
        sensor = _parse_sensor(entry.get("sensor"), manifest)
        file_path = base / entry["field_file"]
        field = read_field_csv(file_path, reference, lscale)
        field = center_field(field)
        if sensor is not None:
            field = select_sensor(field, sensor)
        cases.append(LoadCase(field, wrench, entry["field_file"]))
    return cases, options


def _options_from(manifest_options: dict, args) -> IdentifyOptions:
    opts = dict(manifest_options)
    if args.estimator is not None:
        opts["estimator"] = args.estimator
    if args.angles is not None:
        opts["angles"] = args.angles
    if args.outlier_fraction is not None:
        opts["outlier_fraction"] = args.outlier_fraction
    if args.confidence_multiplier is not None:
        opts["confidence_multiplier"] = args.confidence_multiplier
    if args.no_symmetrize:
        opts["symmetrize"] = False
    try:
        return IdentifyOptions(**opts)
    except (TypeError, ValueError) as exc:
        raise ManifestError(args.manifest, f"bad option: {exc}") from None


def _write_json(path: Path, payload: dict, indent: int | None = 2) -> None:
    # json.dumps, not json.dump: only a one-shot dump without indent runs
    # the C encoder, which the run log's removed-node lists need.
    text = json.dumps(payload, indent=indent, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_identify(args) -> int:
    cases, manifest_options = load_manifest(args.manifest)
    options = _options_from(manifest_options, args)
    result = run_identification(cases, options)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_compliance_json(out / "compliance.json", result.matrix)
    with open(out / "compliance.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(result.matrix.format_table() + "\n")
    if result.significance is not None:
        _write_json(out / "significance.json", result.significance.to_json_dict())
    run_log = result.diagnostics()
    run_log["stiffid_version"] = __version__
    run_log["manifest_sha256"] = _sha256(args.manifest)
    base = Path(args.manifest).parent
    for entry in run_log["experiments"]:
        entry["field_sha256"] = _sha256(base / entry["field_file"])
    _write_json(out / "run_log.json", run_log, indent=None)

    if args.format == "json":
        print(json.dumps(result.matrix.to_json_dict(), indent=2, sort_keys=True))
    elif args.format == "csv":
        for row in result.matrix.k:
            print(",".join(repr(float(v)) for v in row))
    else:
        print(result.matrix.format_table())
    log.info("wrote results to %s", out)
    return 0


def _simulate_pattern(args) -> MeshPattern:
    if args.pattern == "cubic":
        return MeshPattern.cubic(args.edge, args.step)
    return MeshPattern.square(args.edge, args.step, args.axis)


def cmd_simulate(args) -> int:
    spec = BeamSpec(args.length, args.section, args.youngs, args.poisson)
    pattern = _simulate_pattern(args)
    loads = (args.fx, args.fy, args.fz, args.mx, args.my, args.mz)
    from .compliance import canonical_wrench_scheme

    wrenches = canonical_wrench_scheme(*loads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reference = [spec.length, 0.0, 0.0]

    entries = []
    for j, wrench in enumerate(wrenches):
        name = f"field_{_EXPERIMENT_NAMES[j]}.csv"
        field = beam_tip_field(spec, wrench, pattern,
                               sigma=args.sigma, seed=args.seed + j)
        write_field_csv(out / name, field, comments=(
            "synthetic cantilever experiment " + _EXPERIMENT_NAMES[j],
            f"sigma={args.sigma!r} mm, seed={args.seed + j}",
        ))
        sensor = {"shape": "cube", "edge": args.edge, "center": [0.0, 0.0, 0.0]}
        if pattern.kind == "square":
            sensor = {"shape": "square", "edge": args.edge, "axis": args.axis,
                      "center": [0.0, 0.0, 0.0]}
        entries.append({
            "field_file": name,
            "wrench": {
                "force": [float(v) for v in wrench.force],
                "force_unit": "N",
                "torque": [float(v) for v in wrench.torque],
                "torque_unit": "N·mm",
            },
            "sensor": sensor,
        })
    manifest = {
        "units": {"length": "mm", "force": "N", "torque": "N·mm"},
        "reference_point": reference,
        "experiments": entries,
        "options": {"estimator": "lin", "angles": "avg",
                    "outlier_fraction": 0.1, "confidence_multiplier": 3.0,
                    "symmetrize": True},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote manifest and {len(entries)} field files to {out}")
    return 0


def _benchmark_amplitude(args, out: Path) -> int:
    study = run_amplitude_study(AMPLITUDE_BENCH_DEG, trials=1, seed=args.seed)
    study.write_csv(out / "amplitude_study.csv")
    checks = []
    ok = True
    for method, reference in (("lin", AMPLITUDE_REF_AVERAGED),
                              ("svd-avg", AMPLITUDE_REF_AVERAGED),
                              ("svd-plus", AMPLITUDE_REF_PLUS)):
        for amp, ref, got in zip(AMPLITUDE_BENCH_DEG, reference,
                                 study.max_errors[method]):
            inside = bool(ref / 2.0 <= got <= ref * 2.0)
            ok &= inside
            checks.append({"method": method, "amplitude_deg": amp,
                           "reference": ref, "measured": float(got),
                           "pass": inside})
    for i, amp in enumerate(AMPLITUDE_BENCH_DEG):
        ordered = bool(study.max_errors["svd-avg"][i]
                       <= study.max_errors["svd-plus"][i])
        ok &= ordered
        checks.append({"method": "svd-avg<=svd-plus", "amplitude_deg": amp,
                       "pass": ordered})
    _write_json(out / "amplitude_summary.json",
                {"study": study.to_json_dict(), "checks": checks, "pass": ok})
    print(f"amplitude benchmark: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _benchmark_noise(args, out: Path) -> int:
    study = run_noise_study(sigma=args.sigma, trials=args.trials, seed=args.seed)
    ok = True
    if args.sigma == 0.0:
        ok = bool(study.max_translation_error <= 1e-12
                  and study.max_rotation_error <= 1e-12)
    else:
        for emp, ana in zip(study.empirical_translation_std + study.empirical_rotation_std,
                            study.analytic_translation_std + study.analytic_rotation_std):
            ok &= bool(abs(emp - ana) <= 0.15 * ana)
    _write_json(out / "noise_summary.json",
                {"study": study.to_json_dict(), "pass": bool(ok)})
    print(f"noise benchmark: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _benchmark_zero_detection(args, out: Path) -> int:
    study = run_zero_detection_study(seeds=args.trials, sigma=args.sigma,
                                     multiplier=args.multiplier, seed=args.seed)
    ok = study.pass_fraction >= 0.95
    _write_json(out / "zero_detection_summary.json",
                {"study": study.to_json_dict(), "pass": bool(ok)})
    print(f"zero-detection benchmark: {study.perfect_seeds}/{study.seeds} "
          f"perfect seeds: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_benchmark(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.study == "amplitude":
        return _benchmark_amplitude(args, out)
    if args.study == "noise":
        if args.sigma is None:
            args.sigma = 5e-5
        if args.trials is None:
            args.trials = 500
        return _benchmark_noise(args, out)
    if args.sigma is None:
        args.sigma = 5.6e-5
    if args.trials is None:
        args.trials = 100
    return _benchmark_zero_detection(args, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiffid",
        description="Identify 6x6 compliance matrices from displacement fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="identify a compliance matrix")
    p_id.add_argument("manifest", help="experiment manifest JSON")
    p_id.add_argument("--estimator", choices=["lin", "svd"], default=None)
    p_id.add_argument("--angles", default=None,
                      choices=[m.value for m in AngleExtractionMethod])
    p_id.add_argument("--outlier-fraction", type=float, default=None)
    p_id.add_argument("--confidence-multiplier", type=float, default=None)
    p_id.add_argument("--no-symmetrize", action="store_true")
    p_id.add_argument("--out", default="identify_out")
    p_id.add_argument("--format", choices=["json", "text", "csv"], default="text")
    p_id.set_defaults(func=cmd_identify)

    p_sim = sub.add_parser("simulate", help="write synthetic beam experiments")
    p_sim.add_argument("--sigma", type=float, default=0.0, help="noise std, mm")
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--pattern", choices=["cubic", "square"], default="cubic")
    p_sim.add_argument("--edge", type=float, default=10.0, help="sensor edge, mm")
    p_sim.add_argument("--step", type=float, default=1.0, help="grid step, mm")
    p_sim.add_argument("--axis", default="x", help="square pattern normal axis")
    p_sim.add_argument("--length", type=float, default=1000.0)
    p_sim.add_argument("--section", type=float, default=10.0,
                       help="square section edge, mm")
    p_sim.add_argument("--youngs", type=float, default=2.0e5)
    p_sim.add_argument("--poisson", type=float, default=0.266)
    p_sim.add_argument("--fx", type=float, default=DEFAULT_LOADS[0])
    p_sim.add_argument("--fy", type=float, default=DEFAULT_LOADS[1])
    p_sim.add_argument("--fz", type=float, default=DEFAULT_LOADS[2])
    p_sim.add_argument("--mx", type=float, default=DEFAULT_LOADS[3])
    p_sim.add_argument("--my", type=float, default=DEFAULT_LOADS[4])
    p_sim.add_argument("--mz", type=float, default=DEFAULT_LOADS[5])
    p_sim.add_argument("--out", default="simulate_out")
    p_sim.set_defaults(func=cmd_simulate)

    p_bm = sub.add_parser("benchmark", help="run a validation study")
    p_bm.add_argument("study", choices=["amplitude", "noise", "zero-detection"])
    p_bm.add_argument("--seed", type=int, default=0)
    p_bm.add_argument("--trials", type=int, default=None)
    p_bm.add_argument("--sigma", type=float, default=None)
    p_bm.add_argument("--multiplier", type=float, default=4.0,
                      help="confidence multiplier for zero detection")
    p_bm.add_argument("--out", default="benchmark_out")
    p_bm.set_defaults(func=cmd_benchmark)
    return parser


def _emit_error(kind: str, exc: Exception, **extra) -> None:
    payload = {"error": kind, "message": str(exc)}
    for key, value in extra.items():
        if value is not None:
            payload[key] = value
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _configure_logging() -> None:
    level_name = os.environ.get("STIFFID_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "error": logging.ERROR}
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("stiffid: %(message)s"))
    log.handlers.clear()
    log.addHandler(handler)
    log.setLevel(levels.get(level_name, logging.WARNING))


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        _emit_error(type(exc).__name__, exc, file=exc.file)
        return 2
    except FieldFileError as exc:
        _emit_error(type(exc).__name__, exc, file=exc.file, line=exc.line)
        return 2
    except (OSError, InvalidArgument) as exc:
        _emit_error(type(exc).__name__, exc)
        return 2
    except StiffidError as exc:
        _emit_error(type(exc).__name__, exc,
                    experiment=getattr(exc, "experiment", None))
        return 3


if __name__ == "__main__":
    sys.exit(main())
