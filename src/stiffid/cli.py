"""Command line interface.

Three subcommands cover the full workflow:

* ``stiffid simulate``   writes synthetic cantilever experiments
  (manifest plus one field CSV per canonical load) for a chosen noise
  level and seed.
* ``stiffid identify``   runs the identification pipeline over a
  manifest of experiments, writes the compliance matrix, the
  significance report and a run log, and prints the matrix as the
  table it writes to ``compliance.txt``.
* ``stiffid benchmark``  runs one of the validation studies (amplitude,
  noise, zero-detection) and checks its acceptance bands.

The manifest format is stated once, in :data:`MANIFEST`: each object's
keys, which of them are required and the kind of each value.
:func:`load_manifest` checks a parsed manifest against it before it
reads any field file and names the key path of the first fault.  A
sensor's values then go to the ``SensorRegion`` constructor of its
shape and the options to ``IdentifyOptions``, which check the ranges
and own the option defaults; the study functions own the benchmark
defaults, and only the flags the user gave are passed on.  A flag that
the run would not read (one a study does not take, or ``--axis`` with
the cubic pattern) is an input error rather than a setting ignored, as
are a flag the command does not know and every other usage error.

Exit codes: 0 success, 2 input/parse error (a bad option value, manifest
or field file), 3 numerical failure, 4 benchmark outside its acceptance
band.  Errors and warnings are reported on stderr, one JSON object per
line.  A run's noise level, node counts, removed nodes and asymmetry are
in the run log (``run_log.json``) that ``identify`` writes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .compliance import Wrench, save_compliance_json
from .errors import (
    EmptySelection,
    FieldFileError,
    InvalidArgument,
    ManifestError,
    StiffidError,
)
from .estimation import MIN_FIT_NODES
from .field import (
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
    beam_load_cases,
    run_amplitude_study,
    run_noise_study,
    run_zero_detection_study,
)

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

# Acceptance band of the noise benchmark: each empirical std within 15%
# of the reported one.  The std of n normal samples has a relative
# sampling error of about 1/sqrt(2 n), so the band holds reliably from
# 100 trials on.
NOISE_BAND = 0.15
NOISE_MIN_TRIALS = 100


def _number(value) -> bool:
    # bool is an int subclass: a JSON true/false is not a number.
    return type(value) in (int, float) and math.isfinite(value)


class _Value(NamedTuple):
    """One kind of JSON value; `what` names it in error messages."""

    what: str
    test: Callable[[object], bool]


class _Object(NamedTuple):
    """A JSON object with these required and optional keys."""

    required: dict
    optional: dict = {}


_NUMBER = _Value("a finite number", _number)
_VECTOR = _Value("a list of 3 finite numbers",
                lambda v: type(v) is list and len(v) == 3 and all(map(_number, v)))
_STRING = _Value("a string", lambda v: type(v) is str)
_BOOLEAN = _Value("true or false", lambda v: type(v) is bool)


def _unit(table: dict) -> _Value:
    return _Value("one of " + ", ".join(sorted(table)),
                  lambda v: type(v) is str and v in table)


_CENTER = {"center": _VECTOR}

# The manifest format.  Besides _Value and _Object, a schema is a
# one-item list (a non-empty list of that item) or a dict of sensor
# shapes (an object whose "shape" key names the object its other keys
# follow).  A sensor's keys are the keyword arguments of the
# SensorRegion constructor of its shape, and the options' keys those of
# IdentifyOptions, which check the ranges.
MANIFEST = _Object(
    {"units": _Object({"length": _unit(LENGTH_UNITS)},
                      {"force": _unit(FORCE_UNITS), "torque": _unit(TORQUE_UNITS)}),
     "reference_point": _VECTOR,
     "experiments": [_Object(
         {"field_file": _STRING,
          "wrench": _Object({"force": _VECTOR, "force_unit": _unit(FORCE_UNITS),
                             "torque": _VECTOR, "torque_unit": _unit(TORQUE_UNITS)})},
         {"sensor": {"cube": _Object({"edge": _NUMBER}, _CENTER),
                     "square": _Object({"edge": _NUMBER, "axis": _STRING}, _CENTER),
                     "layer": _Object({"axis": _STRING, "coordinate": _NUMBER,
                                       "thickness": _NUMBER}),
                     "sphere": _Object({"radius": _NUMBER}, _CENTER)}})]},
    {"options": _Object({}, {"outlier_level": _NUMBER, "confidence_multiplier": _NUMBER,
                             "symmetrize": _BOOLEAN})})


# Keys that an earlier release read, and what became of them.
_LINEARIZED = "identify always fits the linearized model"
_RETIRED = {"outlier_fraction": "use outlier_level: the fixed-fraction trim became a "
                                "chi-square cut at a family-wise level",
            "estimator": _LINEARIZED, "angles": _LINEARIZED}


class _RepeatedKey(NamedTuple):
    """A parsed JSON object that holds `key` more than once."""

    key: str


def _pairs_to_object(pairs: list) -> dict | _RepeatedKey:
    """``object_pairs_hook`` for the manifest: plain json keeps only the
    last of two equal keys, so an object with a repeated key parses to a
    marker that :func:`_check` reports with its key path."""
    data = {}
    for key, value in pairs:
        if key in data:
            return _RepeatedKey(key)
        data[key] = value
    return data


def _check(value, schema, path: str, manifest: str) -> None:
    """Raise ManifestError, naming the key path, where `value` breaks `schema`."""
    if isinstance(value, _RepeatedKey):
        raise ManifestError(manifest, "repeated key "
                            + (f"{path}.{value.key}" if path else value.key))
    if isinstance(schema, _Value):
        if not schema.test(value):
            raise ManifestError(manifest, f"{path} must be {schema.what}, got {value!r}")
        return
    if isinstance(schema, list):
        if type(value) is not list or not value:
            raise ManifestError(manifest, f"{path} must be a non-empty list")
        for i, item in enumerate(value):
            _check(item, schema[0], f"{path}[{i}]", manifest)
        return
    if type(value) is not dict:
        raise ManifestError(manifest, f"{path or 'top level'} must be an object")
    prefix = f"{path}." if path else ""
    if isinstance(schema, dict):
        shape = value.get("shape")
        if type(shape) is not str or shape not in schema:
            raise ManifestError(manifest, f"{prefix}shape must be one of "
                                f"{', '.join(schema)}, got {shape!r}")
        schema = _Object({"shape": _STRING, **schema[shape].required},
                         schema[shape].optional)
    keys = {**schema.required, **schema.optional}
    for key in value:
        if key not in keys:
            hint = f"; {_RETIRED[key]}" if key in _RETIRED else ""
            raise ManifestError(manifest, f"unknown key {prefix}{key}{hint}")
    for key in schema.required:
        if key not in value:
            raise ManifestError(manifest, f"missing key {prefix}{key}")
    for key, item in value.items():
        _check(item, keys[key], prefix + key, manifest)


def load_manifest(path) -> tuple[list[LoadCase], dict]:
    """Parse a manifest file into centered, sensor-restricted load cases.

    A reference point that overflows in mm, node positions that overflow
    relative to it, and a field or sensor of fewer than
    ``MIN_FIT_NODES`` nodes raise :class:`ManifestError`, which names
    the experiment.
    """
    manifest = str(path)
    try:
        with open(manifest, "r", encoding="utf-8-sig") as handle:
            data = json.load(handle, object_pairs_hook=_pairs_to_object)
    except OSError as exc:
        raise ManifestError(manifest, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(manifest, f"line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(manifest, f"not UTF-8 text: {exc.reason}") from None
    _check(data, MANIFEST, "", manifest)

    lscale = LENGTH_UNITS[data["units"]["length"]]
    base = Path(manifest).parent
    cases = []
    for i, entry in enumerate(data["experiments"]):
        w = entry["wrench"]
        sensor = dict(entry.get("sensor", {}))
        source = entry["field_file"]
        try:
            wrench = Wrench(np.multiply(w["force"], FORCE_UNITS[w["force_unit"]]),
                            np.multiply(w["torque"], TORQUE_UNITS[w["torque_unit"]]))
            region = getattr(SensorRegion, sensor.pop("shape"))(**sensor) if sensor else None
        except ValueError as exc:
            raise ManifestError(manifest, f"experiments[{i}]: {exc}") from None
        try:
            field = center_field(read_field_csv(base / source, data["reference_point"],
                                                lscale))
        except ValueError as exc:  # the field rejects a value that overflows
            raise ManifestError(manifest, f"experiments[{i}]: {source} in mm, centered on "
                                f"reference_point: {exc}") from None
        try:
            if region is not None:
                field = select_sensor(field, region)
            nodes = field.n
        except EmptySelection:
            nodes = 0
        if nodes < MIN_FIT_NODES:
            selects = "" if region is None else "the sensor selects "
            raise ManifestError(manifest, f"experiments[{i}]: {selects}{nodes} nodes "
                                f"of {source}, and a rigid fit needs at least "
                                f"{MIN_FIT_NODES}")
        cases.append(LoadCase(field, wrench, source))
    return cases, data.get("options", {})


def _options_from(manifest_options: dict, args) -> IdentifyOptions:
    """The manifest's options, a bad one a :class:`ManifestError`, with
    the given flags applied over them, a bad one an ``InvalidArgument``."""
    try:
        options = IdentifyOptions(**manifest_options)
    except ValueError as exc:
        raise ManifestError(args.manifest, f"bad option: {exc}") from None
    return replace(options, **{option.name: getattr(args, option.name)
                               for option in fields(IdentifyOptions)
                               if getattr(args, option.name) is not None})


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


def _out_dir(args) -> Path:
    """Make and return ``--out``.  Commands call it only once their
    results are in, so an input error (exit 2) writes nothing there."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_identify(args) -> int:
    cases, manifest_options = load_manifest(args.manifest)
    options = _options_from(manifest_options, args)
    result = run_identification(cases, options)

    out = _out_dir(args)
    save_compliance_json(out / "compliance.json", result.matrix)
    with open(out / "compliance.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(result.matrix.format_table() + "\n")
    _write_json(out / "significance.json", result.significance.to_json_dict())
    run_log = result.diagnostics()
    run_log["stiffid_version"] = __version__
    run_log["manifest_sha256"] = _sha256(args.manifest)
    base = Path(args.manifest).parent
    for entry in run_log["experiments"]:
        entry["field_sha256"] = _sha256(base / entry["field_file"])
    _write_json(out / "run_log.json", run_log, indent=None)
    print(result.matrix.format_table())
    return 0


def cmd_simulate(args) -> int:
    spec = BeamSpec(args.length, args.section, args.youngs, args.poisson)
    # Each experiment's sensor selects the whole simulated pattern.
    sensor = {"shape": "cube", "edge": args.edge, "center": [0.0, 0.0, 0.0]}
    if args.pattern == "cubic":
        if args.axis is not None:
            raise InvalidArgument("simulate --pattern cubic does not take --axis")
        pattern = MeshPattern.cubic(args.edge, args.step)
    else:
        axis = "x" if args.axis is None else args.axis
        pattern = MeshPattern.square(args.edge, args.step, axis)
        sensor.update(shape="square", axis=axis)
    loads = (args.fx, args.fy, args.fz, args.mx, args.my, args.mz)
    cases = beam_load_cases(spec, pattern, loads, args.sigma, args.seed)
    out = _out_dir(args)
    reference = [spec.length, 0.0, 0.0]

    entries = []
    for j, case in enumerate(cases):
        name = f"field_{case.source}.csv"
        write_field_csv(out / name, case.field, comments=(
            "synthetic cantilever experiment " + case.source,
            f"sigma={args.sigma!r} mm, seed={args.seed + j}",
        ))
        entries.append({
            "field_file": name,
            "wrench": {
                "force": [float(v) for v in case.wrench.force],
                "force_unit": "N",
                "torque": [float(v) for v in case.wrench.torque],
                "torque_unit": "N·mm",
            },
            "sensor": sensor,
        })
    manifest = {
        "units": {"length": "mm", "force": "N", "torque": "N·mm"},
        "reference_point": reference,
        "experiments": entries,
        "options": IdentifyOptions().to_json_dict(),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote manifest and {len(entries)} field files to {out}")
    return 0


def _given(args, **params) -> dict:
    """Study keywords (`params` values) for the flags (`params` keys) given;
    the study function owns the defaults of the others."""
    return {param: getattr(args, flag) for flag, param in params.items()
            if getattr(args, flag) is not None}


def _reject_flags(args, *flags: str) -> None:
    """Raise InvalidArgument for a given flag that the study does not take."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise InvalidArgument(f"benchmark {args.study} does not take --{flag}")


def _benchmark_amplitude(args) -> int:
    _reject_flags(args, "trials", "sigma", "multiplier", "seed")
    study = run_amplitude_study(AMPLITUDE_BENCH_DEG)
    out = _out_dir(args)
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


def _benchmark_noise(args) -> int:
    _reject_flags(args, "multiplier")
    study = run_noise_study(**_given(args, sigma="sigma", trials="trials", seed="seed"))
    # Below NOISE_MIN_TRIALS noisy trials the sampling error of the stds
    # alone fills the band, so correct code would fail.  The study has
    # checked sigma and the trial count by now.
    if study.sigma > 0.0 and study.trials < NOISE_MIN_TRIALS:
        raise InvalidArgument(
            f"--trials {study.trials} is too few for the noise band: with sigma > 0 "
            f"it needs at least {NOISE_MIN_TRIALS} trials")
    out = _out_dir(args)
    ok = True
    if study.sigma == 0.0:
        ok = bool(study.max_translation_error_mm <= 1e-12
                  and study.max_rotation_error_rad <= 1e-12)
    else:
        for emp, ana in zip(study.empirical_translation_std + study.empirical_rotation_std,
                            study.analytic_translation_std + study.analytic_rotation_std):
            ok &= bool(abs(emp - ana) <= NOISE_BAND * ana)
    _write_json(out / "noise_summary.json",
                {"study": study.to_json_dict(), "pass": bool(ok)})
    print(f"noise benchmark: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def _benchmark_zero_detection(args) -> int:
    study = run_zero_detection_study(**_given(args, sigma="sigma", trials="seeds",
                                              multiplier="multiplier", seed="seed"))
    out = _out_dir(args)
    ok = study.pass_fraction >= 0.95
    _write_json(out / "zero_detection_summary.json",
                {"study": study.to_json_dict(), "pass": bool(ok)})
    print(f"zero-detection benchmark: {study.perfect_seeds}/{study.seeds} "
          f"perfect seeds: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 4


def cmd_benchmark(args) -> int:
    if args.study == "amplitude":
        return _benchmark_amplitude(args)
    if args.study == "noise":
        return _benchmark_noise(args)
    return _benchmark_zero_detection(args)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a usage error, such as a flag the
    command does not take, as InvalidArgument for :func:`main` to print
    as JSON like any other input error."""

    def error(self, message):
        raise InvalidArgument(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing fills a
    fresh namespace each time, so calls share no option values."""
    parser = _Parser(
        prog="stiffid",
        description="Identify 6x6 compliance matrices from displacement fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="identify a compliance matrix")
    p_id.add_argument("manifest", help="experiment manifest JSON")
    p_id.add_argument("--outlier-level", type=float, default=None)
    p_id.add_argument("--confidence-multiplier", type=float, default=None)
    p_id.add_argument("--no-symmetrize", dest="symmetrize", action="store_false",
                      default=None)
    p_id.add_argument("--out", default="identify_out")
    p_id.set_defaults(func=cmd_identify)

    p_sim = sub.add_parser("simulate", help="write synthetic beam experiments")
    p_sim.add_argument("--sigma", type=float, default=0.0, help="noise std, mm")
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--pattern", choices=["cubic", "square"], default="cubic")
    p_sim.add_argument("--edge", type=float, default=10.0, help="sensor edge, mm")
    p_sim.add_argument("--step", type=float, default=1.0, help="grid step, mm")
    p_sim.add_argument("--axis", default=None, help="square pattern normal, default x")
    p_sim.add_argument("--length", type=float, default=BeamSpec.length)
    p_sim.add_argument("--section", type=float, default=BeamSpec.edge,
                       help="square section edge, mm")
    p_sim.add_argument("--youngs", type=float, default=BeamSpec.youngs_modulus)
    p_sim.add_argument("--poisson", type=float, default=BeamSpec.poisson)
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
    p_bm.add_argument("--seed", type=int, default=None)
    p_bm.add_argument("--trials", type=int, default=None)
    p_bm.add_argument("--sigma", type=float, default=None)
    p_bm.add_argument("--multiplier", type=float, default=None,
                      help="confidence multiplier for zero detection")
    p_bm.add_argument("--out", default="benchmark_out")
    p_bm.set_defaults(func=cmd_benchmark)
    return parser


def _emit(key: str, kind: str, message, **extra) -> None:
    """Print ``{key: kind, "message": message}`` and the `extra` items
    that are not None to stderr as one JSON line."""
    payload = {key: kind, "message": str(message)}
    for name, value in extra.items():
        if value is not None:
            payload[name] = value
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _emit_warning(message, category, *_) -> None:
    """Print a warning as one JSON line on stderr; :func:`main` installs
    it as ``warnings.showwarning``."""
    _emit("warning", category.__name__, message)


def main(argv=None) -> int:
    # Each warning is printed as it is issued, so an error stays the last
    # line; the block gives every call its own warning registries.
    with warnings.catch_warnings():
        warnings.showwarning = _emit_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except ManifestError as exc:
            _emit("error", type(exc).__name__, exc, file=exc.file)
            return 2
        except FieldFileError as exc:
            _emit("error", type(exc).__name__, exc, file=exc.file, line=exc.line)
            return 2
        except (OSError, InvalidArgument) as exc:
            _emit("error", type(exc).__name__, exc)
            return 2
        except StiffidError as exc:
            _emit("error", type(exc).__name__, exc)
            return 3


if __name__ == "__main__":
    sys.exit(main())
