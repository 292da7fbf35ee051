"""The three benchmark workloads, their inputs, oracle and output checks.

Each workload prepares op ``i`` untimed (``prepare``), runs it timed
(``run``) and checks its output untimed (``check``).  Op 0 is the
untimed warm-up; its inputs and outputs are the ones digested.  Every
input is a function of the workload seed and the op index only.

The oracle is the closed-form tip compliance of the package's default
cantilever (1000 mm long, 10 mm square section, E = 2e5 N/mm^2,
nu = 0.266, St Venant torsion constant 0.1406 a^4), written out here so
that a change to the package cannot move it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

SIGMA = 5.6e-5                 # nodal noise std, mm
LOADS = (1000.0, 1.0, 1.0, 1000.0, 1000.0, 1000.0)  # Fx Fy Fz N, Mx My Mz N mm
TIP = (1000.0, 0.0, 0.0)       # reference point: beam tip, mm
NOISE_FREE_ZERO_LIMIT = 1e-15  # largest structural zero allowed at sigma = 0
STUDY_TRIALS = 100


def oracle_k() -> np.ndarray:
    length, edge, youngs, poisson = 1000.0, 10.0, 2.0e5, 0.266
    ea = youngs * edge ** 2
    ei = youngs * edge ** 4 / 12.0
    gj = youngs / (2.0 * (1.0 + poisson)) * 0.1406 * edge ** 4
    k = np.zeros((6, 6))
    k[0, 0] = length / ea
    k[1, 1] = k[2, 2] = length ** 3 / (3.0 * ei)
    k[3, 3] = length / gj
    k[4, 4] = k[5, 5] = length / ei
    k[1, 5] = k[5, 1] = length ** 2 / (2.0 * ei)
    k[2, 4] = k[4, 2] = -length ** 2 / (2.0 * ei)
    return k


ORACLE = oracle_k()
NONZERO = ORACLE != 0.0


def grid(edge: float, step: float, plane_normal: int | None = None) -> np.ndarray:
    """Regular node offsets about the reference point: a cube, or a square
    of zero thickness normal to axis ``plane_normal``."""
    count = int(round(edge / step)) + 1
    off = (np.arange(count) - (count - 1) / 2.0) * step
    if plane_normal is None:
        x, y, z = np.meshgrid(off, off, off, indexing="ij")
        return np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    u, v = np.meshgrid(off, off, indexing="ij")
    pts = np.zeros((u.size, 3))
    others = [a for a in range(3) if a != plane_normal]
    pts[:, others[0]] = u.ravel()
    pts[:, others[1]] = v.ravel()
    return pts


def rigid_displacements(positions: np.ndarray) -> list[np.ndarray]:
    """Noise-free displacements of the six canonical load cases."""
    out = []
    for j, load in enumerate(LOADS):
        w = np.zeros(6)
        w[j] = load
        d = ORACLE @ w
        out.append(np.cross(d[3:], positions) + d[:3])
    return out


def load_cases(sf, positions: np.ndarray, displacements) -> list:
    """Centered pipeline load cases built with the package's own types."""
    cases = []
    for j, (load, disp) in enumerate(zip(LOADS, displacements)):
        w = np.zeros(6)
        w[j] = load
        field = sf.field.DisplacementField(positions, disp, TIP, centered=True)
        cases.append(sf.pipeline.LoadCase(field, sf.compliance.Wrench(w[:3], w[3:])))
    return cases


def noise_free_gate(sf, positions: np.ndarray) -> float:
    """Largest structural-zero entry of the assembled (pre-significance)
    matrix of one sigma = 0 identification of this node layout."""
    cases = load_cases(sf, positions, rigid_displacements(positions))
    result = sf.pipeline.run_identification(cases, sf.pipeline.IdentifyOptions())
    return float(np.max(np.abs(result.assembled.k[~NONZERO])))


def k_rel_err(k: np.ndarray) -> float:
    return float(np.linalg.norm(k - ORACLE) / np.linalg.norm(ORACLE))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_compliance_json(path: Path, tolerance: float) -> tuple[str | None, dict]:
    """Parse compliance.json; returns (failure reason or None, accuracy)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        k = np.asarray(data["k"], dtype=float)
        mask = np.asarray(data["significance_mask"], dtype=bool)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"compliance.json unreadable: {exc!r}", {}
    if k.shape != (6, 6) or mask.shape != (6, 6):
        return f"compliance.json shapes k{k.shape} mask{mask.shape}", {}
    if not np.all(np.isfinite(k)):
        return "compliance.json has non-finite entries", {}
    err = k_rel_err(k)
    accuracy = {"k_rel_err": err,
                "zero_pattern_ok": bool(np.array_equal(mask, NONZERO))}
    if not err <= tolerance:
        return f"k_rel_err {err:.3e} above tolerance {tolerance:.1e}", accuracy
    return None, accuracy


class CliRoundtrip:
    """``simulate`` then ``identify`` through ``stiffid.cli.main``."""

    name = "cli-roundtrip"
    edge, step = 10.0, 1.0
    nodes_per_op = 6 * 11 ** 3
    # Over ten 30 s runs (seeds 1-10, 1,700-2,000 ops) the median
    # k_rel_err was 7.2e-7 and the max 2.6e-6; the tolerance is about
    # 2.3x that max, so an estimate ten times less accurate fails.
    tolerance = 6e-6
    phases = ("simulate", "identify")
    reference_parts = ("text", "calls")

    def __init__(self, sf, seed: int, work: Path):
        self.sf, self.seed, self.work = sf, seed, work
        self.dir = work / "op"
        self.sink = io.StringIO()

    def setup(self) -> dict:
        return {"noise_free_max_zero": noise_free_gate(
            self.sf, grid(self.edge, self.step))}

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.simulate_argv = ["simulate", "--sigma", repr(SIGMA),
                              "--seed", str(self.seed + 6 * i), "--out", str(self.dir)]
        self.identify_argv = ["identify", str(self.dir / "manifest.json"),
                              "--out", str(self.dir / "result")]

    def run(self, clock) -> dict:
        main = self.sf.cli.main
        with contextlib.redirect_stdout(self.sink):
            t0 = clock()
            self.rc_simulate = main(self.simulate_argv)
            t1 = clock()
            self.rc_identify = main(self.identify_argv)
            t2 = clock()
        return {"simulate": t1 - t0, "identify": t2 - t1}

    def check(self, i: int) -> tuple[str | None, dict]:
        self.sink.seek(0)
        self.sink.truncate()
        if self.rc_simulate != 0 or self.rc_identify != 0:
            return (f"exit codes simulate={self.rc_simulate} "
                    f"identify={self.rc_identify}"), {}
        return check_compliance_json(self.dir / "result" / "compliance.json",
                                     self.tolerance)

    def digests(self) -> dict:
        inputs = sorted(p for p in self.dir.iterdir() if p.is_file())
        listing = "".join(f"{p.name} {sha256_file(p)}\n" for p in inputs)
        return {"inputs": {p.name: sha256_file(p) for p in inputs},
                "inputs_sha256": hashlib.sha256(listing.encode()).hexdigest(),
                "compliance_json_sha256":
                    sha256_file(self.dir / "result" / "compliance.json")}


class FitLarge:
    """``run_identification`` on six in-memory 175,616-node fields."""

    name = "fit-large"
    edge, step = 55.0, 1.0
    nodes_per_op = 6 * 56 ** 3
    # Over ten 30 s runs (seeds 1-10, about 300 ops) the median
    # k_rel_err was 6.2e-8 and the max 1.8e-7; the tolerance is about
    # 2.8x that max, so an estimate ten times less accurate fails.
    tolerance = 5e-7
    phases = ()
    reference_parts = ("fit",)

    def __init__(self, sf, seed: int, work: Path):
        self.sf, self.seed, self.work = sf, seed, work
        self.cases = None

    def setup(self) -> dict:
        self.positions = grid(self.edge, self.step)
        self.clean = rigid_displacements(self.positions)
        return {"noise_free_max_zero": noise_free_gate(self.sf, self.positions)}

    def prepare(self, i: int) -> None:
        self.cases = self.result = None
        rng = np.random.default_rng([self.seed, i])
        noise = rng.standard_normal((len(LOADS),) + self.positions.shape)
        self.cases = load_cases(self.sf, self.positions,
                                [c + SIGMA * e for c, e in zip(self.clean, noise)])

    def run(self, clock) -> dict:
        pipeline = self.sf.pipeline
        self.result = pipeline.run_identification(self.cases, pipeline.IdentifyOptions())
        return {}

    def check(self, i: int) -> tuple[str | None, dict]:
        path = self.work / "compliance.json"
        self.sf.compliance.save_compliance_json(path, self.result.matrix)
        # Free the result now, so that nothing run between ops (import
        # spawns, the reference kernel) adds to the op's peak memory.
        self.result = None
        return check_compliance_json(path, self.tolerance)

    def digests(self) -> dict:
        h = hashlib.sha256(self.positions.tobytes())
        for case in self.cases:
            h.update(case.wrench.as_vector().tobytes())
            h.update(case.field.displacements.tobytes())
        return {"inputs_sha256": h.hexdigest(),
                "compliance_json_sha256": sha256_file(self.work / "compliance.json")}


class StudyZero:
    """``stiffid benchmark zero-detection --trials 100`` in-process.

    The study takes no seed: ``benchmark zero-detection`` ignores
    ``--seed`` and the study hard-codes field seeds 0..599, so every op
    runs the same inputs and must write the same summary.
    """

    name = "study-zero"
    nodes_per_op = STUDY_TRIALS * 6 * 11 ** 2
    phases = ()
    reference_parts = ("calls",)

    def __init__(self, sf, seed: int, work: Path):
        self.sf, self.seed, self.work = sf, seed, work
        self.dir = work / "op"
        self.sink = io.StringIO()
        self.first_summary = None

    def setup(self) -> dict:
        return {"noise_free_max_zero": noise_free_gate(
            self.sf, grid(10.0, 1.0, plane_normal=0))}

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.argv = ["benchmark", "zero-detection", "--trials", str(STUDY_TRIALS),
                     "--out", str(self.dir)]

    def run(self, clock) -> dict:
        with contextlib.redirect_stdout(self.sink):
            self.rc = self.sf.cli.main(self.argv)
        return {}

    def check(self, i: int) -> tuple[str | None, dict]:
        printed = self.sink.getvalue()
        self.sink.seek(0)
        self.sink.truncate()
        if self.rc != 0 or "PASS" not in printed:
            return f"study exit code {self.rc}, output {printed.strip()!r}", {}
        path = self.dir / "zero_detection_summary.json"
        try:
            raw = path.read_bytes()
            data = json.loads(raw)
            study = data["study"]
            ok = data["pass"] is True
            frac = study["perfect_seeds"] / study["seeds"]
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"study summary unreadable: {exc!r}", {}
        accuracy = {"zero_pattern_ok_frac": frac}
        if not ok:
            return "study summary does not pass", accuracy
        if self.first_summary is None:
            self.first_summary = raw
        elif raw != self.first_summary:
            return "study summary differs from the first op's", accuracy
        return None, accuracy

    def digests(self) -> dict:
        return {"inputs_sha256": None,
                "inputs_note": "generated inside the program from hard-coded "
                               "field seeds 0..599; --seed does not reach them",
                "summary_json_sha256":
                    sha256_file(self.dir / "zero_detection_summary.json")}


WORKLOADS = {w.name: w for w in (CliRoundtrip, FitLarge, StudyZero)}
