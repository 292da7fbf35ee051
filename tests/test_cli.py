"""Command line workflow: simulate, identify, benchmark, error reporting."""

import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import stiffid
from stiffid import (
    IdentifyOptions,
    beam_compliance_oracle,
    load_compliance_json,
    read_field_csv,
    run_identification,
    skew,
)
from stiffid.cli import MANIFEST, build_parser, load_manifest, main
from stiffid.estimation import rotation_xyz
from stiffid.stats import _cut_level

NONZERO = beam_compliance_oracle().k != 0.0


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One noise-free simulated experiment set shared by the read-only tests."""
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--sigma", "0", "--out", str(out)]) == 0
    return out


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_manifest(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)


class TestSimulate:
    def test_writes_manifest_and_fields(self, sim_dir):
        names = sorted(p.name for p in sim_dir.iterdir())
        assert "manifest.json" in names
        for tag in ("fx", "fy", "fz", "mx", "my", "mz"):
            assert f"field_{tag}.csv" in names
        lines = (sim_dir / "field_fx.csv").read_text().splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#")]
        assert len(data_rows) == 1 + 1331  # header plus one row per node

    def test_manifest_is_ready_to_run(self, sim_dir):
        data = read_manifest(sim_dir / "manifest.json")
        assert data["units"]["length"] == "mm"
        assert data["reference_point"] == [1000.0, 0.0, 0.0]
        assert len(data["experiments"]) == 6
        for entry in data["experiments"]:
            assert entry["wrench"]["torque_unit"] == "N·mm"
            assert entry["sensor"]["shape"] == "cube"

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--sigma", "1e-4", "--out", str(a)]) == 0
        assert main(["simulate", "--sigma", "1e-4", "--out", str(b)]) == 0
        for name in ("manifest.json", "field_fx.csv", "field_mz.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--sigma", "1e-4", "--seed", "1",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--sigma", "1e-4", "--seed", "2",
                     "--out", str(b)]) == 0
        assert (a / "field_fx.csv").read_bytes() != (b / "field_fx.csv").read_bytes()

    def test_square_pattern(self, tmp_path):
        out = tmp_path / "sq"
        assert main(["simulate", "--sigma", "0", "--pattern", "square",
                     "--out", str(out)]) == 0
        lines = (out / "field_fy.csv").read_text().splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#")]
        assert len(data_rows) == 1 + 121
        data = read_manifest(out / "manifest.json")
        assert data["experiments"][0]["sensor"]["shape"] == "square"


class TestIdentify:
    def test_noise_free_roundtrip_recovers_oracle(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "ident"
        code = main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(out)])
        assert code == 0
        matrix = load_compliance_json(out / "compliance.json")
        oracle = beam_compliance_oracle().k
        rel = np.abs(matrix.k[NONZERO] - oracle[NONZERO]) / np.abs(oracle[NONZERO])
        assert np.max(rel) <= 1e-10
        assert np.max(np.abs(matrix.k[~NONZERO])) <= 1e-15
        assert matrix.symmetrized
        assert (out / "compliance.txt").exists()
        assert (out / "significance.json").exists()
        assert (out / "run_log.json").exists()
        assert "Fx" in capsys.readouterr().out

    def test_outputs_are_deterministic(self, sim_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(a)]) == 0
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(b)]) == 0
        for name in ("compliance.json", "significance.json", "run_log.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_byte_order_mark_inputs_give_the_same_bytes(self, tmp_path):
        # Each field and the manifest start with a UTF-8 byte-order mark,
        # as Windows tools often write them.
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        assert main(["simulate", "--sigma", "5.6e-5", "--seed", "7",
                     "--out", str(plain)]) == 0
        marked.mkdir()
        for path in plain.iterdir():
            (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for sim in (plain, marked):
            assert main(["identify", str(sim / "manifest.json"),
                         "--out", str(sim / "result")]) == 0
        for name in ("compliance.json", "significance.json"):
            assert (marked / "result" / name).read_bytes() == \
                (plain / "result" / name).read_bytes()

    def test_run_log_contents(self, sim_dir, tmp_path):
        out = tmp_path / "ident"
        main(["identify", str(sim_dir / "manifest.json"), "--out", str(out)])
        log = read_manifest(out / "run_log.json")
        assert log["stiffid_version"] == stiffid.__version__
        assert log["canonical"]
        assert len(log["experiments"]) == 6
        # Noise-free residuals are roundoff, so the cut drops nothing.
        assert [e["nodes"] for e in log["experiments"]] == [1331] * 6
        assert [e["cut_level"] for e in log["experiments"]] == [_cut_level(0.01, 1331)] * 6
        assert log["sigma"] == log["sigma_before_cut"] >= 0.0

    def test_run_log_digests_the_bytes_identified(self, tmp_path, monkeypatch):
        # Each field file, and the manifest, is rewritten right after a
        # field is parsed: the run log must name the bytes that were
        # identified, not those the files hold once the run ends.
        sim = tmp_path / "sim"
        assert main(["simulate", "--sigma", "5.6e-5", "--out", str(sim)]) == 0
        manifest = sim / "manifest.json"
        before = {path.name: path.read_bytes() for path in sim.iterdir()}
        original = stiffid.cli.center_field
        parsed = iter(read_manifest(manifest)["experiments"])

        def rewriting(field):  # called on each field as it is parsed
            with open(sim / next(parsed)["field_file"], "a", encoding="utf-8") as handle:
                handle.write("# rewritten after it was read\n")
            with open(manifest, "a", encoding="utf-8") as handle:
                handle.write("\n")
            return original(field)

        monkeypatch.setattr(stiffid.cli, "center_field", rewriting)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "out")]) == 0
        log = read_manifest(tmp_path / "out" / "run_log.json")
        assert all((sim / name).read_bytes() != data for name, data in before.items())
        assert log["manifest_sha256"] == hashlib.sha256(before[manifest.name]).hexdigest()
        for entry in log["experiments"]:
            assert entry["field_sha256"] == hashlib.sha256(
                before[entry["field_file"]]).hexdigest()

    def test_run_log_reruns_identification(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--sigma", "1e-4", "--seed", "5",
                     "--out", str(sim)]) == 0
        first = tmp_path / "first"
        assert main(["identify", str(sim / "manifest.json"), "--out", str(first),
                     "--outlier-level", "0.3",
                     "--confidence-multiplier", "2.5", "--no-symmetrize"]) == 0
        log = read_manifest(first / "run_log.json")
        assert log["options"] == {"outlier_level": 0.3, "confidence_multiplier": 2.5,
                                  "symmetrize": False}
        for tag, entry in zip(("fx", "fy", "fz", "mx", "my", "mz"),
                              log["experiments"]):
            assert entry["field_file"] == f"field_{tag}.csv"
            assert len(set(entry["removed_indices"])) == entry["removed_nodes"]
            assert entry["nodes"] == 1331 - entry["removed_nodes"]
        assert log["manifest_sha256"] == hashlib.sha256(
            (sim / "manifest.json").read_bytes()).hexdigest()
        for entry in log["experiments"]:
            assert entry["field_sha256"] == hashlib.sha256(
                (sim / entry["field_file"]).read_bytes()).hexdigest()

        # Without its options block the manifest alone would run other
        # options; the logged ones, passed as flags, must give the same bytes.
        data = read_manifest(sim / "manifest.json")
        del data["options"]
        write_manifest(sim / "bare.json", data)
        opts = log["options"]
        flags = ["--outlier-level", repr(opts["outlier_level"]),
                 "--confidence-multiplier", repr(opts["confidence_multiplier"])]
        if not opts["symmetrize"]:
            flags.append("--no-symmetrize")
        default = tmp_path / "default"
        assert main(["identify", str(sim / "bare.json"), "--out", str(default)]) == 0
        rerun = tmp_path / "rerun"
        assert main(["identify", str(sim / "bare.json"), "--out", str(rerun),
                     *flags]) == 0
        assert ((rerun / "compliance.json").read_bytes()
                == (first / "compliance.json").read_bytes())
        assert ((default / "compliance.json").read_bytes()
                != (first / "compliance.json").read_bytes())
        assert read_manifest(default / "run_log.json")["options"] == {
            "outlier_level": 0.01, "confidence_multiplier": 3.0, "symmetrize": True}
        rerun_log = read_manifest(rerun / "run_log.json")
        assert rerun_log["options"] == opts
        assert ([e["removed_indices"] for e in rerun_log["experiments"]]
                == [e["removed_indices"] for e in log["experiments"]])

    def test_one_wild_node_is_cut_not_spread(self, tmp_path):
        # One dy of 1e150 in a noisy field: the initial fit of that
        # experiment is ruined and its pooled sigma reads about 6e147.
        # The cut drops that node alone, the refit recovers the
        # deflection, and sigma comes from the final fits; under the
        # fixed-fraction trim sigma stayed at 6e147 and every element
        # was zeroed.
        sim = tmp_path / "sim"
        assert main(["simulate", "--sigma", "5.6e-5", "--seed", "7",
                     "--out", str(sim)]) == 0
        path = sim / "field_fx.csv"
        lines = path.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 1].split(",")
        cells[4] = "1e150"
        lines[header + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ident"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stiffid.LinearizationWarning)
            assert main(["identify", str(sim / "manifest.json"), "--out", str(out)]) == 0
        matrix = load_compliance_json(out / "compliance.json")
        assert_array_equal(matrix.significance_mask, NONZERO)
        assert_allclose(matrix.k[NONZERO], beam_compliance_oracle().k[NONZERO], rtol=1e-3)
        log = read_manifest(out / "run_log.json")
        assert [e["removed_indices"] for e in log["experiments"]] == [[0]] + [[]] * 5
        assert log["sigma_before_cut"] > 1e147
        assert abs(log["sigma"] / 5.6e-5 - 1.0) < 0.05

    def test_every_sensor_shape(self, sim_dir, tmp_path):
        # The simulated nodes are the integer points of [-5, 5]^3 about
        # the reference point; each count below follows from the shape's
        # definition there, boundary nodes included.
        grid = np.stack(np.meshgrid(*[np.arange(-5.0, 6.0)] * 3, indexing="ij"),
                        -1).reshape(-1, 3)
        sensors = [
            ({"shape": "cube", "edge": 6.0, "center": [1.0, -2.0, 1.5]},
             np.all(np.abs(grid - [1.0, -2.0, 1.5]) <= 3.0, axis=1)),
            ({"shape": "square", "edge": 8.0, "axis": "z", "center": [0.0, 0.0, 2.0]},
             (grid[:, 2] == 2.0) & np.all(np.abs(grid[:, :2]) <= 4.0, axis=1)),
            ({"shape": "layer", "axis": "x", "coordinate": 1.0, "thickness": 2.0},
             np.abs(grid[:, 0] - 1.0) <= 1.0),
            ({"shape": "sphere", "radius": 4.0},
             np.sum(grid ** 2, axis=1) <= 16.0),
            ({"shape": "layer", "axis": "y", "coordinate": -2.0, "thickness": 3.0},
             np.abs(grid[:, 1] + 2.0) <= 1.5),
            ({"shape": "sphere", "radius": 3.0, "center": [1.0, 1.0, 0.0]},
             np.sum((grid - [1.0, 1.0, 0.0]) ** 2, axis=1) <= 9.0),
        ]
        expected = [int(np.count_nonzero(inside)) for _, inside in sensors]
        assert expected == [294, 81, 363, 257, 363, 123]
        data = read_manifest(sim_dir / "manifest.json")
        for entry, (sensor, _) in zip(data["experiments"], sensors):
            entry["field_file"] = str(sim_dir / entry["field_file"])
            entry["sensor"] = sensor
        manifest = tmp_path / "shapes.json"
        write_manifest(manifest, data)
        out = tmp_path / "ident"
        assert main(["identify", str(manifest), "--outlier-level", "0",
                     "--out", str(out)]) == 0
        log = read_manifest(out / "run_log.json")
        assert [entry["nodes"] for entry in log["experiments"]] == expected
        k = load_compliance_json(out / "compliance.json").k
        oracle = beam_compliance_oracle().k
        assert_allclose(k[NONZERO], oracle[NONZERO], rtol=1e-10)

    def test_torque_unit_invariance(self, sim_dir, tmp_path):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
            entry["wrench"]["torque"] = [t / 1000.0
                                         for t in entry["wrench"]["torque"]]
            entry["wrench"]["torque_unit"] = "N·m"
        manifest = tmp_path / "manifest_nm.json"
        write_manifest(manifest, data)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(out_a)]) == 0
        assert main(["identify", str(manifest), "--out", str(out_b)]) == 0
        ka = load_compliance_json(out_a / "compliance.json").k
        kb = load_compliance_json(out_b / "compliance.json").k
        assert_array_equal(ka, kb)

    def test_length_unit_metres(self, sim_dir, tmp_path):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            src = sim_dir / entry["field_file"]
            dst = tmp_path / entry["field_file"]
            lines = src.read_text().splitlines()
            rows = []
            for line in lines:
                if not line or line.startswith("#") or line.startswith("x,"):
                    rows.append(line)
                else:
                    rows.append(",".join(repr(float(v) / 1000.0)
                                         for v in line.split(",")))
            dst.write_text("\n".join(rows) + "\n")
        data["units"]["length"] = "m"
        data["reference_point"] = [1.0, 0.0, 0.0]
        manifest = tmp_path / "manifest_m.json"
        write_manifest(manifest, data)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(out_a)]) == 0
        assert main(["identify", str(manifest), "--out", str(out_b)]) == 0
        ka = load_compliance_json(out_a / "compliance.json").k
        kb = load_compliance_json(out_b / "compliance.json").k
        assert_allclose(kb[NONZERO], ka[NONZERO], rtol=1e-11)

    def test_no_symmetrize_flag(self, sim_dir, tmp_path):
        out = tmp_path / "raw"
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--no-symmetrize", "--out", str(out)]) == 0
        assert not load_compliance_json(out / "compliance.json").symmetrized

    def test_seven_wrench_run_writes_its_own_report(self, sim_dir, tmp_path):
        out = tmp_path / "ident"
        assert main(["identify", str(sim_dir / "manifest.json"), "--out", str(out)]) == 0
        six = read_manifest(out / "significance.json")
        # A seventh experiment, a repeat of the first, makes the set
        # least-squares; it runs the same significance stage into the
        # same --out, which now holds this run's report.
        data = read_manifest(sim_dir / "manifest.json")
        data["experiments"].append(data["experiments"][0])
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        manifest = tmp_path / "seven.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(out)]) == 0
        assert not read_manifest(out / "run_log.json")["canonical"]
        seven = read_manifest(out / "significance.json")
        assert len(seven["elements"]) == 36
        assert seven != six
        significant = np.zeros((6, 6), dtype=bool)
        for e in seven["elements"]:
            significant[e["row"] - 1, e["col"] - 1] = e["significant"]
        mask = load_compliance_json(out / "compliance.json").significance_mask
        assert_array_equal(mask, significant | significant.T)

    def test_log_verbosity_env(self, sim_dir, tmp_path, capsys, monkeypatch):
        # The run facts are in run_log.json; STIFFID_LOG sets no
        # second channel, so a clean run writes nothing to stderr.
        monkeypatch.setenv("STIFFID_LOG", "info")
        assert main(["identify", str(sim_dir / "manifest.json"),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_warnings_are_json_lines(self, tmp_path, capsys):
        # This noisy square set symmetrizes to a matrix that is not
        # positive semidefinite.  Each call reports its own warnings.
        sim = tmp_path / "sim"
        assert main(["simulate", "--pattern", "square", "--sigma", "2e-2",
                     "--seed", "5", "--out", str(sim)]) == 0
        capsys.readouterr()
        for run in range(2):
            assert main(["identify", str(sim / "manifest.json"),
                         "--out", str(tmp_path / f"o{run}")]) == 0
            lines = [json.loads(line)
                     for line in capsys.readouterr().err.splitlines()]
            assert any(line.get("warning") == "UserWarning" and
                       "not positive semidefinite" in line["message"]
                       for line in lines)


class TestReferencePointMove:
    """Moving the reference point from A to B = A + r moves each torque
    to tau - r x f and each deflection d to J d, with
    J = [[I, -[r]x], [0, I]]: the lin identification must give
    K_B = J K_A J^T and each experiment's covariance J C J^T.  Sphere
    sensors select the same nodes about either point."""

    R = np.array([-50.0, 3.0, -2.0])

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("moved")
        assert main(["simulate", "--sigma", "5.6e-5", "--seed", "7", "--out", str(out)]) == 0
        data = read_manifest(out / "manifest.json")
        for entry in data["experiments"]:
            # No node of the unit grid lies within roundoff of radius 5.5.
            entry["sensor"] = {"shape": "sphere", "radius": 5.5, "center": [0.0, 0.0, 0.0]}
        write_manifest(out / "a.json", data)
        data["reference_point"] = np.add(data["reference_point"], self.R).tolist()
        for entry in data["experiments"]:
            wrench = entry["wrench"]
            wrench["torque"] = np.subtract(wrench["torque"],
                                           np.cross(self.R, wrench["force"])).tolist()
            entry["sensor"]["center"] = (-self.R).tolist()
        write_manifest(out / "b.json", data)
        return out / "a.json", out / "b.json"

    @staticmethod
    def assert_moved(got, expected):
        # Each element within 1e-14 of sqrt(|e_ii e_jj|): elements near
        # zero are formed by cancellation, so their own size is no scale.
        scale = np.sqrt(np.abs(np.diagonal(expected)))
        assert np.all(np.abs(got - expected) <= 1e-14 * np.outer(scale, scale))

    @pytest.mark.parametrize("level", [0.0, 0.1])
    def test_matrix_and_covariances_move_with_the_reference_point(self, manifests,
                                                                  level):
        options = IdentifyOptions(outlier_level=level)
        a, b = (run_identification(load_manifest(m)[0], options) for m in manifests)
        assert a.nodes == b.nodes
        assert all((x is None and y is None) or np.array_equal(x, y)
                   for x, y in zip(a.dropped, b.dropped))
        J = np.eye(6)
        J[:3, 3:] = -skew(self.R)
        self.assert_moved(b.assembled.k, J @ a.assembled.k @ J.T)
        for covariance_a, covariance_b in zip(a.covariances, b.covariances):
            self.assert_moved(covariance_b, J @ covariance_a @ J.T)


class TestFrameRotation:
    """Rotating every position, displacement, wrench and the reference
    point by R turns K into R6 K R6^T, with R6 = diag(R, R), and each
    covariance C into R6 C R6^T.  The outlier score |r|^2 does not depend
    on the frame, so the cut removes the same nodes in both.

    Both manifests hold the simulated fields moved, exactly, so that the
    reference point sits at the origin; the second turns them by R.  The
    rotated values are rounded to doubles as they are written, which
    moves the pooled sigma by up to about 2e-14 relatively: each C is
    compared over its own sigma^2, and sigma on its own.  Sphere sensors
    select the same nodes in either frame."""

    R = rotation_xyz([0.3, -0.7, 1.1])

    @pytest.fixture(scope="class", params=[0.0, 100.0], ids=["clean", "spiked"])
    def manifests(self, tmp_path_factory, request):
        # With a spike, three nodes of each field move 100 sigma along
        # random directions, and the cut drops them.
        out = tmp_path_factory.mktemp("rotated")
        assert main(["simulate", "--sigma", "5.6e-5", "--seed", "7", "--out", str(out)]) == 0
        data = read_manifest(out / "manifest.json")
        reference = np.array(data["reference_point"])
        data["reference_point"] = [0.0, 0.0, 0.0]
        rng = np.random.default_rng(3)
        fields = []
        for entry in data["experiments"]:
            field = read_field_csv(out / entry["field_file"])
            positions = field.positions - reference  # exact: nodes within 5 mm of it
            displacements = field.displacements.copy()
            spiked = rng.choice(np.flatnonzero(np.linalg.norm(positions, axis=1) < 5.0), 3,
                                replace=False)
            direction = rng.standard_normal((3, 3))
            displacements[spiked] += request.param * 5.6e-5 * direction / np.linalg.norm(
                direction, axis=1, keepdims=True)
            fields.append((entry["field_file"], positions, displacements))
            entry["sensor"] = {"shape": "sphere", "radius": 5.5, "center": [0.0, 0.0, 0.0]}
        paths = []
        for name, turn in (("a", np.eye(3)), ("b", self.R)):
            for entry, (source, positions, displacements) in zip(data["experiments"], fields):
                entry["field_file"] = f"{name}_{source}"
                stiffid.write_field_csv(out / entry["field_file"], stiffid.DisplacementField(
                    positions @ turn.T, displacements @ turn.T))
                wrench = entry["wrench"]
                wrench["force"] = (turn @ wrench["force"]).tolist()
                wrench["torque"] = (turn @ wrench["torque"]).tolist()
            write_manifest(out / f"{name}.json", data)
            paths.append(out / f"{name}.json")
        return paths, request.param

    def test_matrix_covariances_and_cut_follow_the_frame(self, manifests):
        paths, spike = manifests
        a, b = (run_identification(load_manifest(m)[0]) for m in paths)
        assert a.removed == b.removed
        assert all(len(removed) == (3 if spike else 0) for removed in a.removed)
        assert abs(b.noise.sigma / a.noise.sigma - 1.0) <= 1e-13
        R6 = np.kron(np.eye(2), self.R)
        TestReferencePointMove.assert_moved(b.assembled.k, R6 @ a.assembled.k @ R6.T)
        for covariance_a, covariance_b in zip(a.covariances, b.covariances):
            TestReferencePointMove.assert_moved(
                covariance_b / b.noise.sigma ** 2,
                R6 @ (covariance_a / a.noise.sigma ** 2) @ R6.T)


class TestReadmeInputFormat:
    """The README's input examples go through the real parsers."""

    README = Path(__file__).resolve().parent.parent / "README.md"

    def section(self):
        return self.README.read_text(encoding="utf-8").split(
            "## Input format")[1].split("\n## ")[0]

    def blocks(self):
        return re.findall(r"```(\w*)\n(.*?)```", self.section(), flags=re.S)

    def test_csv_example_parses(self, tmp_path):
        (csv_text,) = [body for lang, body in self.blocks() if not lang]
        path = tmp_path / "example.csv"
        path.write_text(csv_text.replace("...\n", ""), encoding="utf-8")
        field = read_field_csv(path)
        assert field.n == 1
        assert_allclose(field.displacements[0], [0.0502, -0.0001, 0.0003])

    def test_manifest_example_loads(self, sim_dir, tmp_path):
        (manifest_text,) = [body for lang, body in self.blocks() if lang == "json"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest_text, encoding="utf-8")
        (tmp_path / "field_fx.csv").write_bytes(
            (sim_dir / "field_fx.csv").read_bytes())
        cases, options = load_manifest(manifest)
        assert len(cases) == 1
        assert cases[0].field.n == 1331
        assert cases[0].field.centered
        assert_allclose(cases[0].wrench.as_vector(), [1000.0, 0, 0, 0, 0, 0])
        assert options == {"outlier_level": 0.01}

    def test_manifest_keys_match_schema(self):
        def paths(schema, path):
            if isinstance(schema, list):
                yield from paths(schema[0], path + "[]")
            elif isinstance(schema, dict):  # sensor shapes
                yield path + ".shape"
                for shape in schema.values():
                    yield from paths(shape, path)
            elif hasattr(schema, "required"):
                for key, kind in {**schema.required, **schema.optional}.items():
                    child = f"{path}.{key}" if path else key
                    yield child
                    yield from paths(kind, child)

        documented = re.findall(r"^\| `([^`]+)` \|", self.section(), flags=re.M)
        assert len(documented) == len(set(documented))
        assert set(documented) == set(paths(MANIFEST, ""))


class TestIdentifyErrors:
    def stderr_payload(self, capsys):
        err = capsys.readouterr().err.strip().splitlines()
        return json.loads(err[-1])

    def test_five_experiments_exit_3(self, sim_dir, tmp_path, capsys):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["experiments"] = data["experiments"][:5]
        manifest = tmp_path / "short.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 3
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "RankDeficientWrenches"
        assert "insufficient experiments" in payload["message"]

    def test_non_finite_compliance_exit_3(self, tmp_path, capsys):
        # Deflections of about 1e98 over a force of 1e-300 N overflow the
        # assembly though every fit is finite: a numerical failure, named
        # before numpy warns, that writes no --out.
        sim, out = tmp_path / "sim", tmp_path / "o"
        assert main(["simulate", "--sigma", "1e100", "--fx", "1e-300",
                     "--out", str(sim)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["identify", str(sim / "manifest.json"), "--out", str(out)]) == 3
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "NonFiniteCompliance"
        assert not out.exists()

    def overflow_manifest(self, sim_dir, tmp_path, column, value, rows):
        """The simulated manifest with field_fx.csv's `column` set to
        `value` on the given data rows."""
        lines = (sim_dir / "field_fx.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        index = lines[header].split(",").index(column)
        for row in rows:
            cells = lines[header + 1 + row].split(",")
            cells[index] = value
            lines[header + 1 + row] = ",".join(cells)
        (tmp_path / "field_fx.csv").write_text("\n".join(lines) + "\n")
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"][1:]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        return manifest

    def test_overflowing_displacement_exit_3(self, sim_dir, tmp_path, capsys):
        # Three dx of 1e308 make the mean displacement infinite.
        manifest = self.overflow_manifest(sim_dir, tmp_path, "dx", "1e308", (0, 1, 2))
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 3
        assert self.stderr_payload(capsys)["error"] == "NonFiniteDeflection"
        assert not (tmp_path / "o").exists()

    def test_overflowing_residual_exit_3(self, sim_dir, tmp_path, capsys):
        # One dy of 1e160 leaves the deflections finite, but its squared
        # residual overflows the fit's residual sum of squares.
        manifest = self.overflow_manifest(sim_dir, tmp_path, "dy", "1e160", (0,))
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 3
        assert self.stderr_payload(capsys)["error"] == "NonFiniteDeflection"
        assert not (tmp_path / "o").exists()

    def test_overflowing_position_exit_3(self, sim_dir, tmp_path, capsys):
        # Without a sensor block the node at x = 1e200 stays in the fit,
        # and its squared distance overflows the rotation normal matrix.
        manifest = self.overflow_manifest(sim_dir, tmp_path, "x", "1e200", (0,))
        data = read_manifest(manifest)
        for entry in data["experiments"]:
            del entry["sensor"]
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 3
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "DegenerateGeometry"
        assert "overflow" in payload["message"]

    def test_corrupt_field_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim"
        main(["simulate", "--sigma", "0", "--out", str(out)])
        target = out / "field_fy.csv"
        target.write_text(target.read_text() + "1.0,2.0,oops,0,0,0\n")
        assert main(["identify", str(out / "manifest.json"),
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "FieldFileError"
        assert payload["file"].endswith("field_fy.csv")
        assert payload["line"] == 1335  # two comments + header + 1331 rows + 1

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        assert main(["identify", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert self.stderr_payload(capsys)["error"] == "ManifestError"

    def test_missing_field_file_exit_2(self, sim_dir, tmp_path, capsys):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["experiments"][2]["field_file"] = str(tmp_path / "gone.csv")
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_torque_unit_exit_2(self, sim_dir, tmp_path, capsys):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["experiments"][0]["wrench"]["torque_unit"] = "lbf·in"
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert "torque" in payload["message"]

    def test_missing_units_tag_exit_2(self, sim_dir, tmp_path, capsys):
        data = read_manifest(sim_dir / "manifest.json")
        del data["units"]
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2

    def test_manifest_syntax_error_reports_line(self, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text('{\n  "units": {\n')
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        assert "line" in self.stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--outlier-level", "1.5"),
        ("--outlier-level", "-0.2"),
        ("--confidence-multiplier", "0"),
        ("--confidence-multiplier", "inf"),
        ("--outlier-level", "nan"),
        ("--confidence-multiplier", "nan"),
    ])
    def test_out_of_range_option_exit_2(self, sim_dir, tmp_path, capsys,
                                        flag, value):
        assert main(["identify", str(sim_dir / "manifest.json"), flag, value,
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "InvalidArgument"
        assert flag[2:].replace("-", "_") in payload["message"]

    def test_out_of_range_manifest_option_is_a_manifest_error_under_a_flag(
            self, sim_dir, tmp_path, capsys):
        # The manifest is at fault whether or not a flag overrides its value;
        # the flag's own value is fine.
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["options"]["outlier_level"] = 1.5
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--outlier-level", "0.1",
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert "outlier_level" in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_old_outlier_fraction_key_names_its_replacement(self, sim_dir, tmp_path,
                                                            capsys):
        # The fixed-fraction trim is gone; a manifest that still asks for
        # it is told which key replaced it, and nothing is written.
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        del data["options"]["outlier_level"]
        data["options"]["outlier_fraction"] = 0.1
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert "unknown key options.outlier_fraction; use outlier_level" in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hole, message", [
        (lambda data: data.update(experiments=[]),
         "experiments must be a non-empty list"),
        (lambda data: data["experiments"][1]["wrench"].update(force=[0.0] * 3,
                                                              torque=[0.0] * 3),
         "experiments[1]: wrench must have at least one nonzero component"),
        (lambda data: data["experiments"][2]["sensor"].update(edge=-1),
         "experiments[2]: cube edge must be positive"),
        (lambda data: data["experiments"][3].update(sensor={"shape": "sphere", "radius": 0}),
         "experiments[3]: sphere radius must be positive"),
    ], ids=["no-experiments", "zero-wrench", "negative-edge", "zero-radius"])
    def test_bad_experiment_exit_2(self, sim_dir, tmp_path, capsys, hole, message):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        hole(data)
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert message in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("estimator", "svd"), ("angles", "avg")])
    def test_removed_option_in_manifest_exit_2(self, sim_dir, tmp_path, capsys, key,
                                               value):
        # identify fits one model; a manifest written before that, as
        # every earlier simulate wrote it, is told so, and nothing is
        # written.
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["options"][key] = value
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert (f"unknown key options.{key}; identify always fits the linearized model"
                in payload["message"])
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--estimator", "svd"), ("--angles", "avg")])
    def test_removed_flag_exit_2(self, sim_dir, tmp_path, capsys, flag, value):
        assert main(["identify", str(sim_dir / "manifest.json"), flag, value,
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "InvalidArgument"
        assert flag in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, error", [("field_fx.csv", "FieldFileError"),
                                             ("manifest.json", "ManifestError")])
    def test_non_utf8_input_exit_2(self, tmp_path, capsys, name, error):
        out = tmp_path / "sim"
        main(["simulate", "--sigma", "0", "--out", str(out)])
        with open(out / name, "ab") as handle:
            handle.write(b"\xff")
        assert main(["identify", str(out / "manifest.json"),
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == error
        assert payload["file"].endswith(name)
        assert "UTF-8" in payload["message"]

    @pytest.mark.parametrize("hole, word", [
        (lambda data: data["options"].update(outlier_levle=0.5), "outlier_levle"),
        (lambda data: data.update(options=[1, 2]), "options"),
        (lambda data: data["options"].update(symmetrize="no"), "symmetrize"),
        (lambda data: data["experiments"][0].update(field_file=3), "field_file"),
        (lambda data: data["options"].update(outlier_level=False), "outlier_level"),
        (lambda data: data["options"].update(confidence_multiplier=True),
         "confidence_multiplier"),
        (lambda data: data["experiments"][0].update(sensr={"shape": "cube", "edge": 1.0}),
         "experiments[0].sensr"),
        (lambda data: data["experiments"][0]["sensor"].update(edg=1.0),
         "experiments[0].sensor.edg"),
        (lambda data: data["experiments"][0]["wrench"].update(forc=[1.0, 0.0, 0.0]),
         "experiments[0].wrench.forc"),
        (lambda data: data.update(referense_point=[0.0, 0.0, 0.0]), "referense_point"),
        (lambda data: data["experiments"][0]["sensor"].update(edge="10"),
         "experiments[0].sensor.edge"),
        (lambda data: data["experiments"][0].update(
            sensor={"shape": "square", "edge": 10.0, "axis": True}),
         "experiments[0].sensor.axis"),
        (lambda data: data.update(reference_point=[1000.0, True, 0.0]), "reference_point"),
        (lambda data: data["experiments"][0]["wrench"].update(force=[True, 0.0, 0.0]),
         "experiments[0].wrench.force"),
        (lambda data: data["units"].update(force="lbf"), "units.force"),
        (lambda data: data["options"].update(symmetrize=1), "options.symmetrize"),
        (lambda data: data["options"].update(angles="bogus"), "unknown key options.angles"),
        (lambda data: data["experiments"][0]["sensor"].update(edge=True),
         "experiments[0].sensor.edge"),
        (lambda data: data["experiments"][0]["sensor"].update(center=[float("nan"), 0, 0]),
         "experiments[0].sensor.center"),
        (lambda data: data["experiments"][0]["sensor"].update(shape=[1]),
         "experiments[0].sensor.shape"),
        # json.load keeps the last of two equal keys; the hole is written
        # as text, a second "sensor" ahead of the first
        (lambda data: json.dumps(data).replace(
            '"sensor": ', '"sensor": {"shape": "cube", "edge": 4.0}, "sensor": ', 1),
         "repeated key experiments[0].sensor"),
    ], ids=["misspelled-key", "options-list", "symmetrize-string", "field-file-number",
            "outlier-level-false", "confidence-multiplier-true", "sensor-misspelled",
            "sensor-edge-misspelled", "wrench-force-misspelled",
            "reference-point-misspelled", "sensor-edge-string", "sensor-axis-true",
            "reference-point-holds-true", "wrench-force-holds-true", "units-force-lbf",
            "symmetrize-one", "angles-unknown", "sensor-edge-true", "sensor-center-nan",
            "sensor-shape-list", "sensor-repeated"])
    def test_manifest_hole_exit_2(self, sim_dir, tmp_path, capsys, hole, word):
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        text = hole(data)
        manifest = tmp_path / "m.json"
        if text is None:
            write_manifest(manifest, data)
        else:
            manifest.write_text(text, encoding="utf-8")
        assert main(["identify", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert word in payload["message"]

    @pytest.mark.parametrize("sensor, nodes", [
        ({"shape": "layer", "axis": "x", "coordinate": 100.0, "thickness": 1.0}, 0),
        ({"shape": "sphere", "radius": 0.5}, 1),
    ], ids=["layer-outside-field", "sphere-one-node"])
    def test_sensor_selecting_too_few_nodes_exit_2(self, sim_dir, tmp_path, capsys,
                                                   sensor, nodes):
        # A rigid fit needs 3 nodes: a sensor that selects fewer is a
        # manifest error that names the experiment and its field file.
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["experiments"][0]["sensor"] = sensor
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert (f"experiments[0]: the sensor selects {nodes} nodes of "
                f"{sim_dir / 'field_fx.csv'}") in payload["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sensor", [False, True], ids=["no-sensor", "sensor"])
    def test_field_of_too_few_nodes_exit_2(self, sim_dir, tmp_path, capsys, sensor):
        # A field of 2 nodes is a manifest error whether or not a sensor
        # selects from it.
        lines = (sim_dir / "field_fx.csv").read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        (tmp_path / "two.csv").write_text("\n".join(lines[:header + 3]) + "\n")
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["experiments"][0]["field_file"] = "two.csv"
        if not sensor:
            del data["experiments"][0]["sensor"]
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        selects = "the sensor selects " if sensor else ""
        assert f"experiments[0]: {selects}2 nodes of two.csv" in payload["message"]
        assert not (tmp_path / "o").exists()

    def overflow_error(self, tmp_path, capsys, data):
        """Run `identify` on the manifest `data`; return its one line of
        stderr, which must be a JSON ManifestError naming the manifest."""
        manifest = tmp_path / "m.json"
        write_manifest(manifest, data)
        assert main(["identify", str(manifest), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ManifestError"
        assert payload["file"] == str(manifest)
        assert not (tmp_path / "o").exists()
        return payload["message"]

    def test_reference_point_overflowing_in_mm_exit_2(self, sim_dir, tmp_path, capsys):
        # 1e306 m is 1e309 mm, which is not a finite double.
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
        data["units"]["length"] = "m"
        data["reference_point"] = [1e306, 0.0, 0.0]
        message = self.overflow_error(tmp_path, capsys, data)
        assert "experiments[0]:" in message
        assert "reference_point contains non-finite values" in message

    def test_position_overflowing_relative_to_reference_point_exit_2(self, sim_dir, tmp_path,
                                                                     capsys):
        # Each value is finite, but 1.7e308 - (-1.7e308) is not.
        (tmp_path / "far.csv").write_text(
            "x,y,z,dx,dy,dz\n1.7e308,0,0,0,0,0\n0,1,0,0,0,0\n0,0,1,0,0,0\n")
        data = read_manifest(sim_dir / "manifest.json")
        for entry in data["experiments"]:
            entry["field_file"] = str(sim_dir / entry["field_file"])
            del entry["sensor"]
        data["experiments"][0]["field_file"] = "far.csv"
        data["reference_point"] = [-1.7e308, 0.0, 0.0]
        message = self.overflow_error(tmp_path, capsys, data)
        assert ("experiments[0]: far.csv in mm, centered on reference_point: positions "
                "contains non-finite values") in message

    def test_non_finite_field_value_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim"
        main(["simulate", "--sigma", "0", "--out", str(out)])
        target = out / "field_mx.csv"
        lines = target.read_text().splitlines(keepends=True)
        lines[10] = "1.0,2.0,nan,0,0,0\n"  # data row 8 of the file
        target.write_text("".join(lines))
        assert main(["identify", str(out / "manifest.json"),
                     "--out", str(tmp_path / "o")]) == 2
        payload = self.stderr_payload(capsys)
        assert payload["error"] == "FieldFileError"
        assert payload["file"].endswith("field_mx.csv")
        assert payload["line"] == 11
        assert "non-finite" in payload["message"]


class TestBenchmark:
    def test_noise_study_noise_free(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["benchmark", "noise", "--sigma", "0", "--trials", "2",
                     "--out", str(out)]) == 0
        summary = read_manifest(out / "noise_summary.json")
        assert summary["pass"] is True
        assert "PASS" in capsys.readouterr().out

    def test_noise_study_with_noise(self, tmp_path):
        # 100 trials keeps the sampling error of the std comfortably
        # inside the 15% acceptance band
        out = tmp_path / "bench"
        assert main(["benchmark", "noise", "--sigma", "5e-5", "--trials", "100",
                     "--out", str(out)]) == 0

    def test_zero_detection_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["benchmark", "zero-detection", "--trials", "3",
                     "--out", str(out)]) == 0
        summary = read_manifest(out / "zero_detection_summary.json")
        assert summary["study"]["perfect_seeds"] == 3

    def test_zero_detection_seed(self, tmp_path):
        def summary(name, *flags):
            out = tmp_path / name
            assert main(["benchmark", "zero-detection", "--trials", "3",
                         *flags, "--out", str(out)]) == 0
            return (out / "zero_detection_summary.json").read_bytes()

        default = summary("default")
        assert summary("seed0", "--seed", "0") == default
        shifted = json.loads(summary("seed1", "--seed", "1"))
        assert shifted["study"]["min_safety"] != \
            json.loads(default)["study"]["min_safety"]

    def test_zero_detection_band_failure_exit_4(self, tmp_path, capsys):
        # an absurd multiplier swallows every element, so no seed is perfect
        out = tmp_path / "bench"
        assert main(["benchmark", "zero-detection", "--trials", "1",
                     "--multiplier", "1e9", "--out", str(out)]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_zero_detection_tiny_multiplier_warns_nothing(self, tmp_path, capsys):
        # Subnormal halfwidths overflow the safety factors, which are then
        # infinite (null in the summary), with no warning line on stderr.
        out = tmp_path / "bench"
        assert main(["benchmark", "zero-detection", "--trials", "3",
                     "--multiplier", "1e-308", "--out", str(out)]) == 4
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "zero_detection_summary.json").read_text())
        assert summary["study"]["min_safety"] == [None] * 3

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_zero_detection_names_its_multiplier(self, tmp_path, capsys, value):
        # The study's own parameter, which the flag sets, not the
        # pipeline option that it becomes.
        out = tmp_path / "o"
        assert main(["benchmark", "zero-detection", "--multiplier", value,
                     "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidArgument"
        assert payload["message"].startswith("multiplier must be")
        assert not out.exists()

    @pytest.mark.parametrize("argv, word", [
        (["simulate", "--sigma", "-1"], "sigma"),
        (["simulate", "--poisson", "0.5"], "poisson"),
        (["simulate", "--sigma", "1e-4", "--seed", "-1"], "seeds"),
        (["benchmark", "zero-detection", "--sigma", "-1"], "sigma"),
        (["benchmark", "zero-detection", "--multiplier", "0"], "multiplier must"),
        (["benchmark", "zero-detection", "--trials", "0"], "seeds"),
        (["benchmark", "noise", "--trials", "0"], "trials"),
        (["benchmark", "noise", "--trials", "-1"], "trials"),
        (["benchmark", "zero-detection", "--seed", "-1", "--trials", "1"], "seeds"),
        (["simulate", "--pattern", "square", "--axis", "w"], "axis"),
        (["simulate", "--sigma", "inf"], "sigma"),
        (["benchmark", "noise", "--sigma", "inf", "--trials", "2"], "sigma"),
        (["simulate", "--fx", "nan"], "Fx"),
        (["simulate", "--length", "inf"], "beam"),
        (["benchmark", "noise", "--trials", "50"], "100 trials"),
        (["benchmark", "noise", "--trials", "99", "--sigma", "1e-9"], "100 trials"),
        # the covariances square sigma, so its square must be finite too
        (["simulate", "--sigma", "1e300"], "square"),
        (["benchmark", "noise", "--sigma", "1e300", "--trials", "100"], "square"),
        # a bad sigma is reported ahead of a trial count that is too few
        (["benchmark", "noise", "--trials", "50", "--sigma", "1e300"], "square"),
        (["benchmark", "zero-detection", "--sigma", "1e300"], "square"),
        # noise-free structural zeros are roundoff: nothing to detect
        (["benchmark", "zero-detection", "--sigma", "0"], "sigma"),
        # the cubic pattern has no normal axis, so any --axis is unread
        (["simulate", "--axis", "q"], "axis"),
        (["simulate", "--axis", "y"], "axis"),
        # stdout is the table of compliance.txt, so no flag picks another
        # rendering; argparse's usage errors are input errors as well
        (["identify", "manifest.json", "--format", "json"], "--format"),
        (["simulate", "--pattern", "cube"], "--pattern"),
    ], ids=["simulate-sigma", "simulate-poisson", "simulate-seed", "zero-detection-sigma",
            "zero-detection-multiplier", "zero-detection-trials", "noise-trials-0",
            "noise-trials-negative", "zero-detection-seed", "simulate-axis",
            "simulate-sigma-inf", "noise-sigma-inf", "simulate-load-nan",
            "simulate-length-inf", "noise-trials-50", "noise-trials-99-noisy",
            "simulate-sigma-square-overflows", "noise-sigma-square-overflows",
            "noise-trials-50-sigma-square-overflows",
            "zero-detection-sigma-square-overflows", "zero-detection-sigma-zero",
            "simulate-cubic-axis-q", "simulate-cubic-axis-y", "identify-format",
            "simulate-pattern-choice"])
    def test_bad_number_exit_2(self, tmp_path, capsys, argv, word):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidArgument"
        assert word in payload["message"]

    @pytest.mark.parametrize("argv, flag", [
        (["amplitude", "--trials", "7", "--multiplier", "9", "--sigma", "1"], "--trials"),
        (["amplitude", "--sigma", "1"], "--sigma"),
        (["amplitude", "--multiplier", "9"], "--multiplier"),
        (["noise", "--multiplier", "9"], "--multiplier"),
        # the amplitude sweep is noise-free, so no seed reaches it
        (["amplitude", "--seed", "3"], "--seed"),
    ], ids=["amplitude-all", "amplitude-sigma", "amplitude-multiplier",
            "noise-multiplier", "amplitude-seed"])
    def test_unused_flag_exit_2(self, tmp_path, capsys, argv, flag):
        # a study that ignored the flag would print PASS for a run the
        # user did not ask for
        out = tmp_path / "o"
        assert main(["benchmark"] + argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidArgument"
        assert flag in payload["message"]
        assert not list(out.glob("*_summary.json"))

    @pytest.mark.parametrize("argv", [
        ["simulate", "--sigma", "-1"],
        ["simulate", "--edge", "1e-9"],
        ["benchmark", "noise", "--sigma", "-1"],
        ["benchmark", "amplitude", "--trials", "3"],
        ["benchmark", "zero-detection", "--trials", "0"],
        ["benchmark", "noise", "--trials", "100", "--sigma", "1e300"],
        ["benchmark", "zero-detection", "--sigma", "0"],
        ["benchmark", "amplitude", "--seed", "3"],
        ["simulate", "--axis", "y"],
        # numpy cannot size the grid, so nothing is allocated
        ["simulate", "--edge", "1", "--step", "1e-300"],
    ], ids=["simulate-sigma", "simulate-edge-below-step", "noise-sigma",
            "amplitude-trials", "zero-trials", "noise-sigma-square-overflows",
            "zero-sigma-zero", "amplitude-seed", "simulate-cubic-axis",
            "simulate-grid-too-large"])
    def test_input_error_leaves_no_out_dir(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--length", "1e300"], ["--section", "1e200"], ["--section", "1e-200"],
    ], ids=["length-overflows", "section-overflows", "section-underflows"])
    def test_beam_compliance_out_of_float_range_exit_2(self, tmp_path, capsys, argv):
        # Each passes BeamSpec's range check, but the closed-form
        # compliance overflows or divides by an area that underflowed.
        out = tmp_path / "o"
        assert main(["simulate"] + argv + ["--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidArgument"
        assert "float range" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, error, word", [
        (["simulate", "--edge", "-1"], "InvalidPattern", "edge"),
        (["simulate", "--edge", "nan"], "InvalidPattern", "edge"),
        (["simulate", "--step", "0.3"], "InvalidPattern", "step"),
        (["simulate", "--fx", "0"], "ZeroMagnitude", "Fx"),
        # numpy cannot size the grid, so nothing is allocated
        (["simulate", "--edge", "1", "--step", "1e-300"], "InvalidPattern", "too large"),
        (["simulate", "--pattern", "square", "--edge", "1", "--step", "1e-300"],
         "InvalidPattern", "too large"),
    ], ids=["edge-negative", "edge-nan", "step-not-dividing", "load-zero",
            "grid-too-large", "square-grid-too-large"])
    def test_bad_pattern_or_load_exit_2(self, tmp_path, capsys, argv, error, word):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error
        assert word in payload["message"]

    def test_amplitude_study(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["benchmark", "amplitude", "--out", str(out)]) == 0
        summary = read_manifest(out / "amplitude_summary.json")
        assert summary["pass"] is True
        assert (out / "amplitude_study.csv").exists()


def test_cached_parser_shares_no_option_values(tmp_path, capsys):
    # main() parses with one parser per process.  Each command must write
    # the bytes it writes on a freshly built parser, whichever ran before.
    commands = {"simulate": ["simulate", "--seed", "5"],
                "noise": ["benchmark", "noise", "--trials", "100", "--seed", "3"]}

    def run(name, out):
        assert main(commands[name] + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}, \
            capsys.readouterr().out.replace(str(out), "OUT")

    alone, after = {}, {}
    for first, second in (("simulate", "noise"), ("noise", "simulate")):
        build_parser.cache_clear()
        alone[first] = run(first, tmp_path / f"{first}-alone")
        after[second] = run(second, tmp_path / f"{second}-after-{first}")
    assert after == alone


def test_cli_import_leaves_numpy_random_unloaded():
    # The noise streams need numpy.random only once a study draws them.
    # numpy 2 loads it lazily, so importing it with the CLI would slow
    # down every command's start; numpy 1.x loads it with numpy itself,
    # so only what the CLI's import adds is checked.
    src = Path(stiffid.__file__).resolve().parents[1]
    code = ("import sys, numpy; pre = 'numpy.random' in sys.modules; "
            "import stiffid.cli; sys.exit(not pre and 'numpy.random' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


class TestFaultsTool:
    TOOL = Path(__file__).resolve().parents[1] / "tools" / "faults.py"

    def test_prints_median_time_and_faults(self, tmp_path):
        run = subprocess.run(
            [sys.executable, str(self.TOOL),
             "benchmark", "zero-detection", "--trials", "3", "--out", str(tmp_path)],
            capture_output=True, text=True, check=True)
        assert re.fullmatch(r"stiffid benchmark zero-detection --trials 3 --out \S+\n"
                            r"  20 calls after 3 warm-up: median \d+\.\d\d ms and "
                            r"\d+(\.5)? minor faults per call\n", run.stdout), run.stdout

    def test_failing_command_gives_its_exit_code(self, tmp_path):
        run = subprocess.run(
            [sys.executable, str(self.TOOL), "benchmark", "zero-detection",
             "--trials", "0", "--out", str(tmp_path / "none")],
            capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stdout == ""
        assert not (tmp_path / "none").exists()
