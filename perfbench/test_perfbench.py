"""Tests of the benchmark itself: metric names, seeding, and that every
oracle check rejects a deliberately perturbed output.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from circ2crn.circuit import build_dae, parse_netlist  # noqa: E402
from circ2crn.cli import main as cli_main  # noqa: E402
from circ2crn.crn import parse_crn, serialize_crn  # noqa: E402
from circ2crn.dae import reference_solve  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
H, DT = workloads.H, workloads.DT


@pytest.fixture(autouse=True)
def _quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _cli(*argv):
    assert cli_main([str(a) for a in argv]) == 0


def _rescale_first_rate(crn_text: str, factor: float) -> str:
    lines = crn_text.splitlines()
    i = next(i for i, ln in enumerate(lines) if "->{" in ln)
    left, rest = lines[i].split("->{", 1)
    rate, right = rest.split("}", 1)
    lines[i] = f"{left}->{{{float(rate) * factor!r}}}{right}"
    return "\n".join(lines) + "\n"


def _scale_column(csv_text: str, column: str, factor: float) -> str:
    header, *rows = csv_text.strip().split("\n")
    j = header.split(",").index(column)
    out = [header]
    for row in rows:
        cells = row.split(",")
        cells[j] = repr(float(cells[j]) * factor)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layers + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert e2e == list(run.END_TO_END)
    assert layers == [name for name, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path).inputs()
    assert first == cls(7, tmp_path).inputs()
    assert first != cls(8, tmp_path).inputs()
    for text in first.values():
        parse_netlist(text)


def test_verify_check_rejects_fail_and_bad_exit():
    ok = "sup_error=0.0111699 tol=0.05 PASS\n"
    assert oracles.check_verify(0, ok, 0.05) == pytest.approx(0.0111699)
    for code, out in [(0, "sup_error=0.0611699 tol=0.05 FAIL\n"),
                      (0, "sup_error=0.0611699 tol=0.1 PASS\n"),
                      (1, ok), (0, "")]:
        with pytest.raises(CheckFailed):
            oracles.check_verify(code, out, 0.05)


@pytest.fixture(scope="module")
def ladder3(tmp_path_factory):
    """A compiled 3-section ladder and its one-step simulation."""
    d = tmp_path_factory.mktemp("ladder3")
    rs, ls = [0.9, 1.1, 1.2], [1.15, 0.85, 1.0]
    (d / "l.cir").write_text(oracles.ladder_netlist(rs, ls))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _cli("compile", d / "l.cir", "-o", d / "l.crn")
        _cli("simulate", d / "l.crn", "-T", repr(DT), "-o", d / "l.csv")
    return rs, ls, (d / "l.crn").read_text(), (d / "l.csv").read_text()


def test_hand_pencil_matches_program_pencil():
    rs, ls = [0.9, 1.1, 1.2], [1.15, 0.85, 1.0]
    E, A, B, names = oracles.ladder_pencil(rs, ls)
    sys_, _ = build_dae(parse_netlist(oracles.ladder_netlist(rs, ls)))
    assert set(names) == set(sys_.state_names)
    perm = [names.index(nm) for nm in sys_.state_names]
    M, Mp = E - H * A, sys_.E - H * sys_.A
    F = np.linalg.solve(M, A)[np.ix_(perm, perm)]
    np.testing.assert_allclose(F, np.linalg.solve(Mp, sys_.A), atol=1e-12)


def test_field_check_rejects_a_changed_rate(ladder3):
    rs, ls, crn_text, _ = ladder3
    oracle = oracles.RailOracle(rs, ls, H)
    point = np.random.default_rng(0).uniform(0.0, 1.0, len(parse_crn(crn_text).species))
    assert oracles.check_field(parse_crn(crn_text), oracle, point, 1e-9) < 1e-12
    bad = parse_crn(_rescale_first_rate(crn_text, 1.0 + 1e-6))
    with pytest.raises(CheckFailed):
        oracles.check_field(bad, oracle, point, 1e-9)


def test_one_step_check_rejects_a_scaled_column(ladder3):
    rs, ls, crn_text, csv_text = ladder3
    net, oracle = parse_crn(crn_text), oracles.RailOracle(rs, ls, H)
    assert oracles.check_one_step(csv_text, net, oracle, DT, 1e-9) < 1e-12
    column = next(sp for sp in net.species if net.init.get(sp, 0.0) > 0.0)
    with pytest.raises(CheckFailed):
        oracles.check_one_step(_scale_column(csv_text, column, 1.001), net, oracle, DT, 1e-9)


def test_trajectory_check_rejects_a_scaled_output(tmp_path):
    rs, ls = [0.9, 1.1], [1.15, 0.85]
    text = oracles.ladder_netlist(rs, ls)
    (tmp_path / "l.cir").write_text(text)
    _cli("compile", tmp_path / "l.cir", "-o", tmp_path / "l.crn")
    _cli("simulate", tmp_path / "l.crn", "-T", "0.5", "-o", tmp_path / "l.csv")
    sys_, inp = build_dae(parse_netlist(text))
    ref = reference_solve(sys_, inp, np.zeros(sys_.n), 0.5, H / 100.0)
    csv_text = (tmp_path / "l.csv").read_text()
    assert oracles.check_trajectory(csv_text, "v3", ref, 0.05) < 0.05
    with pytest.raises(CheckFailed):
        oracles.check_trajectory(_scale_column(csv_text, "v3", 1.5), "v3", ref, 0.05)


def test_freq_check_rejects_changed_gain_or_phase():
    E, A, B, _ = oracles.ladder_pencil([1.0], [1.0])
    expected = [(w, oracles.shifted_response(E, A, B, 0, H, w)) for w in (1.0, 2.5)]

    def csv(gain_factor=1.0, phase_shift=0.0):
        rows = ["omega,gain,phase_deg"] + [
            f"{w!r},{float(abs(Hw)) * gain_factor!r},"
            f"{float(np.degrees(np.angle(Hw))) + phase_shift!r}"
            for w, Hw in expected]
        return "\n".join(rows) + "\n"

    assert oracles.check_freq(csv(), expected, 1e-5) < 1e-12
    # the shifted RL filter at h = 0.01, omega = 1: gain 0.70354, phase 44.142 deg
    assert abs(expected[0][1]) == pytest.approx(0.70354, abs=1e-5)
    assert np.degrees(np.angle(expected[0][1])) == pytest.approx(44.142, abs=1e-3)
    for bad in (csv(gain_factor=1.0001), csv(phase_shift=0.01)):
        with pytest.raises(CheckFailed):
            oracles.check_freq(bad, expected, 1e-5)


def test_replica_comparison_rejects_a_changed_rate(ladder3):
    _, _, crn_text, _ = ladder3
    cmd = workloads.Command("compile", "l.cir", out="l.crn")
    assert workloads.same_artifact(cmd, serialize_crn(parse_crn(crn_text)), crn_text)
    assert not workloads.same_artifact(cmd, _rescale_first_rate(crn_text, 1.0 + 1e-15), crn_text)


def test_traced_run_reports_every_layer_metric():
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "simulate_ladder",
                        "--seed", "3", "--seconds", "0", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in tracing.PER_LAYER]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    p = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                        "verify_fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
