"""scripts/bits_against.py: an A/A run matches, and one ulp shows."""

import copy
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bits_against  # noqa: E402
from test_estimate import CRITERION_6_POINTS  # noqa: E402


def test_probes_are_criterion_6_points():
    assert bits_against.POINTS == tuple(
        ((params.theta, params.eta, params.phi, params.p), h)
        for params, h in CRITERION_6_POINTS)


def test_a_a_run_exits_0(capsys):
    assert bits_against.main([str(ROOT), "--reps", "2"]) == 0
    assert capsys.readouterr().out.startswith("12 cases match")


def test_reports_a_one_ulp_change():
    out = io.StringIO()
    bits_against.emit(1, out=out)
    ours = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(ours) == 6
    assert bits_against.first_difference(ours, copy.deepcopy(ours)) is None
    fitted = [i for i, record in enumerate(ours) if "Sigma" in record]
    assert fitted
    theirs = copy.deepcopy(ours)
    sigma = theirs[fitted[-1]]["Sigma"]
    sigma[5] = math.nextafter(float.fromhex(sigma[5]), math.inf).hex()
    point, n, rep = ours[fitted[-1]]["case"]
    assert bits_against.first_difference(ours, theirs) == (
        f"point {point}, n = {n}, replication {rep}: Sigma[5] is "
        f"{ours[fitted[-1]]['Sigma'][5]!r} here and {sigma[5]!r} there")
