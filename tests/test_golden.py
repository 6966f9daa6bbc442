"""Byte-identity of CLI outputs against files captured before a refactor.

The determinism tests compare two runs of the same code; these compare the
current code with stored outputs, so a change meant to keep the numbers
(a refactor, a moved computation) must reproduce them bit for bit.  The
files in ``tests/golden/`` were written by the CLI at the commit before the
single-pass moment refactor, with the commands below run in one directory
(numpy 2.4.6, scipy 1.17.1, Python 3.11).  Paths are relative, so the
provenance records in the outputs do not depend on where the test runs.

``estimate.json`` was re-captured when ``long_run_cov`` moved from inverse
FFTs of the cross-spectrum to the Bartlett spectral window: the rounding of
``covariance.A``, ``covariance.Sigma`` and ``intervals`` changed by at most
1.1e-13 relative, while every other field and every other file stayed
byte-identical.

``estimate.json`` and ``gcurve_input.csv`` were re-captured again when the
moments came to be summed in blocks with ``X^3`` as ``X^2 * X`` (no
``np.power``) and ``long_run_cov`` to use closed-form Fejer weights and one
Gram product.  ``scripts/golden_drift.py`` measured the largest change of
each field over its largest magnitude: moments and estimates <= 2.4e-16,
``covariance.A`` 1.0e-15, ``covariance.Sigma`` 5.4e-14, intervals
<= 9.8e-14, gcurve ``g`` 5.3e-16 and ``g_prime`` 9.1e-14; the other five
files stayed byte-identical.

``estimate.json`` was re-captured once more when the default ``A`` became
the model's closed-form long-run covariance at the estimates (the Bartlett
HAC now runs only for an explicit ``--bandwidth``) and ``sigma_matrix``
came to take the plug-in moments.  This changes numbers, not rounding:
``scripts/golden_drift.py`` measured ``covariance.A`` 3.8, ``Sigma`` 0.63,
``intervals.theta`` 0.077 and the other intervals 0.24-1.95 (the ``phi``
upper endpoint became unbounded), ``covariance.bandwidth`` became null,
and ``covariance.method``, ``covariance.sigma_min_eigenvalue_ratio`` and
``diagnostics.jacobian_condition`` were added.  Estimates, moments and the
other six files stayed byte-identical.  ``estimate --bandwidth 13`` on the
golden path (13 is the old automatic bandwidth) still reproduces the
previous file's ``covariance.A`` byte for byte.

``estimate.json``, ``experiment.csv``, ``gcurve_f.csv`` and
``gcurve_input.csv`` were re-captured when g(p) came to be evaluated with
products in place of ``**`` cubes, the root refine moved from
``scipy.optimize.brentq`` to the in-package port of the same algorithm,
and the normal quantile from ``scipy.special.ndtri`` to
``statistics.NormalDist``.  ``scripts/golden_drift.py`` measured:
intervals <= 8.2e-16 (``eta``; the others <= 2.4e-16), the estimates of
``experiment.csv`` <= 4.4e-16, gcurve ``g`` <= 5.4e-16 and ``g_prime``
<= 1.9e-13; ``diagnostics.correlation_length`` was added to
``estimate.json``.  Its estimates and moments and the other three files
stayed byte-identical.

``path.csv``, ``estimate.json``, ``experiment.csv`` and
``gcurve_input.csv`` were re-captured when ``simulate_path`` came to run
the AR(1) recursion in place with numpy (a blocked, scaled cumulative sum)
in place of ``scipy.signal.lfilter``.  The jump sums are the same draws bit
for bit, so the paths are the same realizations; only the rounding of
``x`` changed.  ``scripts/golden_drift.py`` measured: ``x`` 3.9e-16, the
estimates <= 4.7e-15 (``theta``), the moments <= 8.2e-16, ``f``
<= 4.4e-15, ``covariance.A`` 3.9e-16, ``Sigma`` 8.6e-13, the intervals
<= 1.5e-13 (``theta``), the diagnostics <= 3.3e-13
(``sigma_min_eigenvalue_ratio``), the estimates of ``experiment.csv``
<= 4.4e-16, gcurve ``g`` 1.0e-14 and ``g_prime`` 4.6e-13.  The other
three files stayed byte-identical.  The path before this change is kept,
byte for byte, as ``tests/fixtures/hac_path.csv``: the HAC test below is
pinned to it.
"""

import json
from pathlib import Path

import numpy as np

from dexpou.cli import main

GOLDEN = Path(__file__).parent / "golden"
# the golden path.csv as simulated through scipy.signal.lfilter, the input
# of the HAC figures below
HAC_PATH = Path(__file__).parent / "fixtures" / "hac_path.csv"

# (argv, files it writes, expected standard output), run in this order
RUNS = [
    (["simulate", "--n", "2000", "--seed", "5", "--out", "path.csv"],
     ["path.csv", "path.meta.json"], "path.csv\n"),
    (["estimate", "path.csv", "--out", "estimate.json"],
     ["estimate.json"], ""),
    (["experiment", "--seeds", "3", "--n-values", "50,200",
      "--out", "experiment.csv"],
     ["experiment.csv", "experiment.meta.json"], "experiment.csv\n"),
    (["gcurve", "--f1", "0.25", "--f2", "0.5729", "--f3", "0.2496",
      "--grid", "101", "--out", "gcurve_f.csv"],
     ["gcurve_f.csv"], "sign_change_count=1\n"),
    (["gcurve", "--input", "path.csv", "--out", "gcurve_input.csv"],
     ["gcurve_input.csv"], "sign_change_count=1\n"),
]


def test_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, files, stdout in RUNS:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == stdout, argv
        for name in files:
            assert (tmp_path / name).read_bytes() == \
                (GOLDEN / name).read_bytes(), f"{name} differs from golden"


def test_golden_set_is_complete():
    written = {name for _, files, _ in RUNS for name in files}
    assert written == {p.name for p in GOLDEN.iterdir()}


# covariance.A, Sigma and intervals of estimate.json before the model's A
# became the default, when the automatic HAC bandwidth of this path was 13
HAC_A = [
    [3.757739870273678, 5.209103663210793, 18.64078881734954,
     5.001601231083301],
    [5.209103663210793, 17.34126718409573, 52.86796222228488,
     16.616499261915273],
    [18.64078881734954, 52.86796222228488, 197.78701900873122,
     50.809961872719065],
    [5.001601231083301, 16.616499261915273, 50.809961872719065,
     15.940456214420967],
]
HAC_SIGMA_DIAG = [20.12482474534432, 74.69308820732971, 59.344638719606735,
                  441.5613805222069]
HAC_INTERVALS = {
    "p": [0.33130448977575555, 0.724616984396846],
    "rho": [0.6758067165713786, 1.4335322071267516],
    "xi": [0.28248661284343707, 0.9578887565834189],
    "theta": [1.3512920807088036, 3.1936212610058807],
}


def test_hac_bandwidth_reproduces_previous_default(tmp_path, monkeypatch):
    # the HAC path is unchanged: A bit for bit; Sigma and the intervals
    # moved only with sigma_matrix's switch to the plug-in moments
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", str(HAC_PATH), "--bandwidth", "13",
                 "--out", "hac.json"]) == 0
    payload = json.loads((tmp_path / "hac.json").read_text())
    assert payload["covariance"]["A"] == HAC_A
    assert payload["covariance"]["method"] == "hac"
    assert np.allclose(np.diag(payload["covariance"]["Sigma"]),
                       HAC_SIGMA_DIAG, rtol=1e-12, atol=0)
    for name, expect in HAC_INTERVALS.items():
        assert np.allclose(payload["intervals"][name], expect,
                           rtol=1e-12, atol=0)
