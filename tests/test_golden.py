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
golden path (13 was the old automatic bandwidth) then reproduced the
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
three files stayed byte-identical.

``estimate.json`` was re-captured when the ``--bandwidth`` option and the
Bartlett HAC path it selected were removed, leaving the model's ``A`` as
the only covariance.  Three keys went: ``covariance.bandwidth`` (always
null), ``covariance.method`` (always ``"model"``) and
``provenance.options.bandwidth``.  ``scripts/golden_drift.py`` reported
those three fields as held by the golden file only, no other mismatch and
zero numeric drift; the other six files stayed byte-identical.

``estimate.json`` and ``experiment.csv`` were re-captured twice when the
g-scan and its Brent refine gave way to the closed-form root.  First the
root alone: ``scripts/golden_drift.py`` reported
``diagnostics.root_bracket``, ``sign_change_count``,
``g_prime_sign_constant`` and ``provenance.options.grid`` as held by the
golden file only, and drifts of the numbers that follow ``p``: estimates
<= 2.2e-15 (``xi``), ``covariance.A`` 2.6e-15, ``Sigma`` 8.1e-13,
``jacobian_condition`` 2.4e-15, ``sigma_min_eigenvalue_ratio`` 2.8e-13,
intervals <= 1.4e-13 (``theta``) and the estimates of ``experiment.csv``
<= 2.9e-16.  Then the covariance stage in standardised units, which on
this path (``max(rho, xi)`` in [1, 2)) halves ``rho`` and ``xi``:
``jacobian_condition`` moved by 0.157 (it is now taken at the
standardised point), ``Sigma`` by 2.1e-13 and the intervals by <= 3.5e-14,
while ``A`` and the estimates stayed byte-identical; and the ``median``
and ``iqr`` rows of ``N`` = 200 in ``experiment.csv`` gained the text
``2 of 3 failed``.  The other five files stayed byte-identical.
"""

from pathlib import Path

from dexpou.cli import main

GOLDEN = Path(__file__).parent / "golden"

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

