"""exitlab imports on numpy alone; scipy loads at the first theory call.

pytest itself imports scipy, so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import exitlab

FLOW = """
model.lambdas = 1.0, 0.5
domain.lower = -0.5
domain.upper = 0.5
domain.inner = ball:1.0
domain.outer = ball:2.0
threshold.alpha = 1.5
sweep.epsilons = 0.2, 0.1
initial.points = 0.3, -0.2
estimator.dt = 0.002
diagnostic.time = 0.2
"""
# FLOW's alpha = 1.5 takes the interior branch.  At alpha * lambda_2 = 1 the
# critical coordinate's boundary probability needs erfc, from scipy.special.
BOUNDARY = FLOW.replace("threshold.alpha = 1.5", "threshold.alpha = 2.0")

SCRIPT = r"""
import json, sys

import exitlab
from exitlab.harness import run_density_report, run_flow_report, run_predict


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


flow_text, boundary_text = sys.argv[1:]
cfg = exitlab.parse_config(flow_text)
after_parse = scipy_modules()
run_flow_report(cfg)
run_density_report(cfg)
out = {"after_parse": after_parse, "after_flow_and_density": scipy_modules()}
for name, text in (("interior", flow_text), ("boundary", boundary_text)):
    record = run_predict(exitlab.parse_config(text))
    out[name] = {
        "rows": [[r.psi, r.phi_minus, r.phi_plus] for r in record.rows],
        "scipy_stamp": record.environment["scipy"],
        "special_loaded": "scipy.special" in sys.modules,
    }
print(json.dumps(out))
"""

# (psi, phi_minus, phi_plus) of each row (one per epsilon), as the code
# computed them when it imported scipy at module level; json round-trips
# each float exactly
PARENT_ROWS = {
    "interior": [[0.5156304548094816, 0.8146612656237214, 8.250087276951884]] * 2,
    "boundary": [[0.19385011961211682, 0.3764938565832156, 7.8389543529446515]] * 2,
}


@pytest.fixture(scope="module")
def fresh_run():
    src = str(Path(exitlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, FLOW, BOUNDARY],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_parse_flow_and_density_load_no_scipy(fresh_run):
    assert fresh_run["after_parse"] == []
    assert fresh_run["after_flow_and_density"] == []


@pytest.mark.parametrize("branch", ["interior", "boundary"])
def test_predict_rows_and_stamp_unchanged(fresh_run, branch):
    got = fresh_run[branch]
    assert got["rows"] == PARENT_ROWS[branch]
    assert got["scipy_stamp"] == scipy.__version__


def test_scipy_special_loads_only_on_the_boundary_branch(fresh_run):
    assert not fresh_run["interior"]["special_loaded"]
    assert fresh_run["boundary"]["special_loaded"]
