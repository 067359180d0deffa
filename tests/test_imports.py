"""``import polyagg`` loads scipy's compiled HiGHS, BLAS and LAPACK modules
from their files, without the ``scipy.optimize`` and ``scipy.linalg``
packages.  Import order matters here, so most cases run in a fresh
interpreter."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
import scipy

import polyagg as pa
from polyagg import _solver

SRC = str(pathlib.Path(pa.__file__).resolve().parents[1])
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")

# the rules of the console-script check: LPs, a MILP, walks and QR charts
RUN_EXPERIMENT = """
from polyagg import harness
spec = harness.ExperimentSpec(
    source={"generator": "simplex", "params": {"actions": 3}},
    rules=(harness.RuleSpec("utilitarian"), harness.RuleSpec("max-quantile"),
           harness.RuleSpec("borda-milp"), harness.RuleSpec("approval", {"alpha": 0.9}),
           harness.RuleSpec("veto-core")),
    seed=1, num_instances=1, samples=2000)
out = harness.run_experiment(spec)
assert len(out.rows) == 5 and not out.failures, out.failures
"""

S_SHAPED_CDF = """
m = pa.gen_from_max2sat(pa.CnfFormula(num_variables=2, clauses=((1, 2),)))
poly = pa.build_polytope(m)
cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 20_000, seed=23)
cdf = pa.estimate_cdf(cloud, m.rewards[0] * m.num_states, kind="logistic")
"""


def run_python(*blocks):
    """Run the code ``blocks``, one after the other, in a fresh interpreter
    and return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "\n".join(textwrap.dedent(block) for block in blocks)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_run_imports_no_scipy_package():
    loaded = run_python("""
        import json, sys
        import polyagg as pa
    """, RUN_EXPERIMENT, f"""
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_scipy_imported_after_polyagg_shares_its_modules():
    checks = run_python("""
        import json
        import polyagg as pa
    """, RUN_EXPERIMENT, """
        import scipy.linalg.blas
        import scipy.optimize
        import scipy.optimize._highspy._core as core
        res = scipy.optimize.linprog([1.0, 2.0], bounds=[(1, 3), (-1, 2)])
        print(json.dumps([res.status, res.fun,
                          core._Highs is pa._solver._Highs,
                          scipy.linalg.blas.dger is pa.volume.dger,
                          hasattr(scipy.linalg, "_flapack")]))
    """)
    assert checks == [0, -1.0, True, True, True]


def test_polyagg_imported_after_scipy_reuses_its_modules():
    checks = run_python("""
        import json, sys
        import scipy.linalg
        import scipy.linalg.blas
        import scipy.optimize
        import polyagg as pa
    """, RUN_EXPERIMENT, """
        print(json.dumps([pa._solver._core is sys.modules["scipy.optimize._highspy._core"],
                          pa.volume._flapack is scipy.linalg._flapack,
                          pa.volume.dger is scipy.linalg.blas.dger]))
    """)
    assert checks == [True, True, True]


def test_logistic_fit_imports_scipy_optimize_on_first_fit():
    before, after, kind, params = run_python("""
        import json, sys
        import polyagg as pa
        before = "scipy.optimize" in sys.modules
    """, S_SHAPED_CDF, """
        print(json.dumps([before, "scipy.optimize" in sys.modules, cdf.kind, cdf.params]))
    """)
    namespace = {"pa": pa}
    exec(S_SHAPED_CDF, namespace)
    assert (before, after, kind) == (False, True, "logistic")
    assert tuple(params) == namespace["cdf"].params


def test_broken_scipy_optimize_raises_on_a_logistic_fit(simplex3, monkeypatch):
    # an import failure is not a failed fit: it must not quietly fall back
    # to the empirical cdf
    poly = pa.build_polytope(simplex3)
    cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 500, seed=11)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError):
        pa.estimate_cdf(cloud, simplex3.rewards[0], kind="logistic")


def test_missing_compiled_module_names_itself_and_scipy():
    with pytest.raises(ImportError, match=f"^scipy {scipy.__version__} has no compiled "
                                          r"module scipy\.linalg\._no_such_module$"):
        _solver._scipy_extension("linalg._no_such_module")
