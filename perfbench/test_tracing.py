"""Checks of the span tracer on a throwaway package."""

import sys
import time
import types

from tracing import EXTRA, NAME, Tracer, self_times


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        inner.leaf()
        inner.leaf()

    def top():
        inner.middle()
        time.sleep(0.001)

    inner.leaf, inner.middle, inner.top = leaf, middle, top
    pkg.top = top                      # re-export: a second binding
    sys.modules["fakepkg"] = pkg
    sys.modules["fakepkg.inner"] = inner
    return pkg, inner


def test_every_binding_is_patched_and_restored():
    pkg, inner = _fake_package()
    original = inner.top
    tracer = Tracer({"fakepkg.inner.top": None}, package="fakepkg")
    tracer.install()
    assert pkg.top is inner.top and pkg.top is not original
    pkg.top()
    tracer.uninstall()
    assert pkg.top is original and inner.top is original
    assert [s[NAME] for s in tracer.spans] == ["fakepkg.inner.top"]


def test_missing_function_is_reported_absent():
    _fake_package()
    tracer = Tracer({"fakepkg.inner.gone": None, "fakepkg.inner.leaf": None},
                    package="fakepkg")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["fakepkg.inner.gone"]


def test_self_times_sum_to_traced_wall_time():
    pkg, inner = _fake_package()
    names = ("top", "middle", "leaf")
    tracer = Tracer({f"fakepkg.inner.{n}": None for n in names}, package="fakepkg")
    tracer.install()
    t0 = time.perf_counter()
    pkg.top()
    wall = time.perf_counter() - t0
    tracer.uninstall()
    spans = tracer.spans
    assert [s[NAME].rsplit(".", 1)[1] for s in spans] == ["top", "middle", "leaf", "leaf"]
    selfs = self_times(spans)
    assert min(selfs) >= 0.0
    root = spans[0][2] - spans[0][1]
    assert abs(sum(selfs) - root) < 1e-9
    assert root <= wall


def test_raising_call_keeps_hook_data_and_error():
    pkg, inner = _fake_package()

    def boom():
        raise KeyError("x")

    inner.boom = boom
    tracer = Tracer({"fakepkg.inner.boom": lambda a, k, r: {"result": r}},
                    package="fakepkg")
    tracer.install()
    try:
        inner.boom()
    except KeyError:
        pass
    tracer.uninstall()
    assert tracer.spans[0][EXTRA] == {"result": None, "error": "KeyError"}
