"""Span bookkeeping, self-time arithmetic and the rebinding of traced calls."""

import types

import numpy as np
import pytest

from spans import (Tracer, first_solve_peak, installed, layer_times, library_targets,
                   timed, traced_neighbors)


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # solve [0, 10] holds eigh [1, 3] and eigvalsh [4, 9], which holds eigh [5, 6]
    tr = Tracer(clock=ticking_clock([0, 1, 3, 4, 5, 6, 9, 10]))
    solve = tr.open("sdp.solve")
    e = tr.open("linalg.eigh")
    tr.close(e)
    v = tr.open("linalg.eigvalsh")
    inner = tr.open("linalg.eigh")
    tr.close(inner)
    tr.close(v)
    tr.close(solve)
    t = layer_times(tr)
    assert t["sdp.solve"].total_s == 10
    assert t["sdp.solve"].self_s == 10 - 2 - 5
    assert t["linalg.eigvalsh"].self_s == 5 - 1
    assert t["linalg.eigh"].total_s == 3 and t["linalg.eigh"].calls == 2


def test_under_keeps_only_spans_whose_innermost_parent_is_named():
    tr = Tracer(clock=ticking_clock(range(100)))
    with tr.span("sdp.solve"):
        with tr.span("linalg.eigh"):
            pass
    with tr.span("certificates.build"):
        with tr.span("linalg.eigh"):
            pass
    with tr.span("linalg.eigh"):
        pass
    t = layer_times(tr, {"linalg.eigh": ("sdp.solve",)})
    assert t["linalg.eigh"].calls == 1
    # build spans [4, 7]; its eigh [5, 6] is still its child for self time
    assert t["certificates.build"].self_s == 2


def test_spans_record_parent_and_operation():
    tr = Tracer(clock=ticking_clock(range(100)))
    tr.op = "op-3"
    with tr.span("bench.op"):
        with tr.span("sdp.solve"):
            pass
    assert tr.parents.tolist() == [-1, 0]
    assert tr.ops == ["op-3", "op-3"]


def test_out_of_order_close_raises():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_installed_rebinds_and_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tr = Tracer()
    with installed(tr, [(mod, "f", timed("mod.f"))]):
        assert mod.f(1) == 2
        assert mod.f is not original
    assert mod.f is original
    assert tr.names == ["mod.f"]


def test_abandoned_neighbour_generator_leaves_no_open_span():
    tr = Tracer()
    wrapped = traced_neighbors(tr, lambda: iter(range(5)))
    gen = wrapped()
    assert next(gen) == 0 and next(gen) == 1
    gen.close()
    with tr.span("after"):
        pass
    assert tr.parents[-1] == -1
    assert tr.counts["graph.neighbors.count"] == 2


def test_library_eigh_is_a_child_of_the_solve_that_called_it():
    from sbmdp import models, sdp

    params = models.BasbmParams(n=8, a=3.5, b=0.5, rho=0.5)
    g, _ = models.generate(params, 4)
    tr = Tracer()
    with installed(tr, library_targets()):
        sdp.recover(g, params, sdp.SolveOptions(max_iters=30, certify_every=10))
    assert np.linalg.eigh.__name__ == "eigh" and sdp.solve.__module__ == "sbmdp.sdp"
    t = layer_times(tr, {"linalg.eigh": ("sdp.solve",)})
    assert t["sdp.solve"].calls == 1
    assert t["linalg.eigh"].calls == tr.counts["sdp.solve.iterations"] + 1
    assert 0 <= t["sdp.solve"].self_s <= t["sdp.solve"].total_s


def test_first_solve_peak_stops_after_one_solve():
    from sbmdp import models, sdp

    params = models.BasbmParams(n=8, a=3.5, b=0.5, rho=0.5)
    g, _ = models.generate(params, 4)
    calls = []

    def op():
        calls.append(1)
        sdp.recover(g, params)
        calls.append(2)

    assert first_solve_peak(op) > 8 * 8 * 8
    assert calls == [1]
