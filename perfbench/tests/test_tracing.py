import importlib
import time

import pytest

from perfbench.tracing import TARGETS, Tracer, instrument
from perfbench.workloads import one_pass

from .tiny import tiny


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert outer.self_seconds == pytest.approx(
        outer.seconds - inner.seconds)
    assert tracer.self_seconds() == pytest.approx(outer.seconds)
    assert tracer.seconds("inner") == [inner.seconds]


def test_layer_time_leaves_out_container_self_time():
    tracer = Tracer()
    with tracer.span("serve.recommend"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    assert tracer.self_seconds() == pytest.approx(tracer.spans[1].seconds)


def _current(module_path, attribute):
    owner = importlib.import_module(module_path)
    *owners, leaf = attribute.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def test_instrument_restores_every_target():
    before = [_current(module, attribute)
              for _, module, attribute, _ in TARGETS]
    tracer = Tracer()
    with instrument(tracer):
        during = [_current(module, attribute)
                  for _, module, attribute, _ in TARGETS]
    after = [_current(module, attribute)
             for _, module, attribute, _ in TARGETS]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("name", ["fit-eval", "serve-read", "serve-update"])
def test_wrappers_leave_outputs_unchanged(name, tmp_path):
    workload = tiny(name)
    plain = one_pass(workload, 5, str(tmp_path / "plain"), traced=False)
    traced = one_pass(workload, 5, str(tmp_path / "traced"), traced=True)
    for field in ("recall", "ndcg", "prefix_digest", "push_ops",
                  "invalidated", "folded", "failed"):
        assert getattr(plain.loop, field) == getattr(traced.loop, field)
    assert plain.checks == traced.checks
    assert plain.checks["failed"] == 0
    assert plain.graph_cache == traced.graph_cache
    assert traced.tracer.count("serve.recommend") == 40
    assert traced.tracer.count("serve.update") == 4
    # every update densifies at least the rows it changes
    observed = traced.tracer.observations
    assert sum(observed["ppr.densified_rows"]) >= sum(
        observed["ppr.changed_rows"]) > 0
