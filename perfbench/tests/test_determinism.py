"""Two passes with one seed reproduce quality and counts bit for bit."""

import pytest

from perfbench.workloads import fingerprint, one_pass

from .tiny import tiny


@pytest.mark.parametrize("name", ["serve-read", "serve-update"])
def test_same_seed_same_fingerprint(name, tmp_path):
    workload = tiny(name)
    first = fingerprint(one_pass(workload, 7, str(tmp_path / "a"), True))
    second = fingerprint(one_pass(workload, 7, str(tmp_path / "b"), True))
    assert first == second
    assert first["push_ops"] > 0 and first["edges"] > 0
    assert 0 < first["cache_hits"] < 40


def test_different_seed_different_operations(tmp_path):
    workload = tiny("serve-update")
    first = fingerprint(one_pass(workload, 7, str(tmp_path / "a"), True))
    other = fingerprint(one_pass(workload, 8, str(tmp_path / "b"), True))
    assert first["ops"] != other["ops"]
