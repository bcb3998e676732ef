"""The traced benchmark wraps smbg functions by name; each name must still resolve."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, trace_targets  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_targets_install_and_restore(tmp_path, name):
    workload = WORKLOADS[name](seed=0, workdir=str(tmp_path))
    targets = trace_targets(workload)
    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in targets]
    modules = [m for n, m in sys.modules.items() if n == "smbg" or n.startswith("smbg.")]
    before = [(m, dict(vars(m))) for m in modules]
    tracer = Tracer()
    tracer.install(targets)
    try:
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    for module, names in before:
        changed = [k for k, v in names.items() if vars(module).get(k) is not v]
        assert not changed, f"{module.__name__}: {changed} not restored"
