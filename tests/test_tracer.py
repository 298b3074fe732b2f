"""The benchmark's tracer (perfbench/tracing.py) against the package.

The tracer wraps rdmft names from outside the package, so a change in
src/rdmft can break the benchmark's traced mode.  This smoke test installs
and uninstalls it in process: every name it wraps must still exist, and
uninstalling must leave the package as it found it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from rdmft import fock, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every name bound in an rdmft module, with its value, and the two class
    attributes and two numpy kernels the tracer replaces."""
    classes = {("fock", "hop_terms"): vars(fock.ConfigurationBasis)["hop_terms"]}
    classes[("fock", "__post_init__")] = fock.DensityOperator.__post_init__
    kernels = {("numpy", "eigh"): np.linalg.eigh, ("numpy", "einsum"): np.einsum}
    return {
        **{
            (name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "rdmft" or name.startswith("rdmft.")
            for attr, value in vars(module).items()
        },
        **classes,
        **kernels,
    }


def test_install_wraps_every_name_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {(module, attr): getattr(importlib.import_module(module), attr) for _, module, attr in tracing.WRAPPED}
    plans = dict(verify.CHECK_REGISTRY)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            wrapper = getattr(sys.modules[module], attr)
            assert wrapper is not original and wrapper.__wrapped__ is original, f"{module}.{attr}"
        assert list(verify.CHECK_REGISTRY) == list(plans)
        for name, plan in plans.items():
            assert verify.CHECK_REGISTRY[name].__wrapped__ is plan, name
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert all(verify.CHECK_REGISTRY[name] is plan for name, plan in plans.items())
