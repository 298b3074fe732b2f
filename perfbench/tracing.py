"""Span tracing of rdmft from outside the package, and the per-layer metrics.

``Tracer.install`` replaces the public functions listed in WRAPPED in every
``rdmft`` module namespace that binds them, the ``CHECK_REGISTRY`` entries of
``rdmft.verify``, the ``ConfigurationBasis.hop_terms`` property, the
``DensityOperator`` validating constructor, and the numpy kernels
``linalg.eigh``, ``linalg.eigvalsh`` and ``einsum``.  Each call records a
span (name, start, end, parent span, operation id) in memory.  Private
helpers are not wrapped: their time shows as the caller's self time and as
kernel spans.  A kernel span is attributed to the innermost rdmft span
around it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, defining module, attribute)
WRAPPED = (
    ("fock.lift_one_body", "rdmft.fock", "lift_one_body"),
    ("fock.lift_two_body", "rdmft.fock", "lift_two_body"),
    ("models.build_system", "rdmft.models", "build_system"),
    ("ensemble.gibbs_state", "rdmft.ensemble", "gibbs_state"),
    ("ensemble.entropy", "rdmft.ensemble", "entropy"),
    ("ensemble.one_rdm", "rdmft.ensemble", "one_rdm"),
    ("functional.invert_potential", "rdmft.functional", "invert_potential"),
    ("functional.omega_of_v", "rdmft.functional", "omega_of_v"),
    ("functional.potential_basis", "rdmft.functional", "potential_basis"),
    ("representability.coleman", "rdmft.representability", "coleman_fermionic"),
    ("representability.coleman", "rdmft.representability", "coleman_bosonic"),
    ("representability.random_rdm", "rdmft.representability", "random_rdm"),
    ("serialize.dump_json", "rdmft.serialize", "dump_json"),
    ("serialize.write_csv", "rdmft.serialize", "write_csv"),
    ("cli.main", "rdmft.cli", "main"),
)
KERNELS = {"linalg.eigh", "linalg.eigvalsh", "numpy.einsum"}

# the checks of the pinned verify grid, in rdmft.verify.ALL_CHECKS order
CHECKS = (
    "omega_concavity",
    "injectivity",
    "entropy_concavity",
    "f_convexity",
    "gradient",
    "coleman",
    "fractional_occupations",
    "gibbs_minimality",
)

_SPAN_METRICS = (
    "fock.lift_two_body",
    "fock.lift_one_body",
    "fock.density_operator",
    "models.build_system",
    "ensemble.gibbs_state",
    "ensemble.entropy",
    "ensemble.one_rdm",
    "functional.invert_potential",
    "functional.omega_of_v",
    "representability.coleman",
    "cli.main",
)

# every per-layer metric with its unit, in report order
PER_LAYER = (
    [("fock.hop_terms_s", "s")]
    + [(f"{name}.{kind}", unit) for name in _SPAN_METRICS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("functional.potential_basis.calls", "count"),
        ("functional.newton_iterations", "count"),
        ("functional.thermal_evals", "count"),
        ("functional.eval_ratio", "ratio"),
        ("functional.eigh_share", "ratio"),
        ("functional.einsum.calls", "count"),
        ("functional.einsum.s", "s"),
        ("functional.nonconverged", "count"),
        ("functional.lifted_stack_bytes", "computed_bytes"),
        ("representability.random_rdm.self_s", "s"),
    ]
    + [(f"verify.check.{check}.s", "s") for check in CHECKS]
    + [
        ("verify.trials", "count"),
        ("verify.trial_failures", "count"),
        ("serialize.dump_json.calls", "count"),
        ("serialize.dump_json.s", "s"),
        ("serialize.write_csv.calls", "count"),
        ("serialize.write_csv.s", "s"),
        ("serialize.bytes_written", "bytes"),
        ("linalg.eigh.calls", "count"),
        ("linalg.eigh.s", "s"),
        ("linalg.eigvalsh.calls", "count"),
        ("linalg.eigvalsh.s", "s"),
        ("linalg.computed_flops", "computed_flop"),
        ("trace_overhead_frac", "ratio"),
    ]
)


def eig_flops(shape, dtype, vectors: bool) -> float:
    """Computed flop count of a dense Hermitian eigensolve of order n:
    4n^3/3 for eigenvalues alone, 9n^3 with eigenvectors (Golub & Van Loan,
    Matrix Computations, sec. 8.3), times 4 for complex arithmetic, times
    the number of stacked matrices."""
    n = shape[-1]
    real = (9.0 if vectors else 4.0 / 3.0) * n**3 * float(np.prod(shape[:-2]))
    return real * (4.0 if np.issubdtype(dtype, np.complexfloating) else 1.0)


def stack_bytes(system) -> float:
    """Computed size of the lifted potential-basis stack, (nb^2-1) dim^2 complex."""
    basis = system.basis
    return float((basis.nb**2 - 1) * basis.dim**2 * 16)


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.active = True
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self) -> None:
        import numpy.linalg

        import rdmft.fock
        import rdmft.verify

        for _, module, _ in WRAPPED:
            importlib.import_module(module)
        hooks = _hooks()
        modules = [m for name, m in sorted(sys.modules.items()) if name == "rdmft" or name.startswith("rdmft.")]
        for span, module, attr in WRAPPED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(span, original, hooks.get(span))
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, bound, wrapper)
        registry = rdmft.verify.CHECK_REGISTRY
        for check, fn in list(registry.items()):
            registry[check] = self.wrap(f"verify.check.{check}", fn, _count_trials)
            self._undo.append((registry, check, fn))
        prop = rdmft.fock.ConfigurationBasis.__dict__["hop_terms"]
        traced_prop = functools.cached_property(self.wrap("fock.hop_terms", prop.func))
        traced_prop.__set_name__(rdmft.fock.ConfigurationBasis, "hop_terms")
        self._replace(rdmft.fock.ConfigurationBasis, "hop_terms", traced_prop)
        cls = rdmft.fock.DensityOperator
        self._replace(cls, "__post_init__", self.wrap("fock.density_operator", cls.__post_init__))
        for span, attr in (("linalg.eigh", "eigh"), ("linalg.eigvalsh", "eigvalsh")):
            original = getattr(numpy.linalg, attr)
            self._replace(numpy.linalg, attr, self.wrap(span, original, _flop_counter(attr == "eigh")))
        self._replace(np, "einsum", self.wrap("numpy.einsum", np.einsum))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op id."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def _flop_counter(vectors: bool):
    def after(counters, args, kwargs, result):
        a = np.asarray(args[0] if args else kwargs["a"])
        counters["linalg.computed_flops"] += eig_flops(a.shape, a.dtype, vectors)

    return after


def _count_trials(counters, args, kwargs, report):
    counters["verify.trials"] += report.trials
    counters["verify.trial_failures"] += report.failures


def _hooks() -> dict:
    def lifted(counters, args, kwargs, result):
        system = args[1] if len(args) > 1 else kwargs["system"]
        key = "functional.lifted_stack_bytes"
        counters[key] = max(counters[key], stack_bytes(system))

    def inversion(counters, args, kwargs, report):
        counters["functional.newton_iterations"] += report.iterations
        counters["functional.nonconverged"] += report.verdict.value != "converged"
        lifted(counters, args, kwargs, report)

    def json_bytes(counters, args, kwargs, path):
        counters["serialize.bytes_written"] += _file_bytes(path)

    def csv_bytes(counters, args, kwargs, path):
        counters["serialize.bytes_written"] += _file_bytes(path) + _file_bytes(Path(path).with_suffix(".meta.json"))

    return {
        "functional.invert_potential": inversion,
        "functional.omega_of_v": lifted,
        "serialize.dump_json": json_bytes,
        "serialize.write_csv": csv_bytes,
    }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Aggregate spans into the PER_LAYER metrics, all but trace_overhead_frac,
    which needs the untraced run.

    Self time is a span's duration minus that of its direct children (the
    run is single-threaded, so children never overlap).  A ratio whose base
    is zero on this workload is reported as 0.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    kernel_calls: dict[tuple[str, str], int] = defaultdict(int)
    kernel_time: dict[tuple[str, str], float] = defaultdict(float)
    functional_busy = 0.0
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += duration[i]
        self_time[name] += duration[i] - child_time[i]
        outer = parent
        if name in KERNELS:
            while outer >= 0 and spans[outer][0] in KERNELS:
                outer = spans[outer][3]
            owner = _layer(spans[outer][0]) if outer >= 0 else "benchmark"
            kernel_calls[(owner, name)] += 1
            kernel_time[(owner, name)] += duration[i]
        elif _layer(name) == "functional":
            while outer >= 0 and _layer(spans[outer][0]) != "functional":
                outer = spans[outer][3]
            if outer < 0:
                functional_busy += duration[i]

    m: dict[str, float] = {"fock.hop_terms_s": total["fock.hop_terms"]}
    for name in _SPAN_METRICS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_time[name]
    thermal_evals = kernel_calls[("functional", "linalg.eigh")]
    newton = counters.get("functional.newton_iterations", 0)
    m.update(
        {
            "functional.potential_basis.calls": calls["functional.potential_basis"],
            "functional.newton_iterations": newton,
            "functional.thermal_evals": thermal_evals,
            "functional.eval_ratio": newton / thermal_evals if thermal_evals else 0.0,
            "functional.eigh_share": (
                kernel_time[("functional", "linalg.eigh")] / functional_busy if functional_busy else 0.0
            ),
            "functional.einsum.calls": kernel_calls[("functional", "numpy.einsum")],
            "functional.einsum.s": kernel_time[("functional", "numpy.einsum")],
            "functional.nonconverged": counters.get("functional.nonconverged", 0),
            "functional.lifted_stack_bytes": counters.get("functional.lifted_stack_bytes", 0),
            "representability.random_rdm.self_s": self_time["representability.random_rdm"],
        }
    )
    for check in CHECKS:
        m[f"verify.check.{check}.s"] = total[f"verify.check.{check}"]
    m.update(
        {
            "verify.trials": counters.get("verify.trials", 0),
            "verify.trial_failures": counters.get("verify.trial_failures", 0),
            "serialize.dump_json.calls": calls["serialize.dump_json"],
            "serialize.dump_json.s": total["serialize.dump_json"],
            "serialize.write_csv.calls": calls["serialize.write_csv"],
            "serialize.write_csv.s": total["serialize.write_csv"],
            "serialize.bytes_written": counters.get("serialize.bytes_written", 0),
            "linalg.eigh.calls": calls["linalg.eigh"],
            "linalg.eigh.s": total["linalg.eigh"],
            "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
            "linalg.eigvalsh.s": total["linalg.eigvalsh"],
            "linalg.computed_flops": counters.get("linalg.computed_flops", 0.0),
        }
    )
    return {name: float(value) for name, value in m.items()}
