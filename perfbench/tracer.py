"""Per-layer spans for the benchmark, recorded from outside the package.

A layer is one ``hpsig`` module.  :class:`Tracer` wraps the functions listed
in :data:`LAYERS`: every attribute of a loaded ``hpsig`` module that *is* a
listed function is rebound to a wrapper, a listed method is replaced on its
class, and a listed class has its ``__init__`` wrapped so that each
construction is a span.  The wrapper records calls, self time (the span's
duration minus the part covered by spans opened inside it) and, for the dense
factorisations in ``linalg``, the computed work ``m * n * min(m, n)`` of the
first argument's shape.  Nothing in the package is edited; code that holds a
reference taken before :meth:`Tracer.install` (a closure or a container) is
not seen, which is why the benchmark calls the package through module
attributes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("operator_norm", "min_singular_value", "spectral_split", "assemble_total"),
    "complexes": (
        "ChainComplex.total_boundary",
        "DualityOperator.total",
        "verify_duality",
        "duality_cone",
        "mapping_cone",
        "twist",
        "perturb_duality",
        "direct_sum",
    ),
    "groups": ("GroupAction", "k0_from_projections"),
    "signature": (
        "higson_roe_signature",
        "mishchenko_signature",
        "reduced_signature",
        "check_coincidence",
    ),
    "bordism": (
        "verify_with_boundary",
        "decompose",
        "boundary_complex",
        "boundary_signature_is_zero",
        "verify_cone_identities",
        "hyperbolic",
    ),
    "simplicial": (
        "enumerate_and_boundaries",
        "chain_action",
        "duality_operator",
        "verify_equivariance",
        "manifold_signature",
    ),
    "generate": ("generate_with_signature", "generate_with_boundary", "random_unitary"),
    "io": ("read_smf",),
    "cli": ("main",),
}

# Functions whose cost is one dense factorisation of their first argument.
WORK = ("linalg.operator_norm", "linalg.spectral_split", "linalg.min_singular_value")


class CoverageError(RuntimeError):
    """A listed function is missing, or no attribute was rebound to its wrapper."""


def _mnk(a) -> int:
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return 0
    m, n = int(shape[0]), int(shape[1])
    return m * n * min(m, n)


class Tracer:
    """Span recorder over the functions in :data:`LAYERS`; a context manager
    that installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS) -> None:
        self.layers = layers
        self.names = [f"{layer}.{q}" for layer, quals in layers.items() for q in quals]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.work = dict.fromkeys(WORK, 0)
        self._open: list[list[float]] = []  # child time covered, per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        work = self.work if name in self.work else None
        clock = time.perf_counter

        def span(*args, **kwargs):
            if work is not None and args:
                work[name] += _mnk(args[0])
            covered = [0.0]
            open_spans.append(covered)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                calls[name] += 1
                self_s[name] += dt - covered[0]
                if open_spans:
                    open_spans[-1][0] += dt

        return functools.wraps(fn)(span)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Rebind every listed function; raise :class:`CoverageError` when a
        listed name does not resolve or nothing was rebound for it."""
        for layer in self.layers:
            importlib.import_module(f"hpsig.{layer}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hpsig" or n.startswith("hpsig."))
        ]
        try:
            for layer, quals in self.layers.items():
                mod = sys.modules[f"hpsig.{layer}"]
                for qual in quals:
                    self._install_one(modules, mod, f"{layer}.{qual}", qual)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, modules, mod, name: str, qual: str) -> None:
        owner, _, attr = qual.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        target = getattr(holder, attr, None)
        if target is None:
            raise CoverageError(f"{name} is missing")
        if isinstance(target, type):
            init = vars(target).get("__init__")
            if not isinstance(init, types.FunctionType):
                raise CoverageError(f"{name} has no __init__ of its own to wrap")
            self._rebind(target, "__init__", init, self._wrap(name, init))
            return
        if owner:
            method = vars(holder).get(attr)
            if not isinstance(method, types.FunctionType):
                raise CoverageError(f"{name} is not a plain method")
            self._rebind(holder, attr, method, self._wrap(name, method))
            return
        if not isinstance(target, types.FunctionType):
            raise CoverageError(f"{name} is not a function")
        wrapper = self._wrap(name, target)
        rebound = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is target:
                    self._rebind(m, key, target, wrapper)
                    rebound += 1
        if not rebound:
            raise CoverageError(f"{name} was never rebound")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as ``name -> (value, unit)`` over ``ops`` ops."""
        out: dict[str, tuple[float, str]] = {}
        for layer, quals in self.layers.items():
            names = [f"{layer}.{q}" for q in quals]
            for name in names:
                out[f"{name}.calls"] = (self.calls[name] / ops, "count/op")
                out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
            out[f"{layer}.self_s"] = (sum(self.self_s[n] for n in names) / ops, "s/op")
        for name in WORK:
            out[f"{name}.work"] = (self.work[name] / ops, "mnk/op")
        return out
