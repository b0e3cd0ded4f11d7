"""Spans around calls into padem's layers, recorded from the benchmark's
own files.

``Tracer.install`` replaces each traced function or method with a wrapper
in every padem module namespace that holds it (``divided_difference``, for
instance, is also imported by name into ``verify``, ``pdg`` and the
package itself), so call counts are complete.  Spans are aggregated in memory per
(parent span, span) edge: calls, total time and self time, where self time
is the span's duration minus the time covered by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

VERIFY_CHECKS = (
    "check_binomials",
    "check_nilhecke_relations",
    "check_normalize_action",
    "check_leibniz",
    "check_sym_equivariance",
    "check_schubert_unit",
    "check_steenrod_axioms",
    "check_adem",
    "check_commutator",
    "check_s_powers",
    "check_hopf_antipode",
    "check_bar_closed_form",
    "check_margolis_generators",
    "check_pdg",
    "check_symmetric_derivative_rule",
    "check_steenrod_sign",
    "check_groth",
)

# (module, qualified name) of every traced layer function.
LAYER_FUNCTIONS = (
    ("poly", "exact_divide"),
    ("nilhecke", "divided_difference"),
    ("nilhecke", "NilHeckeElement.apply"),
    ("nilhecke", "NilHeckeElement.normal_form"),
    ("nilhecke", "reconstruct_operator"),
    ("steenrod", "act"),
    ("steenrod", "adem_normalize"),
    ("steenrod", "bar_act"),
    ("pdg", "verify_pdg"),
    ("pdg", "Derivation.apply_nh"),
    ("pdg", "Derivation.apply_poly"),
    ("pdg", "GradedOperator.from_callable"),
    ("pdg", "GradedOperator.power_matrix"),
    ("pdg", "rank_mod_p"),
    ("pdg", "margolis_homology"),
    ("groth", "enumerate_an_basis"),
)

# The unbounded (or large) functools caches whose state a run must start
# without.  A cache a later version removes is reported as absent.
CACHES = (
    ("nilhecke", "_normalize_word"),
    ("nilhecke", "_compile_word"),
    ("steenrod", "_act_power_monomial"),
    ("steenrod", "_adem_pair"),
    ("nilhecke", "schubert"),
)

# Span -> (metric, argument holding the matrix; None for the result).
MAX_DIM = {
    "pdg.GradedOperator.power_matrix": ("pdg.power_matrix.max_dim", None),
    "pdg.rank_mod_p": ("pdg.rank_mod_p.max_dim", 0),
}


def cache_stats() -> dict[str, dict | None]:
    """hits / misses / size of each cache in the padem modules loaded so
    far; None for a cache that does not exist."""
    out: dict[str, dict | None] = {}
    for module, name in CACHES:
        mod = sys.modules.get(f"padem.{module}")
        fn = getattr(mod, name, None) if mod is not None else None
        info = getattr(fn, "cache_info", None)
        if info is None:
            out[name] = None
            continue
        ci = info()
        out[name] = {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}
    return out


def require_cold_caches() -> None:
    """Raise unless every existing cache is empty."""
    for name, stats in cache_stats().items():
        if stats is not None and stats["size"]:
            raise RuntimeError(f"cache {name} holds {stats['size']} entries before timing")


def _resolve(owner, qualname: str):
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """In-memory span aggregator; see the module docstring."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}
        self.max_dims: dict[str, int] = {}
        self._stack: list[list] = []

    def span(self, name: str, fn, observe=None):
        """Wrap fn so each call is recorded as a span called name."""
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, metric: str, arg_index: int | None):
        dims = self.max_dims
        dims.setdefault(metric, 0)

        def observe(args, result):
            mat = result if arg_index is None else args[arg_index]
            if mat is not None and mat.size:
                dims[metric] = max(dims[metric], *mat.shape)

        return observe

    def install(self) -> None:
        """Import padem's layers and wrap every traced function in place."""
        modules = {
            name: importlib.import_module(f"padem.{name}")
            for name in ("poly", "nilhecke", "steenrod", "pdg", "groth", "verify", "cli")
        }
        targets = [("verify", check) for check in VERIFY_CHECKS]
        targets += list(LAYER_FUNCTIONS)
        for module, qualname in targets:
            owner, attr = _resolve(modules[module], qualname)
            if owner is None or attr not in vars(owner):
                continue  # absent in this version; reported as zero calls
            name = f"{module}.{qualname}"
            observe = self._observer(*MAX_DIM[name]) if name in MAX_DIM else None
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(name, raw.__func__, observe)))
                continue
            wrapped = self.span(name, raw, observe)
            if owner is not modules[module]:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "padem" or mod_name.startswith("padem."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        return {
            "edges": [[parent, name, *rec] for (parent, name), rec in self.edges.items()],
            "max_dims": dict(self.max_dims),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum span edges and take maxima of matrix sizes over several runs."""
    edges: dict[tuple[str, str], list] = {}
    max_dims: dict[str, int] = {}
    for snap in snapshots:
        for parent, name, calls, total, self_time in snap["edges"]:
            rec = edges.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_time
        for key, value in snap["max_dims"].items():
            max_dims[key] = max(max_dims.get(key, 0), value)
    return {
        "edges": [[parent, name, *rec] for (parent, name), rec in edges.items()],
        "max_dims": max_dims,
    }


def per_name(snapshot: dict) -> dict[str, dict]:
    """calls / total / self per span name, summed over parents.  Total time
    counts nested calls of a recursive name more than once; self time is
    exact."""
    out: dict[str, dict] = {}
    for _parent, name, calls, total, self_time in snapshot["edges"]:
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += calls
        rec["total_s"] += total
        rec["self_s"] += self_time
    return out
