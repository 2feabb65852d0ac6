"""Traced in-process run of skeindim CLI commands.

Usage: python3 perfbench/trace_child.py SPEC.json RESULT.json

SPEC holds {"src": path, "commands": [{"argv": [...], "stdout": path}],
"spans": path}.  Every public function and method of the package modules
is wrapped before the commands run; a wrapper records one span (name,
start, end, parent) per call and keeps counts at the same boundary.  Spans
stay in memory and are written once, after the last command.  Nothing in
the package source is edited: wrappers replace module attributes, class
attributes and the values of module-level dicts that held the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "suites", "certify", "verlinde", "skein", "cyclotomic", "bernoulli", "exact")
# Operators that carry the arithmetic; other dunders are left unwrapped.
CLI = LAYERS.index("cli")
DUNDERS = ("__mul__", "__rmul__", "__pow__", "__call__", "__truediv__", "__rtruediv__")

# Named metric groups: "<layer>.<group>" -> qualified names it covers.
# Each group reports <group>_s (time in its outermost calls) and
# <group>_calls (every call, cache hits of lru_cache functions included).
GROUPS = {
    "cli.main": ("cli.main",),
    "suites.bernoulli": ("suites.bernoulli_suite",),
    "suites.verlinde": ("suites.verlinde_suite",),
    "suites.skein": ("suites.skein_suite",),
    "suites.certify": ("suites.certify_suite",),
    "certify.build": ("certify.build_certificate",),
    "certify.phi_rank": ("certify.phi_rank",),
    "verlinde.polynomial": ("verlinde.verlinde_polynomial",),
    "verlinde.odd_polynomial": ("verlinde.odd_color_polynomial",),
    "verlinde.decompose": ("verlinde.decompose",),
    "verlinde.crosscheck": ("verlinde.oracle_crosscheck",),
    "verlinde.fusion": ("verlinde.fusion_dimension",),
    "verlinde.dimension": ("verlinde.dimension",),
    "verlinde.leading_term": ("verlinde.leading_term_check",),
    "verlinde.parity": ("verlinde.parity_checks",),
    "skein.eval_curve": ("skein.eval_nonseparating_curve",),
    "skein.flat_curve": ("skein.flat_curve_check",),
    "skein.annulus_mul": ("skein.AnnulusSkein.__mul__",),
    "cyclotomic.field": ("cyclotomic.cyclotomic_field",),
    "cyclotomic.mul": ("cyclotomic.CyclotomicElement.__mul__",),
    "cyclotomic.inverse": ("cyclotomic.CyclotomicElement.inverse",),
    "cyclotomic.pow": ("cyclotomic.CyclotomicElement.__pow__",),
    "bernoulli.numbers": ("bernoulli.bernoulli_numbers",),
    "bernoulli.faulhaber": ("bernoulli.faulhaber_poly",),
    "exact.series_mul": ("exact.TruncatedSeries.__mul__",),
    "exact.series_inverse": ("exact.TruncatedSeries.inverse",),
    "exact.poly_mul": ("exact.BivariatePolynomial.__mul__",),
    "exact.substitute": ("exact.BivariatePolynomial.substitute_second", "exact.substitute_half"),
    "exact.poly_eval": ("exact.BivariatePolynomial.__call__",),
    "exact.rank": ("exact.RationalMatrix.rank",),
}


def _fraction_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    """Span recorder with per-name, per-layer and per-group aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_group: list[int] = []
        self.groups = list(GROUPS)
        self.spans = array("q")  # span, name, start_ns, end_ns, parent (-1 at top)
        self.next_span = 0
        self.stack: list[list[int]] = []  # [span, start_ns, child_ns]
        self.layer_active = [0] * len(LAYERS)
        self.group_active = [0] * len(self.groups)
        self.layer_calls = [0] * len(LAYERS)
        self.layer_busy = [0] * len(LAYERS)
        self.layer_self = [0] * len(LAYERS)
        self.layer_errors = [0] * len(LAYERS)
        self.group_calls = [0] * len(self.groups)
        self.group_ns = [0] * len(self.groups)
        self.below_cli_active = 0
        self.below_cli_ns = 0
        self.counters = {"certify.checks_failed": 0, "cyclotomic.max_bits": 0,
                         "exact.poly_max_bits": 0, "exact.poly_terms": 0}
        self._seen_polys: set[int] = set()

    def register(self, qualname: str) -> int:
        group = next((i for i, g in enumerate(self.groups) if qualname in GROUPS[g]), -1)
        self.names.append(qualname)
        self.name_layer.append(LAYERS.index(qualname.split(".", 1)[0]))
        self.name_group.append(group)
        return len(self.names) - 1

    def wrap(self, fn, name_id: int, hook=None):
        layer = self.name_layer[name_id]
        group = self.name_group[name_id]
        stack = self.stack
        spans = self.spans
        layer_active, group_active = self.layer_active, self.group_active
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = self.next_span
            self.next_span = span + 1
            parent = stack[-1][0] if stack else -1
            layer_active[layer] += 1
            if layer != CLI:
                self.below_cli_active += 1
            if group >= 0:
                group_active[group] += 1
            frame = [span, 0, 0]
            stack.append(frame)
            failed = True
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans.extend((span, name_id, frame[1], end, parent))
                self._close(layer, group, duration, duration - frame[2], failed)
            if hook is not None:
                hook(self, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _close(self, layer, group, duration, self_ns, failed):
        if layer != CLI:
            self.below_cli_active -= 1
            if self.below_cli_active == 0:
                self.below_cli_ns += duration
        self.layer_active[layer] -= 1
        self.layer_calls[layer] += 1
        self.layer_self[layer] += self_ns
        if self.layer_active[layer] == 0:
            self.layer_busy[layer] += duration
            if failed:  # the exception leaves this layer here
                self.layer_errors[layer] += 1
        if group >= 0:
            self.group_active[group] -= 1
            self.group_calls[group] += 1
            if self.group_active[group] == 0:
                self.group_ns[group] += duration

    # ----------------------------------------------------------- result hooks

    def note_certificate(self, certificate) -> None:
        self.counters["certify.checks_failed"] += sum(not c.passed for c in certificate.checks)

    def note_element(self, element) -> None:
        bits = _fraction_bits(element.coefficients)
        self.counters["cyclotomic.max_bits"] = max(self.counters["cyclotomic.max_bits"], bits)

    def note_polynomial(self, poly) -> None:
        if id(poly) in self._seen_polys:
            return
        self._seen_polys.add(id(poly))
        terms = list(poly.terms())
        self.counters["exact.poly_terms"] = max(self.counters["exact.poly_terms"], len(terms))
        bits = _fraction_bits(c for _, c in terms)
        self.counters["exact.poly_max_bits"] = max(self.counters["exact.poly_max_bits"], bits)

    def metrics(self) -> dict:
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.layer_calls[i]
            out[f"{layer}.busy_s"] = self.layer_busy[i] / 1e9
            out[f"{layer}.self_s"] = self.layer_self[i] / 1e9
            out[f"{layer}.errors"] = self.layer_errors[i]
        for i, group in enumerate(self.groups):
            out[f"{group}_s"] = self.group_ns[i] / 1e9
            out[f"{group}_calls"] = self.group_calls[i]
        out.update(self.counters)
        return out


HOOKS = {
    "certify.build_certificate": Tracer.note_certificate,
    "cyclotomic.CyclotomicElement.inverse": Tracer.note_element,
    "skein.eval_nonseparating_curve": Tracer.note_element,
    "verlinde.verlinde_polynomial": Tracer.note_polynomial,
    "verlinde.odd_color_polynomial": Tracer.note_polynomial,
}


def _is_plain_function(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _is_cached_function(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def install(tracer: Tracer) -> int:
    """Wrap the public callables of every layer module; returns the count."""
    modules = {layer: importlib.import_module(f"skeindim.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}  # id(original) -> wrapper

    def wrapper_for(original, qualname):
        if id(original) not in replaced:
            name_id = tracer.register(qualname)
            replaced[id(original)] = tracer.wrap(original, name_id, HOOKS.get(qualname))
        return replaced[id(original)]

    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _is_plain_function(obj) or _is_cached_function(obj):
                wrapper_for(obj, f"{layer}.{name}")
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        inner = member.__func__
                        if _is_plain_function(inner):
                            kind = type(member)
                            setattr(obj, attr, kind(wrapper_for(inner, f"{layer}.{inner.__qualname__}")))
                    elif _is_plain_function(member):
                        setattr(obj, attr, wrapper_for(member, f"{layer}.{member.__qualname__}"))

    # Rebind every module-level reference to a wrapped function, including
    # names imported with `from .x import y` and values of dicts like SUITES.
    package = importlib.import_module("skeindim")
    for module in [package, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in replaced:
                        obj[key] = replaced[id(value)]
    return len(replaced)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    tracer = Tracer()
    wrapped = install(tracer)
    cli = importlib.import_module("skeindim.cli")
    exit_codes = []
    command_ns = 0
    for command in spec["commands"]:
        with open(command["stdout"], "w", encoding="utf-8") as out:
            saved, sys.stdout = sys.stdout, out
            start = time.perf_counter_ns()
            try:
                code = cli.main(command["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            finally:
                command_ns += time.perf_counter_ns() - start
                sys.stdout = saved
        exit_codes.append(code)
    with open(spec["spans"], "w", encoding="utf-8") as handle:
        handle.write("span,name,start_ns,end_ns,parent\n")
        spans = tracer.spans
        for k in range(0, len(spans), 5):
            span, name, start, end, parent = spans[k: k + 5]
            handle.write(f"{span},{tracer.names[name]},{start},{end},{parent}\n")
    result = {
        "exit_codes": exit_codes,
        "command_s": command_ns / 1e9,
        "below_cli_s": tracer.below_cli_ns / 1e9,
        "wrapped": wrapped,
        "spans": len(tracer.spans) // 5,
        "metrics": tracer.metrics(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
