"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public functions and methods of each twistalex
module, and rebinds every module attribute that refers to one of them,
so a ``from .exactla import char_poly`` binding in another module is
wrapped too.  Spans are aggregated in memory per function (calls,
inclusive time of the outermost call, self time) and per layer; the
size counters are read off arguments and results in the same wrappers.
``install`` and ``uninstall`` switch the wrappers on and off between jobs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("laurent", "exactla", "freegrp", "grouphom", "cover", "seifert",
          "obstruction", "formats", "cli")

# O(1) accessors the arithmetic calls once per matrix entry (millions of
# times per job); a span around each would cost more than the work.
SKIP = {"exactla.IntMatrix.at", "exactla.IntMatrix.row", "exactla.LambdaMatrix.at"}
# Private functions a per-layer metric names.
EXTRA = {"laurent._det_int"}
# Methods wrapped although they are dunders.
DUNDERS = {"__call__"}

MINOR_GCD = "exactla.maximal_minor_gcd"


def _public(name: str) -> bool:
    return not name.startswith("_") or name in DUNDERS


class Tracer:
    def __init__(self, package: str):
        self.stats: dict[str, list] = {}  # qualname -> [calls, inclusive s, self s]
        self.layer_s = {layer: 0.0 for layer in LAYERS}  # outermost span per layer
        self.counters = {"letters": 0, "minors": 0, "h1_rank_max": 0, "order_max": 0,
                         "snf_dim_max": 0}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._after = {
            "freegrp.FreeEndo.power": self._count_letters,
            "cover.build_cover": self._count_cover,
            "exactla.smith_normal_form": self._count_snf,
            "exactla.LambdaMatrix.det": self._count_minor,
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and (
                        not name.startswith("_") or qual in EXTRA):
                    wrapped[id(obj)] = self._wrap(qual, layer, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
        # Rebind every module-level reference to a wrapped function.
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((module, name, obj, wrapped[id(obj)]))

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{name}"
            if not _public(name) or qual in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties and plain attributes
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the generator runs
            wrapper = self._wrap(qual, layer, fn)
            if not inspect.isfunction(raw):
                wrapper = type(raw)(wrapper)
            self._patches.append((cls, name, raw, wrapper))

    def _wrap(self, qual, layer, fn):
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0])
        stack, depth, layer_s = self._stack, self._depth, self.layer_s
        after = self._after.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth.get(qual, 0) == 0
            layer_outer = depth.get(layer, 0) == 0
            depth[qual] = depth.get(qual, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                depth[qual] -= 1
                depth[layer] -= 1
                stats[0] += 1
                stats[2] += dur - frame[1]
                if outer:
                    stats[1] += dur
                if layer_outer:
                    layer_s[layer] += dur
            if after is not None:
                after(outer, args, result)
            return result

        return wrapper

    # -- size counters, read from arguments and results --------------------------

    def _count_letters(self, outer, args, result):
        if outer:  # the images of f^d, not the intermediate squares
            self.counters["letters"] += sum(len(w) for w in getattr(result, "images", ()))

    def _count_cover(self, outer, args, result):
        c = self.counters
        c["order_max"] = max(c["order_max"], getattr(result, "group_order", 0))
        c["h1_rank_max"] = max(c["h1_rank_max"], getattr(result, "h1_rank", 0))

    def _count_snf(self, outer, args, result):
        a = args[0]
        self.counters["snf_dim_max"] = max(self.counters["snf_dim_max"],
                                           getattr(a, "rows", 0), getattr(a, "cols", 0))

    def _count_minor(self, outer, args, result):
        if self._depth.get(MINOR_GCD, 0):
            self.counters["minors"] += 1

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- reading the results ---------------------------------------------------------

    def known(self, qual: str) -> bool:
        return qual in self.stats

    def calls(self, qual):
        return self.stats[qual][0] if qual in self.stats else 0

    def inclusive(self, qual):
        return self.stats[qual][1] if qual in self.stats else 0.0

    def self_time(self, qual):
        return self.stats[qual][2] if qual in self.stats else 0.0


# Per-layer metrics: name -> (unit, total over the traced jobs, functions it
# reads).  run.py divides totals by the job count; "_max" metrics are
# maxima.  The functions are listed so that one a later change removes is
# reported as absent.
def per_layer_metrics(t: Tracer, coeff_bits_max: int):
    inc, slf, calls, cnt = t.inclusive, t.self_time, t.calls, t.counters
    return {
        "freegrp.power_s": ("s", inc("freegrp.FreeEndo.power"), ["freegrp.FreeEndo.power"]),
        "freegrp.apply_s": ("s", slf("freegrp.FreeEndo.__call__"), ["freegrp.FreeEndo.__call__"]),
        "freegrp.apply_calls": ("count", calls("freegrp.FreeEndo.__call__"),
                                ["freegrp.FreeEndo.__call__"]),
        "freegrp.letters": ("count", cnt["letters"], ["freegrp.FreeEndo.power"]),
        "grouphom.closure_s": ("s", inc("grouphom.generated_subgroup_order")
                               + inc("freegrp.check_compatibility"),
                               ["grouphom.generated_subgroup_order", "freegrp.check_compatibility"]),
        "cover.build_s": ("s", inc("cover.build_cover"), ["cover.build_cover"]),
        "cover.lift_s": ("s", slf("cover.lift_action_matrix"), ["cover.lift_action_matrix"]),
        "cover.h1_rank_max": ("count", cnt["h1_rank_max"], ["cover.build_cover"]),
        "cover.order_max": ("count", cnt["order_max"], ["cover.build_cover"]),
        "exactla.char_poly_s": ("s", inc("exactla.char_poly"), ["exactla.char_poly"]),
        "exactla.rank_s": ("s", inc("exactla.rank_over_fractions"), ["exactla.rank_over_fractions"]),
        "exactla.lambda_det_s": ("s", inc("exactla.LambdaMatrix.det"), ["exactla.LambdaMatrix.det"]),
        "exactla.lambda_det_calls": ("count", calls("exactla.LambdaMatrix.det"),
                                     ["exactla.LambdaMatrix.det"]),
        "exactla.snf_s": ("s", inc("exactla.smith_normal_form"), ["exactla.smith_normal_form"]),
        "exactla.snf_calls": ("count", calls("exactla.smith_normal_form"),
                              ["exactla.smith_normal_form"]),
        "exactla.snf_dim_max": ("count", cnt["snf_dim_max"], ["exactla.smith_normal_form"]),
        "exactla.int_det_s": ("s", inc("laurent._det_int"), ["laurent._det_int"]),
        "laurent.divexact_calls": ("count", calls("laurent.divexact"), ["laurent.divexact"]),
        "laurent.divexact_s": ("s", inc("laurent.divexact"), ["laurent.divexact"]),
        "laurent.gcd_calls": ("count", calls("laurent.gcd"), ["laurent.gcd"]),
        "laurent.gcd_s": ("s", inc("laurent.gcd"), ["laurent.gcd"]),
        "laurent.resultant_s": ("s", inc("laurent.resultant_with_cyclotomic"),
                                ["laurent.resultant_with_cyclotomic"]),
        "laurent.coeff_bits_max": ("bits", coeff_bits_max, []),
        "seifert.alexander_s": ("s", inc("seifert.alexander_polynomial"),
                                ["seifert.alexander_polynomial"]),
        "seifert.presentation_s": ("s", inc("seifert.branched_presentation"),
                                   ["seifert.branched_presentation"]),
        "seifert.character_s": ("s", slf("seifert.character_jump"), ["seifert.character_jump"]),
        "obstruction.evaluate_s": ("s", slf("obstruction.evaluate_fibred_obstruction"),
                                   ["obstruction.evaluate_fibred_obstruction"]),
        "obstruction.minors": ("count", cnt["minors"], [MINOR_GCD, "exactla.LambdaMatrix.det"]),
        "formats.parse_s": ("s", t.layer_s["formats"], []),
        "cli.emit_s": ("s", slf("cli.main"), ["cli.main"]),
    }


def is_max(name: str) -> bool:
    return name.endswith("_max")
