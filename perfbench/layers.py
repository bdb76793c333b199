"""Per-layer spans and counts for the traced run.

The program is not edited: `Tracer.install` replaces public functions and
methods of the hypersurfaces modules with timing wrappers (in every module
namespace that imported them, so calls between modules are seen too) and
`uninstall` puts the originals back.

A span's self time is its duration minus the durations of the spans it
encloses; each wrapped function adds its self time to one metric.  Counts
made in exactcore (rank calls, cells, tangent rows) are attributed to the
nearest enclosing span of another layer.
"""

from __future__ import annotations

import inspect
import time
import weakref

CONSTRUCTORS = (
    "rational_normal_curve", "scroll_surface", "veronese_surface",
    "scroll_section_curve", "elliptic_normal_curve", "hyperelliptic_g2_curve",
    "project", "project_from_general_point", "multisecant_projection",
    "linear_section_curve", "from_descriptor",
)

# (module, class or None, attribute, self-time metric)
TARGETS = (
    [("varieties", None, name, "varieties.construct_s") for name in CONSTRUCTORS]
    + [
        ("varieties", "ParamVariety", "coordinate_table", "varieties.coordinate_table_s"),
        ("varieties", None, "sample_points", "varieties.sample_points_s"),
        ("cohomology", None, "a_m", "cohomology.a_m_s"),
        ("cohomology", None, "a_m_detailed", "cohomology.a_m_s"),
        ("cohomology", None, "h1_ideal", "cohomology.a_m_s"),
        ("cohomology", None, "deficiency_profile", "cohomology.a_m_s"),
        ("exactcore", None, "monomial_values", "exactcore.monomial_values_s"),
        ("exactcore", "Matrix", "__init__", "exactcore.matrix_s"),
        ("exactcore", "Matrix", "from_rows", "exactcore.matrix_s"),
        ("exactcore", None, "rank", "exactcore.rank_s"),
        ("exactcore", None, "null_space", "exactcore.null_space_s"),
        ("exactcore", None, "rref", "exactcore.null_space_s"),
        ("exactcore", None, "invert", "exactcore.null_space_s"),
        ("exactcore", None, "poly_eval", "exactcore.poly_eval_s"),
        ("secants", None, "zak_invariants", "secants.zak_s"),
        ("secants", None, "veronese_square", "secants.zak_s"),
        ("secants", None, "table2_row", "secants.zak_s"),
        ("secants", None, "secant_dim", "secants.secant_dim_s"),
        ("pointconfig", "PointConfig", "nu_vector", "pointconfig.nu_vector_s"),
        ("pointconfig", None, "extract_three_regular", "pointconfig.extract3_s"),
        ("pointconfig", "PointConfig", "regularity", "pointconfig.regularity_s"),
    ]
)

COUNTS = (
    "varieties.constructs", "varieties.table_rows",
    "cohomology.a_m_calls", "cohomology.rank_cells",
    "exactcore.monomial_values_calls", "exactcore.rank_calls", "exactcore.rank_cells",
    "exactcore.poly_eval_calls",
    "secants.secant_dim_calls", "secants.tangent_rows", "secants.zak_retries",
    "pointconfig.rank_calls",
)

TIMES = tuple(sorted({metric for *_, metric in TARGETS}))


class Tracer:
    """Collects self times and counts while installed; one per traced run."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> imported module
        self.stack: list = []  # [function name, metric, start, child seconds]
        self.self_s = dict.fromkeys(TIMES, 0.0)
        self.calls: dict = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._tabled = weakref.WeakSet()
        self._undo: list = []

    def _wrap(self, fn, name: str, metric: str):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter
        after = getattr(self, "_after_" + name, None)
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            entry = [name, metric, clock(), 0.0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - entry[2]
                self_s[metric] += dur - entry[3]
                if stack:
                    stack[-1][3] += dur
                calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _caller(self) -> str:
        """Metric of the innermost open span outside exactcore."""
        for entry in reversed(self.stack):
            if not entry[1].startswith("exactcore."):
                return entry[1]
        return ""

    # -------------------------------------------------------- counts

    def _after_rank(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        cells = m.rows * m.cols
        self.counts["exactcore.rank_cells"] += cells
        caller = self._caller()
        if caller.startswith("cohomology."):
            self.counts["cohomology.rank_cells"] += cells
        elif caller.startswith("pointconfig."):
            self.counts["pointconfig.rank_calls"] += 1
        elif caller == "secants.secant_dim_s":
            self.counts["secants.tangent_rows"] += m.rows

    def _after_coordinate_table(self, args, kwargs, result):
        # the table is cached per variety: count the rows of each one once
        variety = args[0]
        if variety not in self._tabled:
            self._tabled.add(variety)
            self.counts["varieties.table_rows"] += len(result)

    def _after_a_m_detailed(self, args, kwargs, result):
        # a_m delegates to a_m_detailed: count each request once
        if not self.stack or self.stack[-1][0] != "a_m":
            self.counts["cohomology.a_m_calls"] += 1

    def _after_a_m(self, args, kwargs, result):
        self.counts["cohomology.a_m_calls"] += 1

    def _after_zak_invariants(self, args, kwargs, result):
        asked = args[1] if len(args) > 1 else kwargs.get("trials", self._zak_default)
        if result.trials > asked:
            self.counts["secants.zak_retries"] += 1

    # -------------------------------------------------------- install

    def install(self) -> None:
        zak = getattr(self.modules["secants"], "zak_invariants", None)
        if zak is not None:
            self._zak_default = inspect.signature(zak).parameters["trials"].default
        for layer, owner, attr, metric in TARGETS:
            module = self.modules[layer]
            if owner is None:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapped = self._wrap(original, attr, metric)
                for mod in self.modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapped)
                            self._undo.append((mod, key, original))
            else:
                cls = getattr(module, owner)
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, attr, metric))
                else:
                    replacement = self._wrap(raw, attr, metric)
                setattr(cls, attr, replacement)
                self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Every per-layer metric: self times in seconds, then counts."""
        calls = self.calls
        counts = dict(self.counts)
        counts["varieties.constructs"] = sum(calls.get(n, 0) for n in CONSTRUCTORS)
        counts["exactcore.monomial_values_calls"] = calls.get("monomial_values", 0)
        counts["exactcore.rank_calls"] = calls.get("rank", 0)
        counts["exactcore.poly_eval_calls"] = calls.get("poly_eval", 0)
        counts["secants.secant_dim_calls"] = calls.get("secant_dim", 0)
        return {**self.self_s, **counts}
