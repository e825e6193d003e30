"""Per-layer tracing by wrapping pqdec's public names from outside the library.

Every traced name is replaced, in every loaded ``pqdec`` module that
holds it (the defining module and each module that imported it), by a
wrapper that records calls and self time, and is put back by
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

Two kinds of wrapper exist:

* a *span* records its calls and its self time: its duration minus the
  part covered by traced spans it called;
* a *counter* records calls only.  ``FieldElement.__mul__`` and ``inv``
  run ~50,000 times per structured decode; timing them would cost more
  than they do, so their time stays in the caller's span (for example
  ``codes.encode``).

Statistics are aggregated per layer as the calls happen; single spans
are not kept, because one structured decode makes ~10^5 calls.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# (layer, "module:Qualified.name", kind).  Several targets may share a layer.
TARGETS = [
    ("gf.mul", "pqdec.gf:FieldElement.__mul__", "counter"),
    ("gf.inv", "pqdec.gf:FieldElement.inv", "counter"),
    ("gf.expand_operator", "pqdec.gf:expand_operator", "span"),
    ("codes.encode", "pqdec.codes:LinearCode.encode", "span"),
    ("codes.random_code", "pqdec.codes:random_code", "span"),
    ("metrics.manhattan_dist", "pqdec.metrics:manhattan_dist", "span"),
    ("modp.rank", "pqdec.modp:rank", "span"),
    ("modp.fp_gauss_invert", "pqdec.modp:fp_gauss_invert", "span"),
    ("modp.fp_solve", "pqdec.modp:fp_solve", "span"),
    ("qsim.dft_axis", "pqdec.qsim:DenseState.dft_axis", "span"),
    ("qsim.norm", "pqdec.qsim:DenseState.norm", "span"),
    ("qsim.permute_label", "pqdec.qsim:DenseState.permute_label", "span"),
    ("qsim.controlled_register_shifts", "pqdec.qsim:DenseState.controlled_register_shifts", "span"),
    ("qsim.from_parts", "pqdec.qsim:DenseState.from_parts", "span"),
    ("qsim.label_marginal", "pqdec.qsim:DenseState.label_marginal", "span"),
    ("qsim.pcs_sampler", "pqdec.qsim:PcsSampler.__init__", "span"),
    ("qsim.shift_cube_vector", "pqdec.qsim:shift_cube_vector", "span"),
    ("decoder", "pqdec.decoder:decode_structured", "span"),
    ("decoder", "pqdec.decoder:decode_dense", "span"),
    ("baselines.direct_inversion", "pqdec.baselines:direct_inversion_decode", "span"),
    ("baselines.separation", "pqdec.baselines:separation_experiment", "span"),
]

# Per-layer metrics in report order: (name, unit).  Counts and times are
# per timed op; shares and rounds are ratios of the counts named beside them.
METRICS = [
    ("gf.mul.calls", "calls/op"),
    ("gf.inv.calls", "calls/op"),
    ("gf.expand_operator.self_ms", "ms/op"),
    ("codes.encode.calls", "calls/op"),
    ("codes.encode.self_ms", "ms/op"),
    ("codes.random_code.self_ms", "ms/op"),
    ("metrics.manhattan_dist.self_ms", "ms/op"),
    ("modp.rank.calls", "calls/op"),
    ("modp.rank.self_ms", "ms/op"),
    ("modp.fp_gauss_invert.self_ms", "ms/op"),
    ("modp.fp_solve.self_ms", "ms/op"),
    ("qsim.dft_axis.calls", "calls/op"),
    ("qsim.dft_axis.self_ms", "ms/op"),
    ("qsim.dft_axis.bytes_computed", "B/op"),
    ("qsim.norm.calls", "calls/op"),
    ("qsim.norm.self_ms", "ms/op"),
    ("qsim.permute_label.self_ms", "ms/op"),
    ("qsim.controlled_register_shifts.self_ms", "ms/op"),
    ("qsim.from_parts.self_ms", "ms/op"),
    ("qsim.label_marginal.self_ms", "ms/op"),
    ("qsim.pcs_sampler.builds", "builds/op"),
    ("qsim.pcs_sampler.amplitudes", "amps/op"),
    ("qsim.pcs_sampler.self_ms", "ms/op"),
    ("qsim.shift_cube_vector.self_ms", "ms/op"),
    ("decoder.self_ms", "ms/op"),
    ("decoder.resample_rounds", "rounds/decode"),
    ("decoder.full_path_share", "share"),
    ("baselines.direct_inversion.calls", "calls/op"),
    ("baselines.direct_inversion.self_ms", "ms/op"),
    ("baselines.separation.self_ms", "ms/op"),
]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Installs the wrappers, aggregates per-layer statistics, removes them."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer, _, _ in TARGETS}
        self._open: list[list] = []  # [function name, child seconds] per open span
        self._patches: list[tuple[object, str, object]] = []
        self.dft_bytes = 0
        self.sampler_amplitudes = 0
        self.decodes_returned = 0
        self.resample_rounds = 0
        self.dense_returned = 0
        self.dense_full_path = 0
        # extra bookkeeping by wrapped function name: (before, after)
        self._hooks = {
            "dft_axis": (None, self._after_dft),
            "__init__": (None, self._after_sampler),  # PcsSampler
            "decode_structured": (None, self._after_decode),
            "decode_dense": (self._before_dense, self._after_dense),
        }

    # -- wrappers -----------------------------------------------------------

    def _counter(self, layer: str, fn):
        stats = self.stats[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, layer: str, fn):
        stats = self.stats[layer]
        open_spans = self._open
        name = fn.__name__
        before, after = self._hooks.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if open_spans:
                    open_spans[-1][1] += elapsed
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _after_dft(self, args, result, token) -> None:
        self.dft_bytes += args[0].layout.dim * 16 * 2  # complex128 read + write

    def _after_sampler(self, args, result, token) -> None:
        self.sampler_amplitudes += args[0].layout.dim

    def _after_decode(self, args, result, token) -> None:
        self.decodes_returned += 1
        self.resample_rounds += result.resample_rounds

    def _before_dense(self, args) -> int:
        return self.stats["qsim.from_parts"].calls

    def _after_dense(self, args, result, from_parts_before: int) -> None:
        self._after_decode(args, result, None)
        self.dense_returned += 1
        if self.stats["qsim.from_parts"].calls > from_parts_before:
            self.dense_full_path += 1

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items()) if _in_pqdec(name, m)]
        for layer, target, kind in TARGETS:
            module_name, qualname = target.split(":")
            owner = sys.modules[module_name]
            *class_path, attr = qualname.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            wrap = self._counter if kind == "counter" else self._span
            if class_path:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrap(layer, original.__func__))
                else:
                    wrapped = wrap(layer, original)
                self._patch(owner, attr, original, wrapped)
            else:
                original = getattr(owner, attr)
                wrapped = wrap(layer, original)
                for module in modules:  # the definition and every import of it
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, wrapped)

    def _patch(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric for ``ops`` traced operations."""
        s = self.stats
        out: dict[str, float] = {
            "qsim.dft_axis.bytes_computed": self.dft_bytes / ops,
            "qsim.pcs_sampler.builds": s["qsim.pcs_sampler"].calls / ops,
            "qsim.pcs_sampler.amplitudes": self.sampler_amplitudes / ops,
            "decoder.resample_rounds": _ratio(self.resample_rounds, self.decodes_returned),
            "decoder.full_path_share": _ratio(self.dense_full_path, self.dense_returned),
        }
        for name, _unit in METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = s[layer].calls / ops
            elif field == "self_ms":
                out[name] = s[layer].self_s * 1e3 / ops
        return {name: out[name] for name, _unit in METRICS}


def _in_pqdec(name: str, module: object) -> bool:
    return module is not None and (name == "pqdec" or name.startswith("pqdec."))


def _ratio(num: int, den: int) -> float:
    """num / den, or 0 when nothing was counted (the layer did not run)."""
    return num / den if den else 0.0
