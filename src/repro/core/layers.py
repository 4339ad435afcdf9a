"""Layered profiling (Section 3.1, Figure 2).

OSprof inserts latency-profiling layers at several levels of the OS
stack — user, file system, driver — and compares the profiles captured
at adjacent levels to isolate each layer's contribution ("the comparison
of user-level and file-system-level profiles helps isolate VFS behavior
from the behavior of lower file systems").

:class:`LayerStack` holds one profiler per layer and hands out the
right profiler to instrumentation points; :func:`isolate_layer`
implements the cross-layer subtraction used for isolation.  (Simulated
layers record through probes instead: see
:meth:`repro.system.System.build`.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .buckets import BucketSpec
from .profile import Layer, Profile
from .profileset import ProfileSet
from .profiler import Profiler

__all__ = ["LayerStack", "isolate_layer"]


class LayerStack:
    """An ordered stack of profilers, outermost (user) first."""

    def __init__(self, layers: List[str],
                 clock: Callable[[], float],
                 spec: Optional[BucketSpec] = None):
        if not layers:
            raise ValueError("at least one layer is required")
        if len(set(layers)) != len(layers):
            raise ValueError("layer names must be unique")
        self.order = list(layers)
        self._profilers: Dict[str, Profiler] = {
            layer: Profiler(name=layer, layer=layer, clock=clock, spec=spec)
            for layer in layers}

    def profiler(self, layer: str) -> Profiler:
        """The profiler serving one layer; KeyError for unknown layers."""
        return self._profilers[layer]

    def layers(self) -> List[str]:
        return list(self.order)

    def profile_sets(self) -> Dict[str, ProfileSet]:
        return {layer: p.profile_set() for layer, p in self._profilers.items()}

    def above(self, layer: str) -> Optional[str]:
        """The next layer outward (closer to the user), or None."""
        i = self.order.index(layer)
        return self.order[i - 1] if i > 0 else None

    def below(self, layer: str) -> Optional[str]:
        """The next layer inward (closer to the hardware), or None."""
        i = self.order.index(layer)
        return self.order[i + 1] if i < len(self.order) - 1 else None


def isolate_layer(outer: Profile, inner: Profile) -> Dict[str, float]:
    """Estimate the latency contributed by the outer layer itself.

    Both profiles describe the same logical operation captured at
    adjacent layers.  Because outer latency = inner latency + own work,
    the difference of mean latencies estimates the outer layer's own
    per-request cost, and the difference in operation counts reveals
    fan-out (e.g. the VFS calling multiple FS operations per syscall,
    Section 5: "a file system receives a larger number of requests").

    Returns a dict with ``own_latency`` (cycles/request at the outer
    layer), ``fanout`` (inner ops per outer op) and ``inner_share``
    (fraction of outer total latency explained by the inner layer).
    """
    if outer.total_ops == 0:
        raise ValueError("outer profile is empty")
    fanout = inner.total_ops / outer.total_ops
    inner_latency_per_outer_op = inner.total_latency / outer.total_ops
    own = outer.mean_latency() - inner_latency_per_outer_op
    share = (inner.total_latency / outer.total_latency
             if outer.total_latency > 0 else 0.0)
    return {
        "own_latency": own,
        "fanout": fanout,
        "inner_share": share,
    }
