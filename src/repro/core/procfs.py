"""The /proc reporting interface.

"In the Linux kernel, we used the /proc interface for reporting
results" (Section 4).  The paper's module exposes each profiler's
buckets as readable files, and writing to them resets the counters so
successive workload phases can be profiled separately.

:class:`ProcFs` gives the simulated machine the same facility: a tiny
virtual file system keyed by path (``/proc/osprof/<layer>``), where a
read returns the serialized profile set and a write of ``reset`` clears
it.  Tools (the CLI, tests, long-running monitors) read profiles
through it without touching profiler internals.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .profiler import Profiler
from .profileset import ProfileSet

__all__ = ["ProcFs", "PROC_ROOT"]

PROC_ROOT = "/proc/osprof"


class ProcFs:
    """Virtual /proc files exposing live profiler state."""

    def __init__(self):
        self._profilers: Dict[str, Profiler] = {}

    # -- registration ----------------------------------------------------------

    def register(self, name: str, profiler: Profiler) -> str:
        """Expose *profiler* at /proc/osprof/<name>; returns the path."""
        if not name or "/" in name:
            raise ValueError("profiler name must be a single component")
        if name in self._profilers:
            raise ValueError(f"{name!r} is already registered")
        self._profilers[name] = profiler
        return self.path_of(name)

    def unregister(self, name: str) -> None:
        del self._profilers[name]

    @staticmethod
    def path_of(name: str) -> str:
        return f"{PROC_ROOT}/{name}"

    def _name_from(self, path: str) -> str:
        prefix = PROC_ROOT + "/"
        if not path.startswith(prefix):
            raise FileNotFoundError(path)
        name = path[len(prefix):]
        if name not in self._profilers:
            raise FileNotFoundError(path)
        return name

    # -- the file interface -------------------------------------------------------

    def ls(self) -> List[str]:
        """Paths of all registered profile files."""
        return [self.path_of(name) for name in sorted(self._profilers)]

    def read(self, path: str) -> str:
        """Read a profile file: the /proc-style serialized profile set."""
        name = self._name_from(path)
        return self._profilers[name].profile_set().dumps()

    def write(self, path: str, data: str) -> None:
        """Write to a profile file; ``reset`` clears the counters.

        Mirrors the paper's kernel module, where writing to the /proc
        file restarts collection (used between workload phases).
        """
        name = self._name_from(path)
        command = data.strip()
        if command == "reset":
            self._profilers[name].reset()
        else:
            raise ValueError(f"unknown command {command!r} "
                             "(expected reset)")

    def snapshot(self, path: str) -> ProfileSet:
        """Parse a read back into a ProfileSet (a point-in-time copy)."""
        return ProfileSet.loads(self.read(path))
