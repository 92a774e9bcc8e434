"""Shared plumbing for the benchmark workloads.

Everything here is workload-neutral: the run context (checkout root,
scratch directory, seed), host facts, percentile helpers, peak memory,
the fresh-interpreter import probe that every workload's set-up pays,
and the reset that returns the program's in-process caches to the
state of a new process.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path


#: The recorded reference outputs the correctness checks compare with.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


@dataclass
class Context:
    """One benchmark invocation.

    Attributes:
        root: the checkout (holds ``src/`` and ``perfbench/``).
        work: scratch directory inside the checkout, removed at exit.
        seed: workload seed; the same seed gives the same inputs.
        size: ``"full"`` (the benchmark) or ``"small"`` (smoke test).
        notes: report lines printed before the result.
    """

    root: Path
    work: Path
    seed: int
    size: str = "full"
    notes: list[str] = field(default_factory=list)

    def fresh_dir(self, name: str) -> Path:
        """An empty directory under the scratch root."""
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def note(self, line: str) -> None:
        """A human-readable report line (printed before the result)."""
        self.notes.append(line)


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 when empty.

    Infinite samples (failed requests) sort last, so a percentile that
    lands on one is infinite.
    """
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == math.inf:
        return math.inf if pos > lo or xs[lo] == math.inf else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up -------------------------------------------------------------------

def fresh_import(ctx: Context, modules: tuple[str, ...]) -> None:
    """Import ``modules`` in a fresh interpreter (part of every set-up).

    Every user process pays this before its first result, so work moved
    to import time shows up in ``setup_s`` rather than in the timed
    phase.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    code = "".join(f"import {m}\n" for m in modules)
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ctx.root,
                   check=True, timeout=120)


def reset_program_caches() -> None:
    """Drop every in-process memo the program keeps, as in a new process.

    Clears the bounded model and operator caches plus every
    ``functools`` cache defined in a ``repro`` module. Caches a later
    version removes are skipped, not required.
    """
    for modname, accessor in (("repro.thermal.hotspot", "model_cache"),
                              ("repro.thermal.response", "response_cache")):
        get = getattr(sys.modules.get(modname), accessor, None)
        if get is not None:
            get().clear()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "") == name:
                clear()


# -- host facts ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git (None outside a
    repository, as in an exported tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas() -> list[dict]:
    """Thread count and build of every OpenBLAS numpy/scipy loaded."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry: dict = {"lib": Path(path).name}
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["num_threads"] = fn()
                break
        for sym in ("scipy_openblas_get_config64_",
                    "scipy_openblas_get_config",
                    "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode(errors="replace")
                break
        out.append(entry)
    return out


def host_facts(root: Path) -> dict:
    """What a comparison must hold equal on both sides."""
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "openblas": _openblas(),
        "env": {k: os.environ[k] for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS") if k in os.environ},
    }
