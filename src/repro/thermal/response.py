"""Superposition kernel: dense thermal response operators.

The steady-state network is linear: ``G T = P + B T_amb``, so the die
temperatures are *affine* in the injected power,

    T_die = t0 + R @ p

where ``t0`` is the ambient-only equilibrium (zero power) and column j
of ``R`` is the temperature rise per watt injected into one floorplan
block of one die. Both depend only on the *geometry* — network
structure, materials, and the cooling boundary — not on the operating
point. A frequency ladder, a bracket search, or a leakage fixed-point
therefore needs exactly one factorized multi-RHS solve (one unit-power
right-hand side per block) to build ``R``; every query after that is a
dense matvec, with no sparse solver, no rasterization, and no
factorization in the loop.

Two cache tiers make the operator outlive the model that built it:

* an in-process LRU (:class:`ResponseCache`), bounded because each
  entry is a dense ``(n_die_cells, n_blocks + 1)`` array;
* a content-addressed on-disk store (:class:`ResponseStore`): one
  ``<digest>.npy`` plus a ``<digest>.json`` sidecar per geometry, keyed
  by the SHA-256 of the canonical geometry description
  (:func:`geometry_digest`, hashed through the same
  :func:`repro.obs.canonical_config` normalization the serving layer
  uses). Writes are atomic (temp file + fsync + ``os.replace``), loads
  are ``mmap``-backed, and unreadable entries are quarantined to
  ``*.corrupt`` and rebuilt — mirroring the campaign checkpoint
  discipline. Because the key is content-addressed and the files are
  write-once, supervised pool workers and the serve broker warm each
  other across process boundaries for free.

Determinism: a scalar query and a batched ladder query evaluate the
same per-frequency matvec against the same operator (the batched path
never switches to a matmul, whose different summation order could
drift at the last bit), and a loaded operator is byte-identical to the
built one — so campaign checkpoints are byte-identical whether the
disk store is cold, warm, or disabled.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..durable import quarantine, write_atomic
from ..errors import ConfigurationError, ThermalModelError
from ..lru import BoundedLRU
from ..obs import canonical_config, config_hash, counter, histogram, \
    log_event, span
from ..power.mcpat import block_power
from ..stack.chipstack import StackConfig
from .network import ThermalNetwork
from .package import DEFAULT_PACKAGE, PackageParams, build_network, \
    die_layer_names

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..cooling.options import CoolingOption

__all__ = [
    "RESPONSE_SCHEMA_VERSION",
    "ResponseCache",
    "ResponseOperator",
    "ResponseStore",
    "block_power_vector",
    "build_response_operator",
    "configure",
    "geometry_digest",
    "response_cache",
    "response_enabled",
]

RESPONSE_SCHEMA_VERSION = 1

#: Setting this (to anything but "" / "0") disables the superposition
#: kernel entirely: every query falls back to the sparse solver. Used
#: by the benchmarks to time the pre-operator baseline.
DISABLE_ENV = "REPRO_RESPONSE_DISABLE"

#: Directory of the on-disk operator store. An environment variable —
#: not a plain module global — so pool workers (forked or spawned)
#: inherit the configured store and warm it for each other.
STORE_DIR_ENV = "REPRO_RESPONSE_CACHE_DIR"


def response_enabled() -> bool:
    """False when the kill switch (:data:`DISABLE_ENV`) is set."""
    return os.environ.get(DISABLE_ENV, "") in ("", "0")


def geometry_digest(stack: StackConfig, cooling: "CoolingOption",
                    params: PackageParams = DEFAULT_PACKAGE) -> str:
    """Content address of a thermal geometry (SHA-256 hex digest).

    Covers exactly what the conductance matrix and the block basis
    depend on: the die outline and block rectangles (names included —
    they are the column identity), die thickness, stack height and
    rotation schedule, the cooling option, and the package parameters.
    Deliberately excludes the chip's *power* model (ladder, budget,
    component split): two chips sharing a floorplan share operators.

    Hashes through :func:`repro.obs.canonical_config`, the same
    normalization the serving layer keys its caches with, so "the same
    geometry" means the same thing everywhere.
    """
    fp = stack.chip.floorplan()
    doc = {
        "schema": RESPONSE_SCHEMA_VERSION,
        "outline": [fp.outline.x, fp.outline.y, fp.outline.w, fp.outline.h],
        "blocks": [[b.name, b.rect.x, b.rect.y, b.rect.w, b.rect.h]
                   for b in fp.blocks],
        "die_thickness_m": stack.chip.die_thickness_m,
        "n_chips": stack.n_chips,
        "rotations": list(stack.effective_rotations),
        "cooling": asdict(cooling),
        "params": asdict(params),
    }
    return config_hash(canonical_config(doc))


def _die_block_powers(chip, rotated: bool,
                      f_hz: float) -> tuple[float, ...]:
    """One die's per-block watts in declaration order."""
    from ..floorplan.transform import rotate_180
    per_block_fp = chip.floorplan()
    if rotated:
        per_block_fp = rotate_180(per_block_fp)
    per_block = block_power(chip, f_hz, per_block_fp)
    return tuple(per_block.get(b.name, 0.0) for b in per_block_fp.blocks)


@lru_cache(maxsize=4096)
def _library_die_block_powers(chip_name: str, rotated: bool,
                              f_hz: float) -> tuple[float, ...]:
    """Name-keyed memo of :func:`_die_block_powers` for library chips
    (profiling showed floorplan revalidation under ``rotate_180``, not
    the matvec, dominating operator-path frequency sweeps)."""
    from ..power.processors import get_chip
    return _die_block_powers(get_chip(chip_name), rotated, f_hz)


def block_power_vector(stack: StackConfig, f_hz: float) -> np.ndarray:
    """Per-(die, block) watts at a VFS step, in operator column order.

    Column order is dies bottom-up, blocks in floorplan declaration
    order within each die — the order :func:`build_response_operator`
    emits columns in. Pure arithmetic on the chip's power model; no
    rasterization. Only specs that *are* the registry entry for their
    name go through the name-keyed memo — ad-hoc ``ChipSpec`` variants
    (unregistered, or shadowing a library name) are computed directly.
    """
    from ..power.processors import get_chip
    f = float(f_hz)
    chip = stack.chip
    try:
        memoizable = get_chip(chip.name) is chip
    except ConfigurationError:
        memoizable = False
    if memoizable:
        rows = (_library_die_block_powers(chip.name, rot, f)
                for rot in stack.effective_rotations)
    else:
        rows = (_die_block_powers(chip, rot, f)
                for rot in stack.effective_rotations)
    return np.asarray([w for row in rows for w in row], dtype=float)


class ResponseOperator:
    """One geometry's dense affine map from block powers to die temps.

    Stored as a single C-contiguous ``(n_rows, n_cols + 1)`` array in
    homogeneous form — column 0 is the ambient-only temperature ``t0``,
    column ``1 + j`` the response of basis block j — so a query is one
    contiguous matvec ``arr @ [1, p]``. Keeping built and mmap-loaded
    operators in the identical layout keeps the BLAS call, and hence
    every recorded temperature, bitwise reproducible across cache
    tiers.

    Args:
        digest: the geometry's content address.
        arr: the homogeneous operator array described above.
        die_names: die layer names, bottom first.
        grid: die grid resolution (rows per die = ``grid**2``).
        block_names: per-die block names in column order.
    """

    def __init__(self, digest: str, arr: np.ndarray,
                 die_names: tuple[str, ...], grid: int,
                 block_names: tuple[str, ...]) -> None:
        n_rows = len(die_names) * grid * grid
        n_cols = len(die_names) * len(block_names)
        if arr.shape != (n_rows, n_cols + 1):
            raise ThermalModelError(
                f"response operator for {len(die_names)} dies x "
                f"{len(block_names)} blocks at grid {grid} must be "
                f"({n_rows}, {n_cols + 1}), got {arr.shape}")
        self.digest = digest
        self.arr = arr
        self.die_names = tuple(die_names)
        self.grid = grid
        self.block_names = tuple(block_names)

    # -- shape ----------------------------------------------------------------

    @property
    def n_dies(self) -> int:
        """Stack height."""
        return len(self.die_names)

    @property
    def n_cols(self) -> int:
        """Number of power basis columns (dies x blocks)."""
        return self.arr.shape[1] - 1

    @property
    def t0(self) -> np.ndarray:
        """Ambient-only die temperatures (zero injected power)."""
        return self.arr[:, 0]

    @property
    def nbytes(self) -> int:
        """Dense storage footprint of the operator array."""
        return self.arr.nbytes

    def die_column_slice(self, die_idx: int) -> slice:
        """Column range of one die's blocks in a power vector."""
        nb = len(self.block_names)
        return slice(die_idx * nb, (die_idx + 1) * nb)

    def die_row_slice(self, die_idx: int) -> slice:
        """Row range of one die's cells in a temperature vector."""
        g2 = self.grid * self.grid
        return slice(die_idx * g2, (die_idx + 1) * g2)

    # -- queries --------------------------------------------------------------

    def temperatures(self, p: np.ndarray) -> np.ndarray:
        """Die temperatures (flat, Celsius) for a block power vector.

        One contiguous matvec in homogeneous form. Callers batching a
        ladder evaluate this per frequency rather than stacking a
        matmul: a matvec and a matmul may sum in different orders, and
        checkpoint byte-identity across probe batch sizes pins the
        matvec's answer.
        """
        if p.shape != (self.n_cols,):
            raise ThermalModelError(
                f"power vector must have shape ({self.n_cols},), "
                f"got {p.shape}")
        x = np.empty(self.n_cols + 1)
        x[0] = 1.0
        x[1:] = p
        return self.arr @ x

    def die_fields(self, t: np.ndarray) -> dict[str, np.ndarray]:
        """Per-die (grid, grid) fields view of a temperature vector."""
        g = self.grid
        return {name: t[self.die_row_slice(i)].reshape(g, g)
                for i, name in enumerate(self.die_names)}

    def per_die_max(self, t: np.ndarray) -> tuple[float, ...]:
        """Maximum temperature of each die, bottom first."""
        return tuple(float(t[self.die_row_slice(i)].max())
                     for i in range(self.n_dies))

    def per_die_mean(self, t: np.ndarray) -> tuple[float, ...]:
        """Mean temperature of each die, bottom first."""
        return tuple(float(t[self.die_row_slice(i)].mean())
                     for i in range(self.n_dies))

    # -- persistence ----------------------------------------------------------

    def meta(self) -> dict:
        """The JSON sidecar payload for the on-disk store."""
        return {
            "schema": RESPONSE_SCHEMA_VERSION,
            "digest": self.digest,
            "die_names": list(self.die_names),
            "grid": self.grid,
            "block_names": list(self.block_names),
            "shape": list(self.arr.shape),
            "nbytes": self.arr.nbytes,
        }

    @classmethod
    def from_meta(cls, meta: dict, arr: np.ndarray) -> "ResponseOperator":
        """Rebuild an operator from a sidecar + loaded array."""
        return cls(digest=meta["digest"], arr=arr,
                   die_names=tuple(meta["die_names"]),
                   grid=int(meta["grid"]),
                   block_names=tuple(meta["block_names"]))


def build_response_operator(stack: StackConfig, cooling: "CoolingOption",
                            params: PackageParams = DEFAULT_PACKAGE, *,
                            network: ThermalNetwork | None = None
                            ) -> ResponseOperator:
    """Compute one geometry's response operator from first principles.

    One multi-RHS solve against the factorized network: the ambient-only
    system plus one unit-power right-hand side per (die, block) basis
    column. Cost is a single factorization plus ``1 + dies x blocks``
    triangular solves — after which every operating point the geometry
    is ever asked about is a matvec.

    Args:
        stack: the chip stack (defines dies, rotations, block basis).
        cooling: the cooling option.
        params: package geometry/calibration constants.
        network: reuse an already-built network (e.g. the owning
            :class:`~repro.thermal.hotspot.ThermalModel`'s) instead of
            assembling a fresh one.
    """
    if network is None:
        network = build_network(stack, cooling, params)
    die_names = die_layer_names(stack)
    fps = stack.die_floorplans()
    g = params.die_grid
    block_names = tuple(b.name for b in fps[0].blocks)

    digest = geometry_digest(stack, cooling, params)
    t_start = time.perf_counter()
    with span("response.build", digest=digest[:12],
              dies=len(die_names), blocks=len(block_names)):
        rhs_maps: list[dict[str, np.ndarray]] = [{}]
        for die, fp in zip(die_names, fps):
            for b in fp.blocks:
                rhs_maps.append({die: fp.power_map({b.name: 1.0}, g, g)})
        results = network.solve_many(rhs_maps)

        n_rows = len(die_names) * g * g
        arr = np.empty((n_rows, len(rhs_maps)))

        def die_vector(res) -> np.ndarray:
            return np.concatenate([res.layer(d).ravel() for d in die_names])

        t0 = die_vector(results[0])
        arr[:, 0] = t0
        for j, res in enumerate(results[1:]):
            arr[:, j + 1] = die_vector(res) - t0
    build_s = time.perf_counter() - t_start
    counter("response.builds").inc()
    histogram("response.build_seconds").observe(build_s)
    return ResponseOperator(digest=digest, arr=arr, die_names=die_names,
                            grid=g, block_names=block_names)


class ResponseStore:
    """Content-addressed on-disk operator store (one dir, flat files).

    Layout per entry: ``<digest>.npy`` (the homogeneous operator array)
    plus ``<digest>.json`` (shape/name metadata). The sidecar is
    written *after* the array and is the commit record — a reader that
    finds no sidecar treats the entry as absent. Both files are written
    via temp file + fsync + ``os.replace`` so a crashed writer leaves
    either a complete entry or none, and concurrent writers of the same
    digest are idempotent (last replace wins with identical bytes).

    Unreadable entries — truncated arrays, mangled headers, sidecar /
    array disagreement — are rotated to ``*.corrupt`` (the same
    quarantine discipline campaign checkpoints use) and reported as a
    miss, so the caller rebuilds and overwrites transparently.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def _paths(self, digest: str) -> tuple[Path, Path]:
        return self.root / f"{digest}.npy", self.root / f"{digest}.json"

    # -- read -----------------------------------------------------------------

    def load(self, digest: str) -> ResponseOperator | None:
        """mmap-load one entry; None on absence or quarantined damage."""
        npy, meta_p = self._paths(digest)
        if not meta_p.exists():
            counter("response.disk_miss").inc()
            return None
        with span("response.disk_load", digest=digest[:12]):
            try:
                op = self._load_checked(digest, npy, meta_p)
            except (OSError, ValueError, KeyError, TypeError,
                    ThermalModelError) as exc:
                self._quarantine(digest, npy, meta_p, reason=str(exc))
                counter("response.disk_miss").inc()
                return None
        counter("response.disk_hit").inc()
        return op

    def _load_checked(self, digest: str, npy: Path,
                      meta_p: Path) -> ResponseOperator:
        with open(meta_p) as fh:
            meta = json.load(fh)
        if meta.get("schema") != RESPONSE_SCHEMA_VERSION:
            raise ValueError(
                f"operator schema {meta.get('schema')!r} unsupported")
        if meta.get("digest") != digest:
            raise ValueError("sidecar digest does not match filename")
        shape = tuple(meta["shape"])
        nbytes = int(meta["nbytes"])
        # Guard the mmap: touching pages past EOF of a truncated file
        # is a bus error, not an exception, so check the size up front
        # (npy header is at least 64 bytes).
        if npy.stat().st_size < nbytes + 64:
            raise ValueError(
                f"array file truncated ({npy.stat().st_size} bytes for "
                f"a {nbytes}-byte operator)")
        arr = np.load(npy, mmap_mode="r")
        if arr.shape != shape or arr.dtype != np.float64:
            raise ValueError(
                f"array is {arr.dtype}{arr.shape}, sidecar says "
                f"float64{shape}")
        return ResponseOperator.from_meta(meta, arr)

    def _quarantine(self, digest: str, npy: Path, meta_p: Path, *,
                    reason: str) -> None:
        for path in (npy, meta_p):
            quarantine(path)
        counter("response.disk_corrupt").inc()
        log_event("response_quarantine", digest=digest[:12],
                  reason=reason)

    # -- write ----------------------------------------------------------------

    def store(self, op: ResponseOperator) -> bool:
        """Atomically persist one operator; False on I/O failure.

        Store failures (disk full, permissions) only cost future
        processes a rebuild, so they log and report rather than raise.
        """
        npy, meta_p = self._paths(op.digest)
        arr = np.ascontiguousarray(op.arr)
        payload = json.dumps(op.meta(), indent=1, sort_keys=True)
        try:
            write_atomic(npy, lambda fh: np.save(fh, arr))
            write_atomic(meta_p, lambda fh: fh.write(payload.encode()))
        except OSError as exc:
            log_event("response_store_failed", digest=op.digest[:12],
                      error=str(exc))
            return False
        counter("response.disk_store").inc()
        return True


class ResponseCache(BoundedLRU):
    """Bounded in-memory LRU of response operators over the disk store.

    Lookup order: memory, then the content-addressed disk store, then
    build (the factory) and write through to both tiers. Every tier
    transition is metered (``response.cache_hit`` / ``_miss`` /
    ``_eviction``, ``response.disk_hit`` / ``_miss`` / ``_corrupt``,
    ``response.builds``).

    The disk directory is read from :data:`STORE_DIR_ENV` at each
    lookup (set via :func:`configure`), so forked pool workers and the
    serve broker resolve the same store without any plumbing — a
    worker that builds an operator warms every other process.

    Args:
        capacity: maximum resident operators (each is a dense array of
            up to tens of MB, so the bound is a real memory bound).
    """

    def __init__(self, capacity: int = 8) -> None:
        super().__init__(capacity, metric_prefix="response.cache")

    @staticmethod
    def store() -> ResponseStore | None:
        """The configured disk store, or None when no dir is set."""
        root = os.environ.get(STORE_DIR_ENV, "")
        return ResponseStore(root) if root else None

    def get_or_build(self, digest: str,
                     factory: Callable[[], ResponseOperator]
                     ) -> ResponseOperator:
        """Resolve a digest through memory -> disk -> build."""
        def load_or_build() -> ResponseOperator:
            store = self.store()
            op = store.load(digest) if store is not None else None
            if op is None:
                op = factory()
                if op.digest != digest:
                    raise ThermalModelError(
                        f"response factory built digest "
                        f"{op.digest[:12]}, expected {digest[:12]}")
                if store is not None:
                    store.store(op)
            return op

        return super().get_or_build(digest, load_or_build)


_RESPONSE_CACHE = ResponseCache()


def response_cache() -> ResponseCache:
    """The process-wide operator cache."""
    return _RESPONSE_CACHE


def configure(store_dir: str | os.PathLike | None = None, *,
              capacity: int | None = None) -> None:
    """Point the operator store at a directory (None unsets it).

    The directory lands in :data:`STORE_DIR_ENV`, so worker processes
    forked or spawned after this call inherit it — the campaign
    runner's ``--response-cache-dir`` flag reaches the whole pool
    through here.
    """
    if store_dir is None:
        os.environ.pop(STORE_DIR_ENV, None)
    else:
        os.environ[STORE_DIR_ENV] = str(store_dir)
    if capacity is not None:
        _RESPONSE_CACHE.set_capacity(capacity)
