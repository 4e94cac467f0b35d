"""Deterministic fault injection: make every degradation path CI-testable.

A :class:`FaultPlan` is a declarative list of faults to inject into one
detection run — carried on ``OwlConfig(fault_plan=...)`` or parsed from
``owl run --inject worker_crash:chunk=1,cohort_violation``.  Faults fire at
fixed, named coordinates (chunk index + attempt number, launch ordinal,
store entry rank), never from a clock or RNG, so an injected run is exactly
reproducible — and because every degraded path is bit-identical to its
healthy counterpart, the acceptance bar is that an injected campaign's
report equals the fault-free reference byte for byte.

Supported fault kinds:

========================  ====================================================
``worker_crash``          the worker process hard-exits (``os._exit``) while
                          executing the matching chunk; params ``chunk``
                          (default: every chunk) and ``attempts`` (fire while
                          attempt < attempts, default 1)
``chunk_timeout``         the worker sleeps ``sleep`` seconds (default 0.75)
                          inside the matching chunk so the supervisor's
                          per-chunk deadline trips; params ``chunk``,
                          ``attempts``, ``sleep``
``blob_corruption``       flip one bit of a stored blob before the run;
                          params ``kind`` (manifest entry kind, default
                          ``trace``) and ``index`` (rank in key order,
                          default 0) — applied via
                          :func:`inject_blob_corruption`
``cohort_violation``      the cohort engine raises
                          :class:`~repro.errors.CohortEnvelopeError` for the
                          matching launch; param ``launch`` (per-execution
                          launch ordinal, default: every launch)
``replica_violation``     the replica-cohort engine treats the matching
                          launch as outside its fusion envelope and falls
                          back to per-replica execution; param ``launch``
                          (per-execution launch ordinal, default: every
                          launch)
``batch_fold_error``      folding a warp's memory batch raises, forcing
                          the columnar → object downgrade to the per-event
                          fold; param ``kernel`` (name substring, default:
                          every batch)
========================  ====================================================

Worker-directed faults (crash / timeout) fire only inside real pool worker
processes — the in-process degradation path deliberately runs fault-free,
which is what makes the pool → serial ladder terminate.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: Recognised fault kinds (parse-time validation).
FAULT_KINDS = ("worker_crash", "chunk_timeout", "blob_corruption",
               "cohort_violation", "replica_violation", "batch_fold_error")

#: Exit status used by injected worker crashes (distinguishable in logs).
CRASH_EXIT_STATUS = 17


class FaultError(ConfigError):
    """A fault specification could not be parsed or applied."""


def _parse_scalar(text: str) -> object:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text in ("true", "false"):
        return text == "true"
    return text


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: a kind plus its coordinate parameters."""

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}")

    def get(self, key: str, default: object = None) -> object:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def matches(self, key: str, value: object) -> bool:
        """True when the spec's *key* param is absent or equals *value*."""
        wanted = self.get(key)
        return wanted is None or wanted == value

    def render(self) -> str:
        return ":".join([self.kind] + [f"{k}={v}" for k, v in self.params])

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``kind[:key=value[:key=value...]]``."""
        fields = [part.strip() for part in text.split(":") if part.strip()]
        if not fields:
            raise FaultError("empty fault specification")
        params: List[Tuple[str, object]] = []
        for part in fields[1:]:
            if "=" not in part:
                raise FaultError(
                    f"fault parameter {part!r} is not key=value "
                    f"(in {text!r})")
            key, _, raw = part.partition("=")
            params.append((key.strip(), _parse_scalar(raw.strip())))
        return cls(kind=fields[0], params=tuple(params))


@dataclass(frozen=True)
class FaultPlan:
    """The full set of faults to inject into one detection run."""

    faults: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def of_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.faults if spec.kind == kind)

    def render(self) -> str:
        return ",".join(spec.render() for spec in self.faults)

    @classmethod
    def parse(cls, text: Union[str, Sequence[str]]) -> "FaultPlan":
        """Parse a comma-separated spec list (or a sequence of them)."""
        if isinstance(text, str):
            pieces = [text]
        else:
            pieces = list(text)
        specs: List[FaultSpec] = []
        for piece in pieces:
            for chunk in piece.split(","):
                chunk = chunk.strip()
                if chunk:
                    specs.append(FaultSpec.parse(chunk))
        return cls(faults=tuple(specs))

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """Normalise user/manifest input into a plan (None stays None).

        Accepts a plan, a spec string / sequence of strings, or the
        ``dataclasses.asdict`` form a campaign manifest round-trips.
        """
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            faults = []
            for item in value.get("faults", ()):
                params = tuple((str(k), v) for k, v in item.get("params", ()))
                faults.append(FaultSpec(kind=item["kind"], params=params))
            return cls(faults=tuple(faults))
        if isinstance(value, (list, tuple)):
            return cls.parse(list(value))
        raise FaultError(
            f"cannot build a FaultPlan from {type(value).__name__!r}")


# ----------------------------------------------------------------------
# process-local activation (mirrors repro.profiling)
# ----------------------------------------------------------------------

class _Activation:
    """The fault plan bound to the currently-executing chunk."""

    def __init__(self, plan: FaultPlan, chunk_index: int, attempt: int,
                 in_worker: bool) -> None:
        self.plan = plan
        self.chunk_index = chunk_index
        self.attempt = attempt
        self.in_worker = in_worker


_active: List[_Activation] = []


def _current() -> Optional[_Activation]:
    return _active[-1] if _active else None


@contextmanager
def activated(plan: Optional[FaultPlan], chunk_index: int = 0,
              attempt: int = 0, in_worker: bool = False) -> Iterator[None]:
    """Install *plan* as the process-local fault context for the block."""
    if plan is None or not plan:
        yield
        return
    _active.append(_Activation(plan, chunk_index, attempt, in_worker))
    try:
        yield
    finally:
        _active.pop()


def maybe_fail_chunk() -> None:
    """Fire worker-directed faults for the current chunk, if any match.

    Called at the top of every pooled chunk execution.  ``worker_crash``
    hard-exits the worker process (the supervisor sees a broken pool);
    ``chunk_timeout`` sleeps past the supervisor's deadline.  Both consult
    the chunk index and attempt number, so retries succeed once the
    configured attempt budget is spent.
    """
    ctx = _current()
    if ctx is None or not ctx.in_worker:
        return
    for spec in ctx.plan.of_kind("worker_crash"):
        if (spec.matches("chunk", ctx.chunk_index)
                and ctx.attempt < int(spec.get("attempts", 1))):
            os._exit(CRASH_EXIT_STATUS)
    for spec in ctx.plan.of_kind("chunk_timeout"):
        if (spec.matches("chunk", ctx.chunk_index)
                and ctx.attempt < int(spec.get("attempts", 1))):
            time.sleep(float(spec.get("sleep", 0.75)))


def cohort_violation_for(launch_index: int) -> Optional[FaultSpec]:
    """The cohort-envelope fault matching this launch ordinal, if any."""
    ctx = _current()
    if ctx is None:
        return None
    for spec in ctx.plan.of_kind("cohort_violation"):
        if spec.matches("launch", launch_index):
            return spec
    return None


def replica_violation_for(launch_index: int) -> Optional[FaultSpec]:
    """The replica-fusion fault matching this launch ordinal, if any."""
    ctx = _current()
    if ctx is None:
        return None
    for spec in ctx.plan.of_kind("replica_violation"):
        if spec.matches("launch", launch_index):
            return spec
    return None


def batch_fold_fault_for(kernel_name: str) -> Optional[FaultSpec]:
    """The batch-fold fault matching this kernel, if any."""
    ctx = _current()
    if ctx is None:
        return None
    for spec in ctx.plan.of_kind("batch_fold_error"):
        kernel = spec.get("kernel")
        if kernel is None or str(kernel) in kernel_name:
            return spec
    return None


# ----------------------------------------------------------------------
# store-directed faults
# ----------------------------------------------------------------------

def inject_blob_corruption(store, plan: Optional[FaultPlan]) -> List[str]:
    """Flip one bit in each blob targeted by the plan's ``blob_corruption``
    faults; returns the manifest keys whose blobs were damaged.

    *store* is a :class:`~repro.store.store.TraceStore` (duck-typed to keep
    this module import-light).  Entries are ranked in key order within
    their kind, matching the deterministic ordering ``store.entries`` uses.
    A fault whose target does not exist yet (cold store) is a no-op — the
    CI harness corrupts on the second, warm run.
    """
    if plan is None:
        return []
    corrupted: List[str] = []
    for spec in plan.of_kind("blob_corruption"):
        kind = str(spec.get("kind", "trace"))
        index = int(spec.get("index", 0))
        entries = store.entries(kind=kind)
        if not 0 <= index < len(entries):
            continue
        entry = entries[index]
        path = store.blobs.path_for(entry.blob)
        try:
            data = bytearray(path.read_bytes())
        except FileNotFoundError:
            continue
        if not data:
            continue
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        corrupted.append(entry.key)
    return corrupted
