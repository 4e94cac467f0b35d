"""Deterministic content fingerprints for store keys.

The store addresses artifacts by *what produced them*: a trace is keyed by
(program name, device configuration, input value); an evidence side adds
what shapes its own bytes — the fixed side its run count and sampling
mode, the random side its run count, seed and sampling mode — so every
campaign with the fixed budget shares one fixed side whatever its seed; a
report adds the analysis knobs on top of both sides' fields.  All
of those must hash identically across processes and Python versions, so
``hash()`` (randomised per process) and ``repr`` of objects with memory
addresses are off the table — values are folded into SHA-256 through an
explicit, tagged, canonical encoding instead.

Configuration fingerprints are *scoped*: only the fields that can change
the artifact's bytes participate.  ``workers``, ``cohort`` and
``replica_dedup`` are deliberately excluded everywhere — the parallel
pool, the warp-cohort and replica-batching recorder (``cohort=False`` is
its per-warp, one-run-at-a-time reference) and equal-input dedup are
proven bit-identical to their references, so a store warmed under one of
those settings is valid under any other.  Fingerprints name the fields
they include, so a retired field (``columnar``, ``replica_batch``,
``vectorized``) leaves every key unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
from typing import Sequence, Tuple

import numpy as np

#: Hex digest length used in store entry keys (the blob layer keeps full
#: SHA-256; key fragments are truncated for readable manifests — 64 bits of
#: collision resistance is plenty for per-store artifact counts).
KEY_DIGEST_CHARS = 16


class FingerprintError(TypeError):
    """Raised for values with no canonical encoding (unhashable inputs)."""


def _feed(hasher, obj) -> None:
    """Fold one value into *hasher* via a tagged canonical encoding."""
    if obj is None:
        hasher.update(b"N")
    elif isinstance(obj, bool):
        hasher.update(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        text = str(obj).encode()
        hasher.update(b"i%d:" % len(text))
        hasher.update(text)
    elif isinstance(obj, float):
        hasher.update(b"f")
        hasher.update(struct.pack("<d", obj))
    elif isinstance(obj, str):
        text = obj.encode("utf-8")
        hasher.update(b"s%d:" % len(text))
        hasher.update(text)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        data = bytes(obj)
        hasher.update(b"y%d:" % len(data))
        hasher.update(data)
    elif isinstance(obj, (tuple, list)):
        hasher.update(b"l%d:" % len(obj))
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, (set, frozenset)):
        hasher.update(b"e%d:" % len(obj))
        for digest in sorted(fingerprint_value(item) for item in obj):
            hasher.update(digest.encode())
    elif isinstance(obj, dict):
        # items are fingerprinted individually and folded in sorted-digest
        # order so insertion order never matters
        hasher.update(b"d%d:" % len(obj))
        for digest in sorted(fingerprint_value((key, value))
                             for key, value in obj.items()):
            hasher.update(digest.encode())
    elif isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        hasher.update(b"a")
        _feed(hasher, array.dtype.str)
        _feed(hasher, tuple(int(n) for n in array.shape))
        hasher.update(array.tobytes())
    elif isinstance(obj, np.generic):
        _feed(hasher, obj.item())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hasher.update(b"c")
        _feed(hasher, type(obj).__qualname__)
        _feed(hasher, dataclasses.asdict(obj))
    else:
        # last resort: pickle is deterministic for plain data objects; an
        # unpicklable value has no stable identity and cannot be cached
        try:
            payload = pickle.dumps(obj, protocol=4)
        except Exception as error:
            raise FingerprintError(
                f"cannot fingerprint {type(obj).__name__!r} value for the "
                f"store: {error}") from error
        hasher.update(b"p%d:" % len(payload))
        hasher.update(payload)


def fingerprint_value(obj) -> str:
    """Stable hex digest of an arbitrary (plain-data) Python value."""
    hasher = hashlib.sha256()
    _feed(hasher, obj)
    return hasher.hexdigest()[:KEY_DIGEST_CHARS]


def fingerprint_inputs(input_fingerprints: Sequence[str]) -> str:
    """Digest of an ordered collection of per-input fingerprints."""
    return fingerprint_value(list(input_fingerprints))


# ----------------------------------------------------------------------
# configuration fingerprints (scoped)
# ----------------------------------------------------------------------

#: OwlConfig fields that change the *bytes of a single recorded trace*.
#: (None today beyond the device config: a trace depends only on the
#: device model and the program input.)
_TRACE_FIELDS: Tuple[str, ...] = ()

#: OwlConfig fields that change the *content of one evidence side* on top
#: of the trace-level ones: how many runs, which random draws (the random
#: side only: the fixed side repeats the representative, whatever the
#: seed), and whether per-run graphs are retained.
_SIDE_FIELDS = {"fixed": ("fixed_runs", "sampling"),
                "random": ("random_runs", "seed", "sampling")}

#: Both sides' fields, in the order the analysis scope has always hashed
#: them (report keys stay put).
_EVIDENCE_FIELDS = ("fixed_runs", "random_runs", "seed", "sampling")

#: OwlConfig fields that change the *analysis verdicts* on top of the
#: evidence-level ones.  The detector choice lives here and NOT in the
#: evidence scope: ks/mi/both campaigns share recorded traces and
#: evidence but cache their reports independently.
#: The adaptive scheduler's knobs are analysis scope: an adaptive
#: campaign shares traces and (partial) evidence with the classic
#: full-budget campaign but caches its report separately, because an
#: early-stopped report legitimately carries different replica counts.
_ANALYSIS_FIELDS = ("confidence", "sample_size_cap", "test",
                    "offset_granularity", "quantify", "always_analyze",
                    "analyze_all_representatives", "dedup_by_location",
                    "analyzer", "mi_bias_correction", "mi_min_bits",
                    "adaptive", "adaptive_rounds", "adaptive_alpha_spend")


def _device_dict(device_config) -> dict:
    if device_config is None:
        return {}
    if dataclasses.is_dataclass(device_config):
        fields = dataclasses.asdict(device_config)
        # resilience knob, not a device model parameter: tripping the
        # budget re-executes the launch on the bit-identical per-warp
        # engine, so the artifact bytes cannot depend on it
        fields.pop("cohort_step_budget", None)
        return fields
    raise FingerprintError(
        f"cannot fingerprint device config of type "
        f"{type(device_config).__name__!r}")


def _config_scope(config, fields) -> dict:
    return {name: getattr(config, name) for name in fields}


def trace_fingerprint(config, device_config=None) -> str:
    """Fingerprint of everything (besides program + input) shaping a trace."""
    return fingerprint_value({
        "scope": "trace",
        "device": _device_dict(device_config),
        "config": _config_scope(config, _TRACE_FIELDS),
    })


def evidence_fingerprint(config, device_config=None, *, side: str) -> str:
    """Fingerprint of everything (besides program + rep) shaping the
    evidence of *side* (``"fixed"`` or ``"random"``)."""
    return fingerprint_value({
        "scope": "evidence",
        "side": side,
        "device": _device_dict(device_config),
        "config": _config_scope(config, _TRACE_FIELDS + _SIDE_FIELDS[side]),
    })


def analysis_fingerprint(config, device_config=None) -> str:
    """Fingerprint of everything (besides program + inputs) shaping a
    final report."""
    return fingerprint_value({
        "scope": "analysis",
        "device": _device_dict(device_config),
        "config": _config_scope(
            config, _TRACE_FIELDS + _EVIDENCE_FIELDS + _ANALYSIS_FIELDS),
    })
