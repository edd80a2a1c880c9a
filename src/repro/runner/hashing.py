"""Canonical serialization and content hashing for cache keys.

Cache keys are SHA-256 digests of a *canonical* JSON encoding: dict keys
sorted, tuples and sets normalized to lists, numpy scalars unwrapped and
arrays expanded, dataclasses flattened to ``{class: ..., fields: ...}``.

The contract is on the *encoding*, not on Python equality.  Dict
insertion order never matters, and a numpy scalar encodes exactly like
the Python scalar it unwraps to (``np.int64(3)`` like ``3``), so a cache
entry written by one process is found by any other.  Values that
compare equal but encode differently key differently: ``1``, ``1.0`` and
``True`` are three keys, and so are ``0.0`` and ``-0.0``.  Non-string
dict keys are encoded to their JSON text (``1`` -> ``"1"``), so ``{1: x}``
and ``{"1": x}`` share a key.

Large sub-documents that many payloads embed — routing-table docs — are
wrapped in :class:`CanonicalDoc`, which computes its canonical text once
with the C ``json`` encoder and splices it into every enclosing
encoding.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

import numpy as np

#: ``json.dumps`` separators: the compact form keys are built from, and
#: the default form used for the text of non-string dict keys and of set
#: members.
_COMPACT = (",", ":")
_DEFAULT = (", ", ": ")


class CanonicalDoc(dict):
    """A JSON-clean dict that carries its canonical text and digest.

    JSON-clean means string keys and values that are only ``str``, ``int``,
    ``float``, ``bool``, ``None``, lists and dicts of the same: for such a
    doc the C encoder with sorted keys emits exactly the canonical text,
    so :func:`canonical_json` reuses it instead of walking the doc.  The
    text is computed on first use; pickling ships the digest (not the
    text), so a worker can key its memos without re-encoding.  The doc is
    read-only: a mutation would leave the cached text stale.
    """

    __slots__ = ("_text", "_digest")

    def __init__(self, doc, digest: Optional[str] = None):
        super().__init__(doc)
        self._text: Optional[str] = None
        self._digest = digest

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = json.dumps(self, sort_keys=True, separators=_COMPACT)
        return self._text

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = _sha256(self.text)
        return self._digest

    def __reduce__(self):
        return (CanonicalDoc, (dict(self), self.digest))

    def _read_only(self, *args, **kwargs):
        raise TypeError("CanonicalDoc is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def _float(x: float) -> str:
    # json's float spelling: repr for finite values, JS names otherwise.
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _encode(obj: Any, seps) -> str:
    """Canonical JSON text of ``obj`` with ``seps`` (item, key) separators."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float(float(obj))
    item_sep, key_sep = seps
    if isinstance(obj, np.ndarray):
        data = json.dumps(obj.tolist(), sort_keys=True, separators=seps)
        shape = item_sep.join(str(d) for d in obj.shape)
        return (
            f'{{"__ndarray__"{key_sep}[{shape}]{item_sep}'
            f'"data"{key_sep}{data}}}'
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return (
            f'{{"__dataclass__"{key_sep}{_quote(type(obj).__name__)}'
            f'{item_sep}"fields"{key_sep}{_encode(fields, seps)}}}'
        )
    if isinstance(obj, dict):
        if type(obj) is CanonicalDoc and seps is _COMPACT:
            return obj.text
        items = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                k = _encode(k, _DEFAULT)
            items[k] = _encode(v, seps)
        return "{" + item_sep.join(
            _quote(k) + key_sep + items[k] for k in sorted(items)
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + item_sep.join(_encode(v, seps) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        members = sorted(_encode(v, _DEFAULT) for v in obj)
        return "[" + item_sep.join(_quote(m) for m in members) + "]"
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of ``obj`` (compact separators)."""
    return _encode(obj, _COMPACT)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding (the cache key)."""
    if type(obj) is CanonicalDoc:
        return obj.digest
    return _sha256(canonical_json(obj))
