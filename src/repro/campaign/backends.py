"""Store helpers that import nothing from ``repro``.

The campaign store itself is :class:`repro.campaign.store.ResultStore`
(with its ``json:`` and ``sqlite:`` subclasses).  This module holds what
code outside the store layer needs without importing it — ``repro obs``
resolves a store URL to its telemetry journal with :func:`parse_store_url`
and :func:`journal_path`, and ``repro dse`` writes ``dse.json`` with
:func:`atomic_write_text`:

* the store errors: :class:`StoreURLError` (a usage error),
  :class:`StoreConflictError`, :class:`StoreWriteError` and
  :class:`StoreReadError`;
* :func:`parse_store_url`, which splits ``json:DIR``, ``sqlite:FILE`` or a
  bare directory path into ``(scheme, path)``;
* :func:`journal_path`, where a store's telemetry journal lives;
* :func:`atomic_write_text`, a file write no reader sees half done;
* :func:`canonical_json`, the text both stores hold for a record:
  ``json.dumps(record, indent=1, sort_keys=True)`` byte for byte.
  Passing ``indent`` turns CPython's C encoder off, so the text is built
  from C-encoded flat containers instead, and only the nested levels are
  joined in Python.
"""

from __future__ import annotations

import json
import os
import re
import uuid
from functools import lru_cache
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Tuple, Union


class StoreURLError(ValueError):
    """An unparseable or unsupported store URL (a usage error: exit 2)."""


class StoreConflictError(RuntimeError):
    """Concurrent writers clobbered each other's campaign manifest."""


class StoreWriteError(OSError):
    """A campaign's own write failed: a cell record into its store or a line
    into its telemetry journal.  The message names the store (or journal);
    the failed call's error is the ``__cause__``."""


class StoreReadError(ValueError):
    """A stored cell record does not parse.  The message names the store,
    the cell key and, for ``json:``, the file, and says that deleting the
    record makes the next run recompute the cell; the decode error is the
    ``__cause__``."""


#: recognised store URL schemes, in documentation order
STORE_SCHEMES: Tuple[str, ...] = ("json", "sqlite")


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: stage it, then ``os.replace``.

    Each write stages under a name no other write uses,
    ``<stem>.<random hex>.tmp``, so two writers of one path (two processes,
    or two stores of one directory in one process) never rename each
    other's staging file away; the last rename wins.
    """
    tmp = path.with_name(f"{path.stem}.{uuid.uuid4().hex}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def parse_store_url(url: Union[str, Path]) -> Tuple[str, str]:
    """Split a store URL into ``(scheme, path)``.

    ``json:DIR`` and ``sqlite:FILE`` select a store explicitly; a bare
    path (no scheme) keeps the historical meaning — a JSON campaign
    directory.  Unknown schemes raise :class:`StoreURLError` naming the
    supported ones, so a typo never silently creates a directory called
    ``sqlit:foo``.
    """
    text = str(url)
    if not text:
        raise StoreURLError(
            f"empty store URL; expected <scheme>:<path> with scheme one of "
            f"{', '.join(STORE_SCHEMES)} (or a bare directory path)"
        )
    scheme, sep, rest = text.partition(":")
    if not sep:
        return "json", text
    if not re.match(r"^[A-Za-z][A-Za-z0-9+.-]*$", scheme):
        # "./results:odd" — the colon is part of a path, not a scheme.
        return "json", text
    if scheme not in STORE_SCHEMES:
        raise StoreURLError(
            f"unsupported store scheme {scheme!r} in {text!r}: supported "
            f"schemes are {', '.join(f'{s}:' for s in STORE_SCHEMES)} "
            "(a bare path selects json:)"
        )
    if not rest:
        raise StoreURLError(f"store URL {text!r} has no path after the scheme")
    return scheme, rest


def journal_path(scheme: str, path: Union[str, Path]) -> Path:
    """Where the telemetry journal of the ``scheme`` store at ``path``
    lives (it may not exist yet): ``telemetry.jsonl`` inside a JSON store's
    directory, ``<db>.telemetry.jsonl`` beside an SQLite database."""
    path = Path(path)
    if scheme == "sqlite":
        return path.with_name(path.name + ".telemetry.jsonl")
    return path / "telemetry.jsonl"


#: containers the canonical encoder joins by hand when they nest
_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _flat_encoder(level: int) -> Tuple[Callable, str, str]:
    """The C encoder of a flat container that opens at nesting ``level``,
    the text that opens its items and the text that closes them."""
    inner = "\n" + " " * (level + 1)
    encoder = c_make_encoder(
        None,  # no cycle check: a flat container holds no container
        json.JSONEncoder().default,
        encode_basestring_ascii,
        None,  # no indent: the item separator carries it
        ": ",
        "," + inner,
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return encoder, inner, "\n" + " " * level


def _encode_level(obj, level: int) -> str:
    """The dict, list or tuple ``obj`` as ``json.dumps(indent=1,
    sort_keys=True)`` writes it when it opens at nesting ``level``: a flat
    one in one C call, one holding containers joined here."""
    encoder, inner, outer = _flat_encoder(level)
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if not any(map(isinstance, values, repeat(_CONTAINERS))):
        text = "".join(encoder(obj, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1] if obj else text
    if is_dict:
        keys = sorted(obj)
        values = [obj[key] for key in keys]
    texts = [
        _encode_level(value, level + 1)
        if isinstance(value, _CONTAINERS)
        else "".join(encoder(value, 0))
        for value in values
    ]
    if not is_dict:
        return "[" + inner + ("," + inner).join(texts) + outer + "]"
    # encode_basestring_ascii raises TypeError for a key that is not a str,
    # which json.dumps coerces: canonical_json leaves such dicts to it
    items = [f"{encode_basestring_ascii(key)}: {text}" for key, text in zip(keys, texts)]
    return "{" + inner + ("," + inner).join(items) + outer + "}"


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True)``, byte for byte: the
    canonical text of a cell record.

    Both stores hold exactly this text, so a cell computed against a JSON
    store and one computed against an SQLite store are bit-identical on
    disk.  Each flat dict or list is one call of a cached C encoder whose item
    separator carries the indent; only containers that hold containers are
    joined in Python.  Whatever that path cannot encode (a non-string key
    of a nested dict, a cycle, an unserializable value) and Pythons without
    the C encoder go to ``json.dumps`` itself, which returns the text or
    raises its own error.
    """
    if c_make_encoder is not None and isinstance(obj, _CONTAINERS):
        try:
            return _encode_level(obj, 0)
        except (TypeError, ValueError, RecursionError):
            pass
    return json.dumps(obj, indent=1, sort_keys=True)
