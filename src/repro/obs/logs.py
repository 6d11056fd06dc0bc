"""Run-scoped stdlib logging for the library modules.

Library code (`workloads`, `campaign`, `dse`, ...) reports through loggers
obtained from :func:`get_logger` instead of writing to stdout — stdout stays
reserved for CLI *output* (tables, figures, JSON).  The CLI calls
:func:`configure` exactly once, translating its ``--verbose``/``--quiet``/
``--log-json`` flags into a stderr handler; embedders that never call it get
stdlib default behaviour (warnings and up, plain format), so importing repro
as a library stays silent and unconfigured.

Every record carries a **run context** — a short string like ``sweep:fig4-mini``
set via :func:`run_context` around an entry point — so interleaved lines from
pool workers and the parent remain attributable.  The context travels via a
:class:`contextvars.ContextVar`.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import sys
from typing import Iterator

__all__ = ["get_logger", "configure", "run_context", "current_run_context"]

#: root of the library's logger namespace
ROOT_LOGGER = "repro"

_run_context: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_run_context", default="-"
)


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``name`` is the module)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def current_run_context() -> str:
    """The active run context string (``-`` when none is set)."""
    return _run_context.get()


@contextlib.contextmanager
def run_context(context: str) -> Iterator[None]:
    """Scope all log records inside the block to ``context``."""
    token = _run_context.set(context)
    try:
        yield
    finally:
        _run_context.reset(token)


class _ContextFilter(logging.Filter):
    """Injects the run context into every record as ``run``."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.run = _run_context.get()
        return True


class _JsonFormatter(logging.Formatter):
    """One JSON object per line — machine-ingestable log stream."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S"),
            "level": record.levelname,
            "logger": record.name,
            "run": getattr(record, "run", "-"),
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


_TEXT_FORMAT = "%(levelname)s %(name)s [%(run)s] %(message)s"


def configure(
    verbose: bool = False,
    quiet: bool = False,
    json_lines: bool = False,
    stream=None,
) -> logging.Logger:
    """Install the CLI's logging handler on the ``repro`` logger.

    ``verbose`` lowers the threshold to DEBUG, ``quiet`` raises it to ERROR
    (quiet wins when both are passed); the default is INFO.  ``json_lines``
    switches the formatter to one-JSON-object-per-line.  Logs go to ``stream``
    (default stderr) so stdout stays clean for CLI output.  Idempotent:
    reconfiguring replaces the previously installed handler.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    if quiet:
        level = logging.ERROR
    elif verbose:
        level = logging.DEBUG
    else:
        level = logging.INFO
    logger.setLevel(level)
    logger.propagate = False
    for handler in [h for h in logger.handlers if getattr(h, "_repro_obs", False)]:
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler._repro_obs = True  # type: ignore[attr-defined]
    handler.addFilter(_ContextFilter())
    if json_lines:
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter(_TEXT_FORMAT))
    logger.addHandler(handler)
    return logger


def reset() -> None:
    """Remove obs-installed handlers (test isolation)."""
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in [h for h in logger.handlers if getattr(h, "_repro_obs", False)]:
        logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True
