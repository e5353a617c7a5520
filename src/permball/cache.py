"""Persistent on-disk cache of exact ball sizes, one plain-text file per key.

Records are JSON with the count as a decimal string (counts outgrow every
fixed width); ``count_text`` and ``parse_count`` convert counts for the
whole package, under any int/str digit limit.  Writes go through a
temporary file and an atomic rename, so concurrent writers of the same
key cannot interleave.  The cache stores and validates;
``verify.check_cache`` re-derives what it stores.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

from .core import BallSpec
from .errors import ValidationError

ENV_CACHE_DIR = "PERMBALL_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "permball"


def _any_digits(convert: Callable, value):
    """``convert(value)``; if Python's int/str digit limit (4,300 by
    default; 2000! has 5,736 digits) refuses it, lift the limit for this
    one conversion and restore the caller's."""
    try:
        return convert(value)
    except ValueError:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(value)
        finally:
            sys.set_int_max_str_digits(saved)


def count_text(count: int) -> str:
    """The decimal form of a count of any length."""
    return _any_digits(str, count)


def parse_count(text: str) -> int:
    """The count a decimal string of any length holds."""
    return _any_digits(int, text)


@dataclass(frozen=True)
class CacheRecord:
    n: int
    r: int
    exact_count: str
    backend: str
    tool_version: str
    timestamp: str

    def spec(self) -> BallSpec:
        return BallSpec(self.n, self.r)


class ResultCache:
    """Directory of one record per (n, r)."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cannot use cache directory {directory}: {exc}"
            ) from exc

    def path_for(self, spec: BallSpec) -> Path:
        return self.directory / f"n{spec.n}_r{spec.r}.json"

    def get(self, spec: BallSpec) -> CacheRecord | None:
        path = self.path_for(spec)
        if not path.exists():
            return None
        return self._load(path)

    def records(self) -> Iterator[CacheRecord]:
        """Every record, in file-name order; an unreadable or misnamed one
        raises ValidationError when reached."""
        for path in sorted(self.directory.glob("n*_r*.json")):
            yield self._load(path)

    def _load(self, path: Path) -> CacheRecord:
        try:
            data = json.loads(path.read_text())
            record = CacheRecord(**data)
            key = record.spec()
        except (
            OSError, json.JSONDecodeError, TypeError, KeyError, ValueError,
            ValidationError,
        ) as exc:
            raise ValidationError(f"unreadable cache record {path}: {exc}") from exc
        count = record.exact_count
        # str.isdigit alone accepts digits such as superscripts, which int()
        # then rejects.
        if not (isinstance(count, str) and count.isascii() and count.isdigit()):
            raise ValidationError(
                f"cache record {path} has a non-decimal count field"
            )
        if self.path_for(key).name != path.name:
            raise ValidationError(
                f"cache record {path} holds n={key.n}, r={key.r}, "
                f"which its file name does not"
            )
        # A record may pad its digits with zeros; the count never does.
        digits = count.lstrip("0") or "0"
        return record if digits == count else replace(record, exact_count=digits)

    def put(self, spec: BallSpec, count: int, backend: str) -> CacheRecord:
        from . import __version__

        record = CacheRecord(
            n=spec.n,
            r=spec.r,
            exact_count=count_text(count),
            backend=backend,
            tool_version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )
        path = self.path_for(spec)
        try:
            fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(asdict(record), handle, indent=1)
                    handle.write("\n")
                os.replace(tmp_name, path)
            finally:
                if os.path.exists(tmp_name):
                    os.unlink(tmp_name)
        except OSError as exc:
            raise ValidationError(f"cannot write cache record {path}: {exc}") from exc
        return record
