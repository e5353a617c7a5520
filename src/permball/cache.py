"""Persistent on-disk cache of exact ball sizes, one plain-text file per key.

Records are JSON with the count as a decimal string (counts outgrow every
fixed width).  Writes go through a temporary file and an atomic rename, so
concurrent writers of the same key cannot interleave.  Cached values are
never trusted blindly: the verify command recomputes every record it can
reach and flags mismatches.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .core import BallSpec
from .errors import ValidationError

ENV_CACHE_DIR = "PERMBALL_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "permball"


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
        return record

    def put(self, spec: BallSpec, count: int, backend: str) -> CacheRecord:
        from . import __version__

        record = CacheRecord(
            n=spec.n,
            r=spec.r,
            exact_count=str(count),
            backend=backend,
            tool_version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(),
        )
        path = self.path_for(spec)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(asdict(record), handle, indent=1)
                handle.write("\n")
            os.replace(tmp_name, path)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
        return record

    def audit(self) -> CacheAudit:
        """Recompute every reachable record.  Records that no backend can
        recompute within the exact time budget are listed, not checked."""
        from .oracle import applicable_backends, ball_size_exact

        problems, skipped = [], []
        for path in sorted(self.directory.glob("n*_r*.json")):
            try:
                record = self._load(path)
            except ValidationError as exc:
                problems.append(str(exc))
                continue
            spec = record.spec()
            if not applicable_backends(spec):
                skipped.append(spec)
                continue
            recomputed = ball_size_exact(spec)
            if str(recomputed) != record.exact_count:
                problems.append(
                    f"cache mismatch at n={spec.n}, r={spec.r}: stored "
                    f"{record.exact_count}, recomputed {recomputed}"
                )
        return CacheAudit(problems, skipped)


@dataclass(frozen=True)
class CacheAudit:
    """``ResultCache.audit``'s findings: descriptions of the mismatched
    and unreadable records, and the specs of the records it skipped."""

    problems: list[str]
    skipped: list[BallSpec]
