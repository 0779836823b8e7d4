"""Output gate: golden digests and the count of failed operations.

Digests are streamed so that checking a 40 MB bag does not add its size
to the peak RSS of the repetition that checks it.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest_after(path, skip_lines: int = 0) -> tuple[str, int, int]:
    """SHA-256, byte count and line count of a file after its first lines."""
    h = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as fh:
        for _ in range(skip_lines):
            fh.readline()
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), size, lines


def body_digest(path) -> tuple[str, int, int]:
    """Digest of a bag body: every byte after the magic and manifest lines."""
    return digest_after(path, 2)


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def golden(seed: int) -> dict | None:
    """Pinned digests of one seed, or None when the seed is not pinned."""
    return load_golden().get(str(seed))


def pinned_seeds() -> list[int]:
    return sorted(int(s) for s in load_golden())


class Ledger:
    """Operations attempted and failed: timed calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail}" if detail else name)

    def record_checks(self, checks: dict):
        for name, ok in checks.items():
            self.record(name, bool(ok), "output differs")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
