"""Structured outcomes for identity and conjecture checks."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# kind of claim -> (status when no point failed, status otherwise)
_STATUS = {"proven": ("pass", "fail"), "conjecture": ("consistent", "inconsistent"), "info": ("info", "info")}


@dataclass
class VerificationReport:
    """Result of checking one identity over a grid of inputs.

    ``status`` is "pass"/"fail" for proven identities, "consistent"/
    "inconsistent" for conjectures, or "info" for report-only checks.  A
    failed report always carries the first counterexample (inputs plus both
    side values as decimal strings).  ``timing_secs`` is diagnostic only and
    excluded from :meth:`to_dict` so that serialized reports are reproducible.
    """

    name: str
    grid: str
    checked: int
    failures: int
    status: str
    counterexample: dict | None = None
    metadata: dict = field(default_factory=dict)
    timing_secs: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "checked": self.checked,
            "failures": self.failures,
            "status": self.status,
            "counterexample": self.counterexample,
            "metadata": self.metadata,
        }

    def claim(self) -> str:
        if self.status == "consistent":
            return "conjecture: consistent at tested scale"
        if self.status == "inconsistent":
            return "conjecture: counterexample found"
        if self.status == "info":
            return "informational"
        return "identity " + ("verified" if self.passed else "FAILED")


def build_report(name: str, grid: str, kind: str, checked: int, failures: list[dict],
                 metadata: dict, started: float) -> VerificationReport:
    """The report of ``checked`` points of a check of the given ``kind``
    ("proven", "conjecture" or "info"), with its failures in order: the status
    words by kind, the first failure as the counterexample, and the time since
    ``started`` (a ``time.perf_counter()`` reading).  A check of no point is a
    usage error, raised as ``ValueError``."""
    if checked < 1:
        raise ValueError(f"{name} has no point to check ({grid})")
    passed, failed = _STATUS[kind]
    return VerificationReport(
        name=name, grid=grid, checked=checked, failures=len(failures),
        status=failed if failures else passed, counterexample=failures[0] if failures else None,
        metadata=metadata, timing_secs=time.perf_counter() - started)


def render_table(reports: list[VerificationReport]) -> str:
    """Fixed-width text table, one line per report plus counterexamples."""
    name_w = max([len(r.name) for r in reports] + [8])
    lines = [f"{'identity':<{name_w}}  {'checked':>7}  {'failed':>6}  result"]
    for r in reports:
        lines.append(f"{r.name:<{name_w}}  {r.checked:>7}  {r.failures:>6}  {r.claim()}")
        if r.counterexample is not None:
            lines.append(f"{'':<{name_w}}  counterexample: {r.counterexample}")
    return "\n".join(lines)
