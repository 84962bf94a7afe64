"""Oracles as data: each checked output names its reference and tolerance.

An operation is one library call.  It declares its checks up front; a check
pulls one quantity out of the call's result and compares it with a
closed-form or golden reference.  The runner counts an operation as failed
when the call raises or when any of its checks misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Rel:
    """|got - reference| <= tol * |reference|."""

    reference: float
    tol: float

    def holds(self, got) -> bool:
        got = float(got)
        return math.isfinite(got) and abs(got - self.reference) <= self.tol * abs(self.reference)

    def describe(self) -> str:
        return f"{self.reference!r} to {self.tol:g} relative"


@dataclass(frozen=True)
class Abs:
    """|got - reference| <= tol."""

    reference: float
    tol: float

    def holds(self, got) -> bool:
        got = float(got)
        return math.isfinite(got) and abs(got - self.reference) <= self.tol

    def describe(self) -> str:
        return f"{self.reference!r} to {self.tol:g} absolute"


@dataclass(frozen=True)
class Exact:
    """got == reference (verdicts, classifications, golden bytes)."""

    reference: Any

    def holds(self, got) -> bool:
        return got == self.reference

    def describe(self) -> str:
        ref = self.reference
        if isinstance(ref, bytes):
            return f"{len(ref)} golden bytes"
        return f"exactly {ref!r}"


@dataclass(frozen=True)
class WithinOwnError:
    """got is a (value, error) pair; |value - reference| <= error."""

    reference: float

    def holds(self, got) -> bool:
        value, err = (float(v) for v in got)
        return math.isfinite(value) and abs(value - self.reference) <= err

    def describe(self) -> str:
        return f"{self.reference!r} within the returned error"


@dataclass(frozen=True)
class Interval:
    """lo < got <= hi, both finite bounds."""

    lo: float
    hi: float

    def holds(self, got) -> bool:
        got = float(got)
        return math.isfinite(got) and self.lo < got <= self.hi

    def describe(self) -> str:
        return f"in ({self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class Check:
    """One compared quantity of an operation's result."""

    what: str
    get: Callable[[Any], Any]
    oracle: Any

    def run(self, result) -> tuple:
        """(passed, detail); a check that cannot read its quantity misses."""
        try:
            got = self.get(result)
            ok = bool(self.oracle.holds(got))
        except Exception as exc:  # the miss is counted, the run goes on
            return False, f"{self.what}: check raised {type(exc).__name__}: {exc}"
        if ok:
            return True, ""
        shown = repr(got)
        if isinstance(got, bytes) and isinstance(self.oracle.reference, bytes):
            ref = self.oracle.reference
            first = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b),
                         min(len(got), len(ref)))
            shown = f"{len(got)} bytes, first difference at byte {first}"
        return False, f"{self.what}: got {shown}, want {self.oracle.describe()}"


@dataclass(frozen=True)
class Op:
    """One timed library call and the checks its result must pass."""

    name: str
    call: Callable[[], Any]
    checks: tuple


@dataclass(frozen=True)
class Job:
    """A named group of operations; the unit a traced span's job id names."""

    name: str
    ops: tuple
