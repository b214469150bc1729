"""Shared audit-report types, JSON-ready."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class AxiomCheck:
    name: str
    max_residual: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def to_dict(self) -> dict:
        return {"name": self.name, "max_residual": float(self.max_residual),
                "tol": float(self.tol), "passed": bool(self.passed),
                "detail": self.detail}

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: max residual {self.max_residual:.3e} (tol {self.tol:.1e})"


@dataclass
class VerificationReport:
    title: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> Optional[AxiomCheck]:
        failing = [c for c in self.checks if not c.passed]
        pool = failing or self.checks
        return max(pool, key=lambda c: c.max_residual) if pool else None

    def add(self, name, max_residual, tol, detail="") -> AxiomCheck:
        check = AxiomCheck(name, float(max_residual), float(tol), detail)
        self.checks.append(check)
        return check

    def add_worst(self, name, gaps, tol, what="pair") -> AxiomCheck:
        """Add a check from (witness, residual) entries, naming the worst.

        The largest residual wins and a tie keeps the first witness; a NaN
        residual beats every number, so it fails the check instead of
        vanishing from a running max.  With no entries the check passes at
        residual 0 and its detail says that nothing was audited.
        """
        worst, res = None, 0.0
        for witness, gap in gaps:
            if worst is None or gap > res or (math.isnan(gap) and not math.isnan(res)):
                worst, res = witness, gap
        detail = (f"no {what}s audited" if worst is None
                  else f"worst {what} {worst!r} of {len(gaps)} {what}s")
        return self.add(name, res, tol, detail)

    def to_dict(self) -> dict:
        return {"title": self.title, "passed": bool(self.passed),
                "checks": [c.to_dict() for c in self.checks]}

    def summary(self) -> str:
        lines = [self.title] + ["  " + c.line() for c in self.checks]
        return "\n".join(lines)
