"""Structured reports with exact values and decimal renderings.

Findings hold exact rationals serialized as strings next to 12-significant-
digit decimal renderings, each the exact quotient rounded once; JSON output is
stable-key-ordered and deterministic for a fixed seed.  Wall-clock timings
appear only in the text rendering so the JSON contract stays byte-stable.
"""

from __future__ import annotations

import hashlib
import json
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

SIG_DIGITS = 12

# Rounds an exact quotient once, half away from zero, at any exponent.
_CONTEXT = Context(prec=SIG_DIGITS, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


def frac_to_decimal(value: Fraction) -> str:
    """Exact rounded decimal rendering of a Fraction to SIG_DIGITS
    significant digits, scientific notation."""
    if value == 0:
        return "0"
    sign, digits, exp = _CONTEXT.divide(Decimal(value.numerator),
                                        Decimal(value.denominator)).as_tuple()
    s = "".join(map(str, digits)).rstrip("0")
    mantissa = s[0] + ("." + s[1:] if len(s) > 1 else "")
    e = exp + len(digits) - 1
    return ("-" if sign else "") + mantissa + (f"e{e:+03d}" if e else "")


def exact_entry(value: Fraction) -> dict:
    """The {'exact': ..., 'decimal': ...} pair of a rational."""
    return {"exact": str(value), "decimal": frac_to_decimal(value)}


class Report:
    """What one subcommand found, filled in as it runs."""

    def __init__(self, command: str, inputs_digest: str, seed: int):
        self.command = command
        self.inputs_digest = inputs_digest
        self.seed = seed
        self.findings = {}
        self.flags = {}
        self.timings = {}

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "inputsDigest": self.inputs_digest,
            "seed": self.seed,
            "findings": self.findings,
            "flags": self.flags,
        }


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=1) + "\n"
    lines = [f"command: {report.command}",
             f"inputs:  sha256:{report.inputs_digest[:16]}...",
             f"seed:    {report.seed}"]

    def walk(prefix, value):
        if isinstance(value, dict):
            if set(value) == {"exact", "decimal"}:
                lines.append(f"{prefix} = {value['exact']}  (~{value['decimal']})")
                return
            for k in value:
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {value}")

    walk("", report.findings)
    for name, ok in report.flags.items():
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
    if report.timings:
        for name, seconds in report.timings.items():
            lines.append(f"time {name}: {seconds:.3f}s")
    return "\n".join(lines) + "\n"
