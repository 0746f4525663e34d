"""Codewords, difference sets, CAC verification, tightness, certificates.

An equi-difference codeword of length L, weight w and generator g is the
arithmetic progression {0, g, 2g, ..., (w-1)g} mod L. A conflict-avoiding
code is a family of such codewords whose difference sets are pairwise
disjoint; it is tight when the difference sets cover every nonzero
residue.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd
from operator import attrgetter

from .bounds import BoundReport, new_bound
from .errors import (
    DegenerateCodeword,
    HeterogeneousCode,
    NotACac,
    ParseError,
    json_flag,
    json_int,
    json_ints,
)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class DifferenceSet:
    length: int
    elements: frozenset[int]

    def __post_init__(self):
        for x in self.elements:
            if not 1 <= x <= self.length - 1:
                raise ValueError("difference outside Z_L minus 0")
            if (self.length - x) % self.length not in self.elements:
                raise ValueError("difference set not closed under negation")


# difference_set and Code.from_generators build value objects past
# __init__, where the checks hold as built; bound once, as they run per
# codeword
_new = object.__new__
_set_ds_length, _set_ds_elements = DifferenceSet.length.__set__, DifferenceSet.elements.__set__


def support(cw: EquiDiffCodeword) -> frozenset[int]:
    return frozenset(j * cw.generator % cw.length for j in range(cw.weight))


def difference_set(cw: EquiDiffCodeword) -> DifferenceSet:
    """d*(cw) = {+-jg mod L : 1 <= j <= w-1}; size min(L/gcd(L,g), 2w-1) - 1."""
    L, w, g = cw.length, cw.weight, cw.generator
    elems = []
    x = 0  # jg mod L as a running sum
    for _ in range(1, w):
        x += g
        if x >= L:
            x -= L
        elems.append(x)
        elems.append(L - x)
    # the slots set directly, without __post_init__, whose checks hold by
    # construction: EquiDiffCodeword checked 1 <= g <= L-1 and
    # L/gcd(L, g) >= w, so x = jg mod L is nonzero for 1 <= j <= w-1; x and
    # L-x then lie in 1..L-1, and the +- pairs close the set under negation
    ds = _new(DifferenceSet)
    _set_ds_length(ds, L)
    _set_ds_elements(ds, frozenset(elems))
    return ds


def support_difference_set(L: int, elements) -> DifferenceSet:
    """d* of an arbitrary support set, not only an arithmetic progression."""
    elems = set()
    for a in elements:
        for b in elements:
            if a != b:
                elems.add((a - b) % L)
    return DifferenceSet(L, frozenset(elems))


def is_exceptional(cw: EquiDiffCodeword) -> bool:
    """True iff L/gcd(L, g) <= 2w - 2; d(cw) is then <gcd(L, g)> minus 0."""
    return cw.length // gcd(cw.length, cw.generator) <= 2 * cw.weight - 2


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
        """The (L, w) code of one codeword per generator, in order.

        Each codeword gets EquiDiffCodeword's checks inline and its slots
        set directly; a generator that fails them is handed to the public
        constructor, which raises its error. Every codeword is built with
        this (L, w), so __post_init__'s shared-(L, w) loop holds as built.
        """
        if L < 2 or w < 2:
            raise DegenerateCodeword(f"need L >= 2 and w >= 2, got ({L},{w})")
        new, top = _new, L - 1
        set_length = EquiDiffCodeword.length.__set__
        set_weight = EquiDiffCodeword.weight.__set__
        set_generator = EquiDiffCodeword.generator.__set__
        codewords = []
        for g in generators:
            if not 1 <= g <= top or L // gcd(L, g) < w:
                EquiDiffCodeword(L, w, g)
            cw = new(EquiDiffCodeword)
            set_length(cw, L)
            set_weight(cw, w)
            set_generator(cw, g)
            codewords.append(cw)
        code = new(cls)
        object.__setattr__(code, "length", L)
        object.__setattr__(code, "weight", w)
        object.__setattr__(code, "codewords", tuple(codewords))
        return code

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(cw.generator for cw in self.codewords)

    def canonical_generators(self) -> list[int]:
        """Sorted distinct min(g, L - g): g and L - g share a difference set."""
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

    On failure reports the first codeword whose set meets an earlier
    one, paired with the earlier codeword that holds their least shared
    difference, and that difference as witness.
    """
    # owner[x] is 1 + the index of the codeword holding difference x, 0 if
    # none. A list of L slots (8 B per residue) when the at most 2(w-1)n
    # differences could fill an eighth of Z_L, so never larger than a hash
    # set of them (about 64 B each); else a dict of the differences alone
    L, n = code.length, len(code)
    owner = [0] * L if L <= 16 * (code.weight - 1) * n else defaultdict(int)
    covered = 0
    for idx, cw in enumerate(code.codewords, 1):
        elems = difference_set(cw).elements
        for x in elems:
            if owner[x]:
                break
            owner[x] = idx
        else:
            covered += len(elems)
            continue
        # differences of this codeword already written hold idx itself
        witness = min(x for x in elems if 0 < owner[x] < idx)
        return VerificationReport(False, (owner[witness] - 1, idx - 1), witness)
    return VerificationReport(True, covered=covered)


def require_cac(code: Code, prefix: str = "") -> None:
    """Raise NotACac, its message after prefix, unless code is a CAC."""
    report = verify_cac(code)
    if not report.ok:
        raise NotACac(f"{prefix}difference {report.witness} shared by codewords {report.pair}",
                      report)


def is_tight(code: Code) -> bool:
    # two passes where verify_cac(code).covered == L - 1 needs one; the
    # benchmark's tracer test pins the difference_set calls this makes
    require_cac(code)
    total = sum(map(len, map(attrgetter("elements"), map(difference_set, code.codewords))))
    return total == code.length - 1


def code_to_json(code: Code) -> dict:
    return {
        "L": code.length,
        "w": code.weight,
        "generators": code.canonical_generators(),
    }


def code_from_json(obj: dict) -> Code:
    try:
        L, w, gens = obj["L"], obj["w"], obj["generators"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed code ({type(e).__name__}: {e})") from e
    return Code.from_generators(json_int(L, "L", "code"), json_int(w, "w", "code"),
                                json_ints(gens, "generators", "code"))


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
            code = code_from_json(obj["code"])
        except (KeyError, TypeError) as e:
            raise ParseError(f"malformed certificate ({type(e).__name__}: {e})") from e
        return cls(code, *_certificate_claims(obj, code.length, code.weight))


def _certificate_claims(
    obj: dict, L: int, w: int
) -> tuple[BoundReport, CertFlags, dict, int | None]:
    """The bound, flags, params and oracle_max of the certificate obj whose
    code is (L, w). The bound must be new_bound(L, w), equal as canonical
    JSON text, so 1.0, true and "1" are refused where an integer belongs;
    the flags are claims of the right type that each gate decides anew."""
    try:
        bound, f = obj["bound"], obj["flags"]
        if type(bound) is not dict:
            raise ParseError(f"malformed certificate (bound must be an object, got {bound!r})")
        report = new_bound(L, w)
        got = {k: json.dumps(v, sort_keys=True) for k, v in bound.items()}
        want = {k: json.dumps(v) for k, v in report.to_json().items()}
        if got != want:
            key = next(k for k in sorted({*got, *want}) if got.get(k) != want.get(k))
            raise ParseError(f"malformed certificate (bound {key} must be "
                             f"{want.get(key, 'absent')} for a ({L},{w}) code, "
                             f"got {got.get(key, 'absent')})")
        params, oracle_max = obj.get("params", {}), obj.get("oracle_max")
        if type(params) is not dict:
            raise ParseError(f"malformed certificate (params must be an object, got {params!r})")
        flags = CertFlags(
            *(bool(json_flag(f[k], k, "certificate"))
              for k in ("verified_cac", "tight", "optimal_by_bound")),
            json_flag(f.get("optimal_by_oracle"), "optimal_by_oracle", "certificate"),
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise ParseError(f"malformed certificate ({type(e).__name__}: {e})") from e
    return report, flags, dict(params), (
        None if oracle_max is None else json_int(oracle_max, "oracle_max", "certificate"))
