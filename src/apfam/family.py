"""Residue-class families and the pairwise disjointness criterion.

Two progressions a1 mod q1 and a2 mod q2 share an element exactly when
a1 == a2 (mod gcd(q1, q2)), so disjointness of a whole family reduces to a
gcd test over every pair.  A family ties its members to an upper bound
x_bound on the moduli and is stored on disk as JSON lines: one header
object, then one object per progression in modulus order.
"""

import hashlib
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import FamilyFormatError, NotDisjointError, StructuralError
from .numtheory import crt_pair

NUMPY_CUTOVER = 200
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Progression:
    """The arithmetic progression residue + k*modulus, k >= 0."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise StructuralError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            warnings.warn(
                f"residue {self.residue} reduced mod {self.modulus}", stacklevel=2
            )
            object.__setattr__(self, "residue", self.residue % self.modulus)

    def contains(self, n: int) -> bool:
        return (n - self.residue) % self.modulus == 0

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


def disjoint(p: Progression, q: Progression) -> bool:
    """True iff the two progressions share no integer."""
    return (p.residue - q.residue) % math.gcd(p.modulus, q.modulus) != 0


@dataclass(frozen=True)
class Family:
    """Progressions with strictly increasing moduli, all within [2, x_bound]."""

    items: tuple[Progression, ...]
    x_bound: int
    verified: bool = False
    certificate: str | None = None

    def __post_init__(self):
        if self.x_bound < 2:
            raise StructuralError(f"x_bound must be >= 2, got {self.x_bound}")
        previous = 1
        for pr in self.items:
            if pr.modulus <= previous:
                raise StructuralError(
                    f"moduli must strictly increase, {pr.modulus} after {previous}"
                )
            previous = pr.modulus
        if previous > self.x_bound:
            raise StructuralError(
                f"modulus {previous} exceeds x_bound {self.x_bound}"
            )

    @classmethod
    def build(cls, progressions: Iterable[Progression], x_bound: int) -> "Family":
        """Sort by modulus and validate; the usual way to assemble a family."""
        items = tuple(sorted(progressions, key=lambda pr: pr.modulus))
        return cls(items=items, x_bound=x_bound)

    @property
    def size(self) -> int:
        return len(self.items)

    def moduli(self) -> list[int]:
        return [pr.modulus for pr in self.items]


def density(family: Family) -> Fraction:
    """Exact sum of reciprocals of the moduli."""
    return sum((Fraction(1, pr.modulus) for pr in family.items), Fraction(0))


def translate(family: Family, shift: int) -> Family:
    """Shift every progression by the same constant; disjointness is unaffected.

    The result drops any verified flag: it is a different object and callers
    re-verify if they need the certificate.
    """
    items = tuple(
        Progression((pr.residue + shift) % pr.modulus, pr.modulus)
        for pr in family.items
    )
    return Family(items=items, x_bound=family.x_bound)


@dataclass(frozen=True)
class Witness:
    """Indices of an intersecting pair and their smallest common element."""

    i: int
    j: int
    common: int


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    witness: Witness | None
    pair_count: int
    digest: str | None


def _scan_python(items: Sequence[Progression]) -> tuple[int, int] | None:
    n = len(items)
    for i in range(n - 1):
        ai, qi = items[i].residue, items[i].modulus
        for j in range(i + 1, n):
            if (ai - items[j].residue) % math.gcd(qi, items[j].modulus) == 0:
                return i, j
    return None


def _scan_numpy(items: Sequence[Progression], threads: int) -> tuple[int, int] | None:
    n = len(items)
    q = np.array([pr.modulus for pr in items], dtype=np.int64)
    a = np.array([pr.residue for pr in items], dtype=np.int64)

    def scan_rows(rows) -> tuple[int, int] | None:
        for i in rows:
            g = np.gcd(q[i], q[i + 1 :])
            bad = (a[i] - a[i + 1 :]) % g == 0
            if bad.any():
                return i, i + 1 + int(np.argmax(bad))
        return None

    if threads <= 1:
        return scan_rows(range(n - 1))
    # Strided row sets balance the load; min of per-worker firsts is the
    # global lexicographic first, so the answer is schedule-independent.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        found = [
            hit
            for hit in pool.map(scan_rows, (range(s, n - 1, threads) for s in range(threads)))
            if hit is not None
        ]
    return min(found) if found else None


def verify_family(family: Family, threads: int | None = None) -> VerificationReport:
    """Check every pair; on failure report the lexicographically first one.

    A family of at least NUMPY_CUTOVER members whose moduli fit in int64 is
    scanned row by row in numpy, over `threads` threads (default 1); any
    other family takes the exact Python scan.  The witness does not depend
    on the route and carries the smallest common element of the pair.
    """
    items = family.items
    n = len(items)
    if n >= NUMPY_CUTOVER and items[-1].modulus <= INT64_MAX:
        hit = _scan_numpy(items, threads or 1)
    else:
        hit = _scan_python(items)
    pair_count = n * (n - 1) // 2
    if hit is None:
        return VerificationReport(True, None, pair_count, family_digest(family))
    i, j = hit
    merged = crt_pair(
        items[i].residue, items[i].modulus, items[j].residue, items[j].modulus
    )
    return VerificationReport(False, Witness(i, j, merged[0]), pair_count, None)


def certify(family: Family, threads: int | None = None) -> Family:
    """Return a copy marked verified, or raise NotDisjointError with the pair."""
    report = verify_family(family, threads=threads)
    if not report.ok:
        w = report.witness
        raise NotDisjointError(family.items[w.i], family.items[w.j], w.common)
    return replace(family, verified=True, certificate=report.digest)


def dumps_family(family: Family) -> str:
    lines = [json.dumps({"x": family.x_bound, "count": len(family.items)})]
    lines.extend(
        json.dumps({"q": pr.modulus, "a": pr.residue}) for pr in family.items
    )
    return "\n".join(lines) + "\n"


def family_digest(family: Family) -> str:
    """sha256 of the canonical serialized bytes."""
    return hashlib.sha256(dumps_family(family).encode("utf-8")).hexdigest()


def write_family(family: Family, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_family(family))


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FamilyFormatError(f"{where}: field {key!r} must be an integer")
    return value


def loads_family(text: str) -> Family:
    lines = [line for line in text.split("\n") if line.strip()]
    if not lines:
        raise FamilyFormatError("empty family file")
    rows = []
    for k, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"line {k + 1}: invalid JSON ({exc.msg})") from exc
        if not isinstance(row, dict):
            raise FamilyFormatError(f"line {k + 1}: expected an object")
        rows.append(row)
    x_bound = _require_int(rows[0], "x", "header")
    count = _require_int(rows[0], "count", "header")
    if count != len(rows) - 1:
        raise FamilyFormatError(
            f"header count {count} but {len(rows) - 1} progression lines"
        )
    progressions = []
    for k, row in enumerate(rows[1:]):
        q = _require_int(row, "q", f"line {k + 2}")
        a = _require_int(row, "a", f"line {k + 2}")
        progressions.append(Progression(a, q))
    return Family.build(progressions, x_bound)


def read_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"not UTF-8 text ({exc.reason})") from exc
    return loads_family(text)
