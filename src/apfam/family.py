"""Residue-class families and the pairwise disjointness criterion.

Two progressions a1 mod q1 and a2 mod q2 share an element exactly when
a1 == a2 (mod gcd(q1, q2)), so disjointness of a whole family reduces to a
gcd test over every pair; verify_family settles most pairs a residue
class at a time and tests the rest one by one.  A family ties its members
to an upper bound x_bound on the moduli and is stored on disk as JSON
lines: one header object, then one object per progression in modulus
order.
"""

import bisect
import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import FamilyFormatError, StructuralError
from .numtheory import crt_pair, sieve_primes

NUMPY_CUTOVER = 200  # a scan row with this many partners runs in numpy
SPLIT_PRIME_LIMIT = 1000  # trial division bound for the split divisors
LEAF_SIZE = 8  # a set this small is scanned, not split
INT64_MAX = int(np.iinfo(np.int64).max)
# A progression line exactly as _lines writes it.  The digit cap leaves
# integers past int()'s default 4300-digit limit to the json path.
_CANONICAL_LINE = re.compile(r'\{"q": (0|[1-9][0-9]{0,999}), "a": (0|[1-9][0-9]{0,999})\}\n?')


@dataclass(frozen=True, slots=True)  # slots: a family holds one per member
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
    """Shift every progression by the same constant; disjointness is unaffected."""
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


class _RowScanner:
    """Exact pair tests, row by row, keeping the first meeting pair found.

    A row with NUMPY_CUTOVER or more partners runs in numpy when every
    modulus fits in int64; every other row runs on Python integers.
    """

    def __init__(self, items: Sequence[Progression]):
        self.q = [pr.modulus for pr in items]
        self.a = [pr.residue for pr in items]
        self.wide = max(self.q, default=0) > INT64_MAX
        self.arrays = None  # (q, a) as int64, built on the first numpy row
        self.best = None

    def scan(self, rows: list[int], partners: list[int]) -> None:
        """Pairs (i, j), i in rows, j in partners, i < j; both ascending.

        Stops at the block's first hit and keeps it if it beats the best;
        rows past the best hit are skipped.
        """
        q, a = self.q, self.a
        block = None  # partners' int64 moduli and residues
        for i in rows:
            if self.best is not None and i > self.best[0]:
                return
            k = bisect.bisect_right(partners, i)
            if len(partners) - k >= NUMPY_CUTOVER and not self.wide:
                if block is None:
                    if self.arrays is None:
                        self.arrays = (np.array(q, dtype=np.int64), np.array(a, dtype=np.int64))
                    js = np.array(partners, dtype=np.intp)
                    block = (self.arrays[0][js], self.arrays[1][js])
                bad = (a[i] - block[1][k:]) % np.gcd(q[i], block[0][k:]) == 0
                j = partners[k + int(np.argmax(bad))] if bad.any() else None
            else:
                ai, qi = a[i], q[i]
                j = next(
                    (j for j in partners[k:] if (ai - a[j]) % math.gcd(qi, q[j]) == 0),
                    None,
                )
            if j is not None:
                if self.best is None or (i, j) < self.best:
                    self.best = (i, j)
                return


def _scan_dense(items: Sequence[Progression]) -> tuple[int, int] | None:
    """Every pair, row by row: the partition's leaf scan over the whole family."""
    scanner = _RowScanner(items)
    everyone = list(range(len(items)))
    scanner.scan(everyone, everyone)
    return scanner.best


def _bases(q: int, primes: Sequence[int], primorial: int) -> tuple[int, ...]:
    """The primes dividing q among `primes` (whose product is `primorial`),
    then q's cofactor free of them, if above 1, whether prime or not."""
    smooth = math.gcd(q, primorial)
    bases = []
    rest = smooth
    for p in primes:
        if p * p > rest:
            break
        if rest % p == 0:
            bases.append(p)
            rest //= p
    if rest > 1:
        bases.append(rest)
    q //= smooth
    while (shared := math.gcd(q, smooth)) > 1:
        q //= shared
    if q > 1:
        bases.append(q)
    return tuple(bases)


def _scan_partition(items: Sequence[Progression]) -> tuple[int, int] | None:
    """The lexicographically first meeting pair, as _scan_python finds it.

    A set of members is split by the divisor m shared by the most of them:
    the members m divides fall into classes by residue mod m, and pairs in
    different classes differ mod m, hence mod their gcd, so they are
    disjoint.  Each class, and the members m does not divide, is split
    again; what no split decides goes to _RowScanner, the exact row
    scanner _scan_dense runs over the whole family.  Those blocks cover
    every undecided pair once, so the first hit over all blocks is the
    global first, and rows past the best hit are skipped.

    The divisors tried for a member are b**(k+1) for each base b of its
    modulus (the primes below SPLIT_PRIME_LIMIT dividing it, and the
    cofactor left by them), where the whole set is known to lie in one
    class mod b**k; a stack entry carries those powers as {b: b**k}.
    """
    if len(items) < 2:
        return None
    scanner = _RowScanner(items)
    q, a, scan = scanner.q, scanner.a, scanner.scan

    # Row 0 first, outright: a family that meets at all usually meets there,
    # and then nothing need be split.
    others = list(range(1, len(items)))
    scan([0], others)
    if scanner.best is not None:
        return scanner.best
    primes = sieve_primes(SPLIT_PRIME_LIMIT)
    primorial = math.prod(primes)
    bases = [_bases(m, primes, primorial) for m in q]
    stack = [(others, {})]
    while stack:
        members, known = stack.pop()
        if scanner.best is not None and members[0] > scanner.best[0]:
            continue
        counts = {}
        if len(members) > LEAF_SIZE:
            for i in members:
                for b in bases[i]:
                    if q[i] % (known.get(b, 1) * b) == 0:
                        counts[b] = counts.get(b, 0) + 1
        b = max(counts, key=counts.get, default=None)
        if b is None or counts[b] < 2:
            scan(members, members)
            continue
        m = known.get(b, 1) * b
        divided, rest, classes = [], [], {}
        for i in members:
            if q[i] % m:
                rest.append(i)
            else:
                divided.append(i)
                classes.setdefault(a[i] % m, []).append(i)
        if rest:
            scan(divided, rest)
            scan(rest, divided)
        within = {**known, b: m}
        children = [(c, within) for c in classes.values() if len(c) > 1]
        if len(rest) > 1:
            children.append((rest, known))
        children.sort(key=lambda child: child[0][0], reverse=True)
        stack.extend(children)
    return scanner.best


def verify_family(family: Family) -> VerificationReport:
    """Check every pair; on failure report the lexicographically first one.

    Most pairs are proven disjoint a class at a time by a shared divisor
    (see _scan_partition); the rest are tested one by one, exactly, by
    _RowScanner, so moduli of any size are handled.  The witness is the
    pair _scan_python would find and carries the smallest common element
    of the pair.
    """
    items = family.items
    n = len(items)
    hit = _scan_partition(items)
    pair_count = n * (n - 1) // 2
    if hit is None:
        return VerificationReport(True, None, pair_count, family_digest(family))
    i, j = hit
    merged = crt_pair(
        items[i].residue, items[i].modulus, items[j].residue, items[j].modulus
    )
    return VerificationReport(False, Witness(i, j, merged[0]), pair_count, None)


def _lines(family: Family) -> Iterable[str]:
    # The bytes json.dumps gives each line's object, formatted directly.
    yield '{"x": %d, "count": %d}\n' % (family.x_bound, len(family.items))
    for pr in family.items:
        yield '{"q": %d, "a": %d}\n' % (pr.modulus, pr.residue)


def dumps_family(family: Family) -> str:
    return "".join(_lines(family))


def family_digest(family: Family) -> str:
    """sha256 of the canonical serialized bytes, hashed line by line."""
    digest = hashlib.sha256()
    for line in _lines(family):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def write_family(family: Family, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_lines(family))


def _require_int(value, what: str) -> int:
    """value itself if it is an int (not a bool), else FamilyFormatError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise FamilyFormatError(f"{what} must be an integer")
    return value


def _parse_line(line: str, number: int) -> dict:
    try:
        row = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise FamilyFormatError(f"line {number}: invalid JSON ({exc})") from exc
    if not isinstance(row, dict):
        raise FamilyFormatError(f"line {number}: expected an object")
    return row


def _parse_family(lines: Iterable[str]) -> Family:
    """A family from its JSON lines, taken one at a time; blank lines skipped."""
    numbered = enumerate((line for line in lines if line.strip()), 1)
    first = next(numbered, None)
    if first is None:
        raise FamilyFormatError("empty family file")
    header = _parse_line(first[1], 1)
    x_bound = _require_int(header.get("x"), "header: field 'x'")
    count = _require_int(header.get("count"), "header: field 'count'")
    progressions = []
    for number, line in numbered:
        canonical = _CANONICAL_LINE.fullmatch(line)
        if canonical:
            q, a = int(canonical[1]), int(canonical[2])
        else:
            row = _parse_line(line, number)
            q = _require_int(row.get("q"), f"line {number}: field 'q'")
            a = _require_int(row.get("a"), f"line {number}: field 'a'")
        progressions.append(Progression(a, q))
    if count != len(progressions):
        raise FamilyFormatError(
            f"header count {count} but {len(progressions)} progression lines"
        )
    return Family.build(progressions, x_bound)


def loads_family(text: str) -> Family:
    return _parse_family(text.split("\n"))


def read_family(path) -> Family:
    # newline="\n" splits lines exactly where loads_family does
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            return _parse_family(fh)
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"not UTF-8 text ({exc.reason})") from exc
