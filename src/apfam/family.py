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
import operator
import re
import warnings
from dataclasses import FrozenInstanceError, dataclass
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


def _reduced(residue: int, modulus: int) -> int:
    """residue as a member takes it: a modulus below 2 is rejected, and a
    residue outside [0, modulus) is reduced with a warning."""
    if modulus < 2:
        raise StructuralError(f"modulus must be >= 2, got {modulus}")
    if not 0 <= residue < modulus:
        warnings.warn(f"residue {residue} reduced mod {modulus}", stacklevel=3)
        residue %= modulus
    return residue


@dataclass(frozen=True, slots=True)  # slots: a family's items view holds one per member
class Progression:
    """The arithmetic progression residue + k*modulus, k >= 0."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2 or not 0 <= self.residue < self.modulus:
            object.__setattr__(self, "residue", _reduced(self.residue, self.modulus))

    def __str__(self):
        return f"{self.residue} mod {self.modulus}"


class Family:
    """Progressions with strictly increasing moduli, all within [2, x_bound].

    A family is stored as two tuples of ints, q (the moduli) and a (their
    residues), so a large one holds no object per member.  items, the
    members as Progressions, is built on first use and cached; the cache is
    no part of ==, hash or pickle.  Family(items, x_bound) and
    from_columns(q, a, x_bound) validate alike: each member by _reduced,
    the family by _init.
    """

    __slots__ = ("q", "a", "x_bound", "_items")

    def __init__(self, items: Iterable[Progression], x_bound: int):
        items = tuple(items)
        moduli = tuple([pr.modulus for pr in items])
        self._init(moduli, tuple([pr.residue for pr in items]), x_bound, items)

    @classmethod
    def from_columns(cls, moduli: Iterable[int], residues: Iterable[int], x_bound: int) -> "Family":
        """The family of members residues[i] mod moduli[i], checked and
        reduced as Family(items, x_bound) checks the Progressions they make."""
        moduli, residues = tuple(moduli), tuple(residues)
        if len(moduli) != len(residues):
            raise StructuralError(f"{len(moduli)} moduli but {len(residues)} residues")
        if moduli and not (
            min(moduli) >= 2 and min(residues) >= 0 and all(map(operator.lt, residues, moduli))
        ):
            residues = tuple(map(_reduced, residues, moduli))
        family = object.__new__(cls)
        family._init(moduli, residues, x_bound, None)
        return family

    def _init(self, q: tuple, a: tuple, x_bound: int, items) -> None:
        # every member is already checked; this checks the family
        if x_bound < 2:
            raise StructuralError(f"x_bound must be >= 2, got {x_bound}")
        if not all(map(operator.lt, q, q[1:])):
            k = next(k for k in range(1, len(q)) if q[k] <= q[k - 1])
            raise StructuralError(f"moduli must strictly increase, {q[k]} after {q[k - 1]}")
        if q and q[-1] > x_bound:
            raise StructuralError(f"modulus {q[-1]} exceeds x_bound {x_bound}")
        for name, value in (("q", q), ("a", a), ("x_bound", x_bound), ("_items", items)):
            object.__setattr__(self, name, value)

    @classmethod
    def build(cls, progressions: Iterable[Progression], x_bound: int) -> "Family":
        """Sort by modulus and validate; the usual way to assemble a family."""
        items = tuple(sorted(progressions, key=lambda pr: pr.modulus))
        return cls(items=items, x_bound=x_bound)

    @property
    def items(self) -> tuple[Progression, ...]:
        """The members as Progressions, built on first use."""
        if self._items is None:
            object.__setattr__(self, "_items", _progressions(self.q, self.a))
        return self._items

    @property
    def size(self) -> int:
        return len(self.q)

    def moduli(self) -> list[int]:
        return list(self.q)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x_bound, self.q, self.a) == (other.x_bound, other.q, other.a)

    def __hash__(self):
        return hash((self.x_bound, self.q, self.a))

    def __repr__(self):
        return f"Family.from_columns({self.q!r}, {self.a!r}, {self.x_bound!r})"

    def __getstate__(self):
        return self.q, self.a, self.x_bound

    def __setstate__(self, state):
        self._init(*state, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _progressions(moduli: Sequence[int], residues: Sequence[int]) -> tuple[Progression, ...]:
    # Family.items' builder; no hot path calls it
    return tuple(map(Progression, residues, moduli))


def _sorted_columns(moduli: list[int], residues: list[int]) -> tuple[list[int], list[int]]:
    """Both columns ordered by modulus, stably, as Family.build orders
    members; each residue must lie in [0, its modulus)."""
    if all(map(operator.lt, moduli, moduli[1:])):
        return moduli, residues
    # int64 when it holds every value, else Python ints compared as objects
    dtype = np.int64 if max(moduli) <= INT64_MAX else object
    q, a = np.array(moduli, dtype=dtype), np.array(residues, dtype=dtype)
    order = np.argsort(q, kind="stable")
    return q[order].tolist(), a[order].tolist()


def translate(family: Family, shift: int) -> Family:
    """Shift every progression by the same constant; disjointness is unaffected."""
    moduli = family.q
    residues = [(a + shift) % q for a, q in zip(family.a, moduli)]
    return Family.from_columns(moduli, residues, family.x_bound)


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


class _RowScanner:
    """Exact pair tests, row by row, keeping the first meeting pair found.

    A row with NUMPY_CUTOVER or more partners runs in numpy when every
    modulus fits in int64; every other row runs on Python integers.
    """

    def __init__(self, moduli: Sequence[int], residues: Sequence[int]):
        self.q = moduli
        self.a = residues
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


def _scan_dense(moduli: Sequence[int], residues: Sequence[int]) -> tuple[int, int] | None:
    """Every pair, row by row: the partition's leaf scan over the whole family."""
    scanner = _RowScanner(moduli, residues)
    everyone = list(range(len(moduli)))
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


def _scan_partition(moduli: Sequence[int], residues: Sequence[int]) -> tuple[int, int] | None:
    """The lexicographically first meeting pair (i, j), i < j.

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
    if len(moduli) < 2:
        return None
    scanner = _RowScanner(moduli, residues)
    q, a, scan = scanner.q, scanner.a, scanner.scan

    # Row 0 first, outright: a family that meets at all usually meets there,
    # and then nothing need be split.
    others = list(range(1, len(moduli)))
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
    first meeting pair (i, j) in the order of a scan over every i < j, and
    carries the smallest common element of the pair.
    """
    q, a = family.q, family.a
    n = len(q)
    hit = _scan_partition(q, a)
    pair_count = n * (n - 1) // 2
    if hit is None:
        return VerificationReport(True, None, pair_count, family_digest(family))
    i, j = hit
    merged = crt_pair(a[i], q[i], a[j], q[j])
    return VerificationReport(False, Witness(i, j, merged[0]), pair_count, None)


def _lines(family: Family) -> Iterable[str]:
    # The bytes json.dumps gives each line's object, formatted directly.
    yield '{"x": %d, "count": %d}\n' % (family.x_bound, family.size)
    for q, a in zip(family.q, family.a):
        yield f'{{"q": {q}, "a": {a}}}\n'


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
    # JSONDecodeError, an integer past int's digit limit, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
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
    moduli, residues = [], []
    for number, line in numbered:
        canonical = _CANONICAL_LINE.fullmatch(line)
        if canonical:
            q, a = int(canonical[1]), int(canonical[2])
        else:
            row = _parse_line(line, number)
            q = _require_int(row.get("q"), f"line {number}: field 'q'")
            a = _require_int(row.get("a"), f"line {number}: field 'a'")
        if q < 2 or not 0 <= a < q:
            a = _reduced(a, q)
        moduli.append(q)
        residues.append(a)
    if count != len(moduli):
        raise FamilyFormatError(
            f"header count {count} but {len(moduli)} progression lines"
        )
    return Family.from_columns(*_sorted_columns(moduli, residues), x_bound)


def loads_family(text: str) -> Family:
    return _parse_family(text.split("\n"))


def read_family(path) -> Family:
    # newline="\n" splits lines exactly where loads_family does
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            return _parse_family(fh)
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"not UTF-8 text ({exc.reason})") from exc
