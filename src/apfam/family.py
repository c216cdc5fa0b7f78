"""Residue-class families and the pairwise disjointness criterion.

Two progressions a1 mod q1 and a2 mod q2 share an element exactly when
a1 == a2 (mod gcd(q1, q2)), so disjointness of a whole family reduces to a
gcd test over every pair; verify_family settles most pairs a residue
class at a time and tests the rest one by one.  A family ties its members
to an upper bound x_bound on the moduli and is stored on disk as JSON
lines: one header object, then one object per progression in modulus
order.  A family is named by the sha256 of that canonical text, which is
hashed once: write_family records it as it writes the text, read_family
and loads_family as they read a file that is the canonical text byte for
byte, and family_digest otherwise, on first use.
"""

import bisect
import hashlib
import io
import json
import math
import operator
import re
import warnings
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FamilyFormatError, StructuralError
from .numtheory import FactorTable, _int_column, _prime_tuple, crt_pair, factor_table

NUMPY_CUTOVER = 200  # a scan row with this many partners runs in numpy
SPLIT_PRIME_LIMIT = 1000  # trial division bound for the split divisors
LEAF_SIZE = 8  # a set this small is scanned, not split
INT64_MAX = int(np.iinfo(np.int64).max)
_WRITE_ROWS = 1024  # members formatted by one % in _lines
_READ_CHARS = 1 << 16  # text read from a family file at a time, then on to its line's end
_HEADER = '{"x": %d, "count": %d}\n'  # the header line, as _lines writes it
_LINE = '{"q": %d, "a": %d}\n'  # a progression line, as _lines writes it
# One or more _LINE, with values of at most 18 digits, so each fits in
# int64; and _LINE's text around the values, mapped to spaces.
_CANONICAL = re.compile("(?:%s)+" % re.escape(_LINE).replace("%d", "(?:0|[1-9][0-9]{0,17})"))
_TEXT_TO_SPACES = str.maketrans(dict.fromkeys(_LINE.replace("%d", ""), " "))


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

    A family is stored as two read-only columns, q (the moduli) and a
    (their residues), each made by _column: int64 when every value fits,
    else an object array of Python ints, so a large family holds no object
    per member.  items, the members as Progressions of Python ints built
    from the columns, and factors, the moduli's factor table, are built on
    first use and cached, as is the digest of the canonical text (see
    family_digest); the caches are no part of ==, hash or pickle.
    Family(items, x_bound) and from_columns(q, a, x_bound) validate alike:
    each member by _reduced, the family by _init.
    """

    __slots__ = ("q", "a", "x_bound", "_items", "_factors", "_digest")

    def __init__(self, items: Iterable[Progression], x_bound: int):
        items = tuple(items)
        self._init(_column([pr.modulus for pr in items]), _column([pr.residue for pr in items]), x_bound)

    @classmethod
    def from_columns(cls, moduli: Iterable[int], residues: Iterable[int], x_bound: int) -> "Family":
        """The family of members residues[i] mod moduli[i], checked and
        reduced as Family(items, x_bound) checks the Progressions they make.
        An int64 array passed in is taken over, not copied: see _column."""
        q, a = _column(moduli), _column(residues)
        if q.size != a.size:
            raise StructuralError(f"{q.size} moduli but {a.size} residues")
        if q.size and not ((q >= 2).all() and (a >= 0).all() and (a < q).all()):
            a = _column(list(map(_reduced, a.tolist(), q.tolist())))
        family = object.__new__(cls)
        family._init(q, a, x_bound)
        return family

    def _init(self, q: np.ndarray, a: np.ndarray, x_bound: int) -> None:
        # every member is already checked; this checks the family
        if x_bound < 2:
            raise StructuralError(f"x_bound must be >= 2, got {x_bound}")
        if not _increasing(q):
            k = int(np.argmax(q[1:] <= q[:-1])) + 1
            raise StructuralError(f"moduli must strictly increase, {q[k]} after {q[k - 1]}")
        if q.size and int(q[-1]) > x_bound:
            raise StructuralError(f"modulus {q[-1]} exceeds x_bound {x_bound}")
        caches = (("_items", None), ("_factors", _Factors()), ("_digest", None))
        for name, value in (("q", q), ("a", a), ("x_bound", x_bound), *caches):
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
            object.__setattr__(self, "_items", _progressions(self.q.tolist(), self.a.tolist()))
        return self._items

    @property
    def factors(self) -> FactorTable:
        """The factorizations of the moduli, built on first use: from the
        construction's walk where it supplies them, else by factor_table,
        which raises as it does for the moduli.  Its arrays are read-only."""
        return self._factors.get(self.q)

    @property
    def size(self) -> int:
        return self.q.size

    def moduli(self) -> list[int]:
        return self.q.tolist()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # columns are canonical, so equal values have equal dtypes
        return (
            self.x_bound == other.x_bound
            and np.array_equal(self.q, other.q)
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        return f"Family.from_columns({self.q.tolist()!r}, {self.a.tolist()!r}, {self.x_bound!r})"

    def __getstate__(self):
        # bytes or Python ints, never arrays: pickle hands an array's data
        # to the file out of band, which a plain file-like writer cannot take
        return _column_state(self.q), _column_state(self.a), self.x_bound

    def __setstate__(self, state):
        q, a, x_bound = state
        self._init(_column_from_state(q), _column_from_state(a), x_bound)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Factors:
    """A factor table, built on first use, then kept: by supply when one is
    given, else by factor_table from the moduli.  A build that raises keeps
    nothing, so the next use raises again.  Families with the same moduli
    may share one (see _share_factors)."""

    __slots__ = ("table", "supply")

    def __init__(self, supply: Callable[[], FactorTable] | None = None):
        self.table, self.supply = None, supply

    def get(self, moduli: np.ndarray) -> FactorTable:
        if self.table is None:
            table = factor_table(moduli) if self.supply is None else self.supply()
            for column in table:
                column.flags.writeable = False
            # dropping the supplier frees what it holds
            self.table, self.supply = table, None
        return self.table


def _share_factors(family: Family, factors: _Factors) -> Family:
    # family, now reading its factor table from factors, which must be the
    # table of its moduli
    object.__setattr__(family, "_factors", factors)
    return family


def _column(values) -> np.ndarray:
    """values as a family column: _int_column's array, made read-only.

    An int64 array is taken over without a copy; its caller keeps no other
    use of it.  A value that is no integer raises TypeError.
    """
    column = _int_column(values)
    column.flags.writeable = False
    return column


def _column_state(column: np.ndarray) -> bytes | tuple[int, ...]:
    # what pickles a column: its bytes when int64, else its Python ints
    return column.astype("<i8", copy=False).tobytes() if column.dtype == np.int64 else tuple(column.tolist())


def _column_from_state(state: bytes | tuple[int, ...]) -> np.ndarray:
    if isinstance(state, bytes):
        return _column(np.frombuffer(state, dtype="<i8").astype(np.int64, copy=False))
    return _column(state)


def _increasing(q: np.ndarray) -> bool:
    return bool((q[1:] > q[:-1]).all())


def _progressions(moduli: Sequence[int], residues: Sequence[int]) -> tuple[Progression, ...]:
    # Family.items' builder; no hot path calls it
    return tuple(map(Progression, residues, moduli))


def translate(family: Family, shift: int) -> Family:
    """Shift every progression by the same constant; disjointness is unaffected."""
    shift = operator.index(shift)
    q, a = family.q, family.a
    # shift mod each modulus, in Python ints when the moduli or shift are past int64
    if q.dtype == np.int64 and -INT64_MAX <= shift <= INT64_MAX:
        step = np.remainder(np.int64(shift), q)
    else:
        step = shift % q.astype(object)
    # a - (q - step) lies in (-q, q), so no int64 sum reaches 2**63
    residues = a - (q - step)
    residues += q * (residues < 0)
    # the moduli are kept, so their factor table is too
    return _share_factors(Family.from_columns(q, residues, family.x_bound), family._factors)


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

    A row with NUMPY_CUTOVER or more partners runs in numpy when the
    moduli are an int64 column; every other row runs on Python integers.
    """

    def __init__(self, moduli: Sequence[int], residues: Sequence[int]):
        q, a = _column(moduli), _column(residues)
        self.q = q.tolist()
        self.a = a.tolist()
        self.arrays = (q, a) if q.dtype == a.dtype == np.int64 else None
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
            if len(partners) - k >= NUMPY_CUTOVER and self.arrays is not None:
                if block is None:
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
    primes = _prime_tuple(SPLIT_PRIME_LIMIT)
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
    n = family.size
    hit = _scan_partition(family.q, family.a)
    pair_count = n * (n - 1) // 2
    if hit is None:
        return VerificationReport(True, None, pair_count, family_digest(family))
    i, j = hit
    (qi, qj), (ai, aj) = family.q[[i, j]].tolist(), family.a[[i, j]].tolist()
    merged = crt_pair(ai, qi, aj, qj)
    return VerificationReport(False, Witness(i, j, merged[0]), pair_count, None)


def _lines(family: Family) -> Iterable[str]:
    # The bytes json.dumps gives each line's object, formatted directly,
    # a block of members at a time.
    yield _HEADER % (family.x_bound, family.size)
    for start in range(0, family.size, _WRITE_ROWS):
        rows = np.column_stack((family.q[start : start + _WRITE_ROWS], family.a[start : start + _WRITE_ROWS]))
        yield _LINE * len(rows) % tuple(rows.ravel().tolist())


def dumps_family(family: Family) -> str:
    return "".join(_lines(family))


def family_digest(family: Family) -> str:
    """sha256 of the canonical serialized bytes, dumps_family's text in
    UTF-8: the digest write_family or read_family recorded for this family,
    else hashed a block of lines at a time and recorded."""
    if family._digest is None:
        digest = hashlib.sha256()
        for line in _lines(family):
            digest.update(line.encode())
        _record_digest(family, digest)
    return family._digest


def _record_digest(family: Family, digest) -> None:
    # the first digest recorded stays: any other is of the same text
    if family._digest is None:
        object.__setattr__(family, "_digest", digest.hexdigest())


def write_family(family: Family, path) -> None:
    """Write dumps_family's text to path, hashing it as it goes; the digest
    is recorded for family_digest once the file is closed, so a write that
    raises records nothing."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in _lines(family):
            data = line.encode()
            digest.update(data)
            fh.write(data)
    _record_digest(family, digest)


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


def _canonical_block(block: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The moduli and residues of a block whose every line is _LINE with
    values of at most 18 digits; else None."""
    if not block.endswith("\n"):
        block += "\n"  # the last line of a file without a final line break
    if _CANONICAL.fullmatch(block) is None:
        return None
    # the pattern asks for a line at least: fromstring reads no text as [0]
    values = np.fromstring(block.translate(_TEXT_TO_SPACES), dtype=np.int64, sep=" ")
    return values[0::2], values[1::2]


def _parse_family(fh) -> Family:
    """A family from the JSON lines of fh, a text file or _TextReader
    whose lines end at "\n" alone; blank lines skipped.

    After the header, fh is read in blocks of whole lines.  A block of
    canonical lines is read in numpy; any other block a line at a time by
    json.  Either way a member is reduced or rejected by _reduced in line
    order, and lines are numbered in error messages as the non-blank lines
    they are.  The text is hashed as it is read while it is still, byte for
    byte, dumps_family's text of the family it makes: the header as _lines
    writes it, then canonical blocks that end in a line break and reduce no
    member.  If it stays so to the end, with the moduli already ascending,
    the digest is recorded for family_digest.
    """
    first = line = fh.readline()
    while line and not line.strip():
        line = fh.readline()
    if not line:
        raise FamilyFormatError("empty family file")
    header = _parse_line(line, 1)
    x_bound = _require_int(header.get("x"), "header: field 'x'")
    count = _require_int(header.get("count"), "header: field 'count'")
    # the hash of the text so far, while it is canonical; a blank first
    # line is not the header
    digest = hashlib.sha256(first.encode()) if first == _HEADER % (x_bound, count) else None
    number = 1  # non-blank lines so far, the header included
    moduli, residues = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for block in iter(lambda: fh.read(_READ_CHARS) + fh.readline(), ""):
        columns = _canonical_block(block)
        if columns is not None:
            q, a = columns
            reduced = np.flatnonzero((q < 2) | (a >= q)).tolist()
            for i in reduced:
                a[i] = _reduced(int(a[i]), int(q[i]))
            number += q.size
            if digest is not None and not reduced and block.endswith("\n"):
                digest.update(block.encode())  # ASCII, as the pattern matched it
            else:
                digest = None
        else:
            digest = None
            q, a = [], []
            # each line keeps its line break, as a file's lines do
            for line in io.StringIO(block, newline="\n"):
                if not line.strip():
                    continue
                number += 1
                row = _parse_line(line, number)
                qi = _require_int(row.get("q"), f"line {number}: field 'q'")
                ai = _require_int(row.get("a"), f"line {number}: field 'a'")
                if qi < 2 or not 0 <= ai < qi:
                    ai = _reduced(ai, qi)
                q.append(qi)
                a.append(ai)
        moduli.append(_column(q))
        residues.append(_column(a))
    if count != number - 1:
        raise FamilyFormatError(
            f"header count {count} but {number - 1} progression lines"
        )
    q, a = _column(np.concatenate(moduli)), _column(np.concatenate(residues))
    if not _increasing(q):
        # Equal moduli may come out in either order: a family rejects them
        # by value alone, "moduli must strictly increase, v after v".
        order = np.argsort(q)
        q, a, digest = q[order], a[order], None
    family = Family.from_columns(q, a, x_bound)
    if digest is not None:
        _record_digest(family, digest)
    return family


class _TextReader:
    """read and readline over a str, for _parse_family: lines end at "\n"
    alone, as in a file opened with newline="\n".  Each call slices the
    text, so no copy of the whole is made."""

    __slots__ = ("text", "at")

    def __init__(self, text: str):
        self.text, self.at = text, 0

    def read(self, size: int) -> str:
        chunk = self.text[self.at : self.at + size]
        self.at += len(chunk)
        return chunk

    def readline(self) -> str:
        end = self.text.find("\n", self.at) + 1 or len(self.text)
        line, self.at = self.text[self.at : end], end
        return line


def loads_family(text: str) -> Family:
    """The family of a family file's text, read as read_family reads the
    file; the digest is recorded as read_family records it."""
    return _parse_family(_TextReader(text))


def read_family(path) -> Family:
    """The family in the file at path.  If the file is byte for byte the
    text write_family writes for it, its sha256, hashed while it was read,
    is recorded for family_digest."""
    # newline="\n" splits lines exactly where loads_family does
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            return _parse_family(fh)
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"not UTF-8 text ({exc.reason})") from exc
