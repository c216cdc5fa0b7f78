"""Iterated common-prime refinement of a disjoint family, with certificates.

Start from the members whose squarefree moduli have fewer than omega_cap
distinct prime factors and at least one prime factor above prime_floor.
Each step picks the member r with the fewest prime factors (the smallest
modulus among ties), collects the primes of r not yet fixed, takes the one
e dividing the most members (the smallest among ties), and keeps the
members divisible by e in the residue class B mod e that holds the most of
them (the smallest B among ties).  Pairwise disjointness forces every
member to be divisible by at least one collected prime (two members
agreeing modulo all shared primes would intersect), so pigeonholing over at
most omega_cap primes and e residue classes keeps the survivor count within
a predictable factor.  Before each step, the run stops once some unfixed
prime of at least prime_floor divides at least a 1/ratio_denominator
fraction of the survivors; the witness is the one dividing the most (the
smallest among ties).  The certificate records every choice so a checker
can replay the run independently.
"""

import bisect
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError, FamilyFormatError, NotDisjointError
from .family import Family, Progression, _require_int
from .numtheory import FACTOR_LIMIT, FactorTable, crt_pair, factor_table, l_scale, omega_threshold

# RefinementParams' float fields, each a JSON number in a certificate
_THRESHOLDS = ("omega_cap", "prime_floor", "ratio_denominator")


@dataclass(frozen=True)
class RefinementParams:
    """Thresholds for the base-set filter and the stopping rule.

    omega_cap and ratio_denominator default to the omega threshold
    sqrt(log x / log log x), and prime_floor to L(1, x).
    """

    x: int
    omega_cap: float | None = None
    prime_floor: float | None = None
    ratio_denominator: float | None = None

    def __post_init__(self):
        if self.x < 16:
            raise DomainError(f"refinement needs x >= 16, got {self.x}")
        if self.omega_cap is None:
            object.__setattr__(self, "omega_cap", omega_threshold(self.x, 1))
        if self.prime_floor is None:
            object.__setattr__(self, "prime_floor", l_scale(1, self.x))
        if self.ratio_denominator is None:
            object.__setattr__(self, "ratio_denominator", omega_threshold(self.x, 1))
        for name in _THRESHOLDS:
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_cap <= 0:
            raise DomainError("omega_cap must be positive")
        if self.prime_floor < 2:
            raise DomainError("prime_floor must be at least 2")
        if self.ratio_denominator <= 0:
            raise DomainError("ratio_denominator must be positive")


@dataclass(frozen=True)
class RefinementStep:
    """One recorded step: S_prev -> survivors."""

    index: int
    chosen_modulus: int
    candidate_primes: tuple[int, ...]
    prime: int
    residue_class: int
    combined_residue: int
    survivors: tuple[int, ...]


@dataclass(frozen=True)
class RefinementCertificate:
    params: RefinementParams
    base: tuple[Progression, ...]
    steps: tuple[RefinementStep, ...]
    t: int
    witness_prime: int | None
    divisible_count: int


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None
    strict_property3: bool = True

    def __bool__(self):
        return self.ok


def _squarefree_table(family: Family) -> FactorTable:
    # the family's factor table, failing as factoring member by member would:
    # on the first modulus in order that is not squarefree or cannot be factored
    moduli = family.q
    try:
        table = family.factors
    except CapacityError:
        # a modulus that is not squarefree before the first oversized one fails first
        _require_squarefree(factor_table(moduli[: np.argmax(moduli > FACTOR_LIMIT)]), moduli)
        raise
    _require_squarefree(table, moduli)
    return table


def _require_squarefree(table: FactorTable, moduli: np.ndarray) -> None:
    square = table.index[table.exponent > 1]
    if square.size:
        raise DomainError(f"modulus {moduli[int(square.min())]} is not squarefree")


class _PrimeMap(NamedTuple):
    """The primes of the base members as two aligned arrays: hit k says that
    primes[pid[k]] divides the base member at position member[k].  primes
    ascends, and each member's hits appear in the order of its primes, so
    its ids ascend too.  size is the number of base members."""

    member: np.ndarray
    pid: np.ndarray
    primes: np.ndarray
    size: int


def _eligible(family: Family, params: RefinementParams) -> tuple[np.ndarray, np.ndarray, _PrimeMap]:
    # the base set: the members with omega below omega_cap and a prime factor
    # above prime_floor, both strictly, as slices of the family's moduli and
    # residues, and their primes, from the family's factor table.  Requires
    # every modulus squarefree, so p divides one exactly when p is among its
    # primes.
    table = _squarefree_table(family)
    omega = np.bincount(table.index, minlength=family.size) + (table.cofactor > 1)
    large = table.cofactor > params.prime_floor
    large[table.index[table.prime > params.prime_floor]] = True
    keep = (omega < params.omega_cap) & large
    position = np.cumsum(keep) - 1
    hit = keep[table.index]
    big = np.flatnonzero(keep & (table.cofactor > 1))
    # a member's table hits ascend, and its cofactor, above them, comes
    # after every hit
    member = np.concatenate((position[table.index[hit]], position[big]))
    primes, pid = np.unique(np.concatenate((table.prime[hit], table.cofactor[big])), return_inverse=True)
    pm = _PrimeMap(member, pid.ravel(), primes, int(np.count_nonzero(keep)))
    return family.q[keep], family.a[keep], pm


# The step rules, shared by the chain and its checker.  Both hold members as
# ascending positions into the base's columns, so position order is
# modulus order, and primes as ids into the prime map's primes; used is a
# mask over those ids.


def _dividing(pm: _PrimeMap, ids) -> np.ndarray:
    # a mask over the base members: those divisible by some prime of ids
    marked = np.zeros(pm.primes.size, dtype=bool)
    marked[ids] = True
    mask = np.zeros(pm.size, dtype=bool)
    mask[pm.member[marked[pm.pid]]] = True
    return mask


def _candidates(chosen: int, used: np.ndarray, pm: _PrimeMap) -> np.ndarray:
    # the primes of the chosen member that no earlier step fixed
    ids = pm.pid[pm.member == chosen]
    return ids[~used[ids]]


def _first_uncovered(members: np.ndarray, chosen: int, candidates: np.ndarray, pm: _PrimeMap) -> int | None:
    # the first member besides the chosen one divisible by no candidate prime
    left = members[~_dividing(pm, candidates)[members] & (members != chosen)]
    return int(left[0]) if left.size else None


def _prime_counts(members: np.ndarray, pm: _PrimeMap) -> np.ndarray:
    # how many members each prime divides, by id
    live = np.zeros(pm.size, dtype=bool)
    live[members] = True
    return np.bincount(pm.pid[live[pm.member]], minlength=pm.primes.size)


def _divisible(members: np.ndarray, prime: int, pm: _PrimeMap) -> np.ndarray:
    # the members divisible by the prime of that id, in order
    return members[_dividing(pm, prime)[members]]


def _in_class(members: np.ndarray, prime: int, b: int, residues: np.ndarray, pm: _PrimeMap) -> np.ndarray:
    # the members divisible by the prime of that id and congruent to b mod
    # it, in order; b is any int, so it is range-checked before numpy sees it
    divisible = _divisible(members, prime, pm)
    p = int(pm.primes[prime])
    if not 0 <= b < p:
        return divisible[:0]
    return divisible[residues[divisible] % p == b]


def _stop_witness(
    members: np.ndarray, counts: np.ndarray, used: np.ndarray, pm: _PrimeMap, params: RefinementParams
) -> tuple[int, int] | None:
    # the stopping rule: an unused prime of at least prime_floor dividing
    # at least |members| / ratio_denominator of the members, by counts,
    # how many members each prime divides; argmax takes the first, smallest,
    # of the primes tied
    eligible = np.where((pm.primes >= params.prime_floor) & ~used, counts, 0)
    best = int(np.argmax(eligible))
    count = int(eligible[best])
    if count and count * params.ratio_denominator >= members.size:
        return int(pm.primes[best]), count
    return None


def _position(ascending: list[int], v: int) -> int | None:
    # the index of v in an ascending list of Python ints, or None; v is any int
    i = bisect.bisect_left(ascending, v)
    return i if i < len(ascending) and ascending[i] == v else None


def build_chain(family: Family, params: RefinementParams) -> RefinementCertificate:
    """Run the refinement to a stopping witness and certify every step.

    Raises NotDisjointError with a concrete intersecting pair when some
    member shares no new prime with the chosen one, which is impossible for
    a disjoint input.  The guarantees assume ratio_denominator >= omega_cap
    (the defaults are equal); with a smaller ratio the chain can strand
    itself on one member with no unused prime, which raises DomainError.
    """
    q, a, pm = _eligible(family, params)
    # the certificate's own Progressions, not the family's items view
    base_items = tuple(map(Progression, a.tolist(), q.tolist()))
    if not base_items:
        return RefinementCertificate(
            params=params, base=(), steps=(), t=0, witness_prime=None, divisible_count=0
        )
    omega = np.bincount(pm.member, minlength=pm.size)
    members = np.arange(pm.size)
    used = np.zeros(pm.primes.size, dtype=bool)
    steps: list[RefinementStep] = []
    product = 1
    combined = 0
    while True:
        counts = _prime_counts(members, pm)
        hit = _stop_witness(members, counts, used, pm, params)
        if hit is not None:
            # hit is the witness prime and its divisible count
            return RefinementCertificate(params, base_items, tuple(steps), len(steps), *hit)
        if members.size < 2:
            raise DomainError(
                "refinement stalled on one member with no qualifying prime; "
                "requires ratio_denominator >= omega_cap to be guaranteed"
            )
        # every member is pinned to combined mod the used primes, each of
        # which divides it, so the fewest primes leave the fewest candidates;
        # argmin takes the first, smallest modulus, of the members tied
        chosen = int(members[np.argmin(omega[members])])
        candidates = _candidates(chosen, used, pm)
        other = _first_uncovered(members, chosen, candidates, pm)
        if other is not None:
            # both members agree modulo every prime of the gcd, hence intersect
            merged = crt_pair(int(a[chosen]), int(q[chosen]), int(a[other]), int(q[other]))
            raise NotDisjointError(base_items[chosen], base_items[other], merged[0])

        # candidates ascend, so argmax takes the smallest of the primes tied
        prime = int(candidates[np.argmax(counts[candidates])])
        p = int(pm.primes[prime])
        # unique sorts the classes ascending: argmax takes the smallest tied
        classes, sizes = np.unique(a[_divisible(members, prime, pm)] % p, return_counts=True)
        residue_class = int(classes[np.argmax(sizes)])
        members = _in_class(members, prime, residue_class, a, pm)
        combined = crt_pair(combined, product, residue_class, p)[0]
        product *= p
        used[prime] = True
        steps.append(
            RefinementStep(
                index=len(steps) + 1,
                chosen_modulus=int(q[chosen]),
                candidate_primes=tuple(pm.primes[candidates].tolist()),
                prime=p,
                residue_class=residue_class,
                combined_residue=combined,
                survivors=tuple(q[members].tolist()),
            )
        )


def check_certificate(cert: RefinementCertificate, family: Family) -> CertificateCheck:
    """Independently replay a certificate against the family it refines.

    Divisibility is read from the factorizations of the base moduli, so the
    witness must be a prime of the final survivors.  Returns ok=False with a
    reason code on the first property that fails: base, structure,
    candidates, covering, survivors, Property 2..4, or size bound.
    strict_property3 reports whether every per-step survivor bound held
    strictly rather than with equality.
    """
    params = cert.params
    ratio = params.ratio_denominator
    try:
        base_q, base_a, pm = _eligible(family, params)
    except DomainError:
        return CertificateCheck(False, "base")
    q = base_q.tolist()
    if [pr.modulus for pr in cert.base] != q or [pr.residue for pr in cert.base] != base_a.tolist():
        return CertificateCheck(False, "base")
    if cert.t != len(cert.steps):
        return CertificateCheck(False, "structure")
    if not cert.base:
        if cert.steps or cert.witness_prime is not None or cert.divisible_count:
            return CertificateCheck(False, "structure")
        return CertificateCheck(True)

    # each step's survivors are members of the previous set in one class
    # mod a new prime, so checking combined_residue against the previous
    # residue and the class pins every survivor modulo the new product
    current = np.arange(pm.size)
    used = np.zeros(pm.primes.size, dtype=bool)
    product = 1
    combined = 0
    strict = True
    for k, step in enumerate(cert.steps, start=1):
        chosen = _position(q, step.chosen_modulus)
        if step.index != k or chosen is None or chosen not in current:
            return CertificateCheck(False, "structure")
        candidates = _candidates(chosen, used, pm)
        candidate_primes = tuple(pm.primes[candidates].tolist())
        if step.candidate_primes != candidate_primes or step.prime not in candidate_primes:
            return CertificateCheck(False, "candidates")
        if _first_uncovered(current, chosen, candidates, pm) is not None:
            return CertificateCheck(False, "covering")
        prime = int(candidates[candidate_primes.index(step.prime)])
        survivors = _in_class(current, prime, step.residue_class, base_a, pm)
        if step.survivors != tuple(base_q[survivors].tolist()):
            return CertificateCheck(False, "survivors")
        new_product = product * step.prime
        if (
            step.combined_residue % product != combined
            or step.combined_residue % step.prime != step.residue_class
            or not 0 <= step.combined_residue < new_product
        ):
            return CertificateCheck(False, "Property 2")
        kept = len(step.survivors) * step.prime * ratio
        if kept < current.size:
            return CertificateCheck(False, "Property 3")
        if kept == current.size:
            strict = False
        current = survivors
        used[prime] = True
        product = new_product
        combined = step.combined_residue

    # a witness that is no prime of the base divides no survivor, so the
    # first test rejects it, as it does a missing one
    witness = None if cert.witness_prime is None else _position(pm.primes.tolist(), cert.witness_prime)
    count = 0 if witness is None else _divisible(current, witness, pm).size
    if count != cert.divisible_count or count * ratio < current.size:
        return CertificateCheck(False, "Property 4", strict)
    if used[witness] or cert.witness_prime < params.prime_floor:
        return CertificateCheck(False, "Property 4", strict)
    # exact: a finite ratio raised to the power t + 1 can pass float range
    if count * product * Fraction(ratio) ** (len(cert.steps) + 1) < len(cert.base):
        return CertificateCheck(False, "size bound", strict)
    return CertificateCheck(True, None, strict)


def certificate_to_dict(cert: RefinementCertificate) -> dict:
    # the certificate's fields, in order: params by name, base as [q, a]
    # pairs, and each step's fields with its tuples as lists
    steps = [
        {**vars(s), "candidate_primes": list(s.candidate_primes), "survivors": list(s.survivors)}
        for s in cert.steps
    ]
    base = [[pr.modulus, pr.residue] for pr in cert.base]
    return {**vars(cert), "params": asdict(cert.params), "base": base, "steps": steps}


def certificate_from_dict(data: dict) -> RefinementCertificate:
    def num(value, key: str) -> int:
        return _require_int(value, f"certificate field {key!r}")

    def nums(values, key: str) -> tuple[int, ...]:
        # a whole list in one pass; type(v) is int rejects bools too
        values = tuple(values)
        if not set(map(type, values)) <= {int}:
            raise FamilyFormatError(f"certificate field {key!r} must be an integer")
        return values

    def real(value, key: str) -> int | float:
        # a JSON number; a bool or null would pass as 1 or as the default
        if type(value) not in (int, float):
            raise FamilyFormatError(f"certificate field {key!r} must be a number")
        return value

    try:
        params = RefinementParams(
            x=num(data["params"]["x"], "x"),
            **{key: real(data["params"][key], key) for key in _THRESHOLDS},
        )
        nums(chain.from_iterable(data["base"]), "base")
        # read back only as written: a member's residue lies in [0, q)
        if not all(q >= 2 and 0 <= a < q for q, a in data["base"]):
            raise FamilyFormatError("certificate field 'base' needs each [q, a] with q >= 2, 0 <= a < q")
        base = tuple(Progression(a, q) for q, a in data["base"])
        steps = tuple(
            RefinementStep(
                index=num(s["index"], "index"),
                chosen_modulus=num(s["chosen_modulus"], "chosen_modulus"),
                candidate_primes=nums(s["candidate_primes"], "candidate_primes"),
                prime=num(s["prime"], "prime"),
                residue_class=num(s["residue_class"], "residue_class"),
                combined_residue=num(s["combined_residue"], "combined_residue"),
                survivors=nums(s["survivors"], "survivors"),
            )
            for s in data["steps"]
        )
        witness_prime = data["witness_prime"]
        return RefinementCertificate(
            params=params,
            base=base,
            steps=steps,
            t=num(data["t"], "t"),
            witness_prime=None if witness_prime is None else num(witness_prime, "witness_prime"),
            divisible_count=num(data["divisible_count"], "divisible_count"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyFormatError(f"malformed certificate: {exc}") from exc


def write_certificate(cert: RefinementCertificate, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2)
        fh.write("\n")


def read_certificate(path) -> RefinementCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise FamilyFormatError(f"certificate is not UTF-8 text ({exc.reason})") from exc
        # JSONDecodeError, an integer past int's digit limit, or arrays nested too deep
        except (ValueError, RecursionError) as exc:
            raise FamilyFormatError(f"invalid certificate JSON: {exc}") from exc
    return certificate_from_dict(data)
