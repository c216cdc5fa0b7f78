"""Iterated common-prime refinement of a disjoint family, with certificates.

Start from the members whose squarefree moduli have fewer than omega_cap
distinct prime factors and at least one prime factor above prime_floor.
Each step picks a member r, collects the primes of r not yet fixed, and
keeps the largest subgroup of members sharing one of those primes e and one
residue class B mod e.  Pairwise disjointness forces every member to be
divisible by at least one collected prime (two members agreeing modulo all
shared primes would intersect), so pigeonholing over at most omega_cap
primes and e residue classes keeps the survivor count within a predictable
factor.  The run stops once some untouched prime above prime_floor divides
at least a 1/ratio_denominator fraction of the survivors; the certificate
records every choice so a checker can replay the run independently.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, FamilyFormatError, NotDisjointError
from .family import Family, Progression, _require_int
from .numtheory import FACTOR_LIMIT, FactorTable, crt_pair, factor_table


@dataclass(frozen=True)
class RefinementParams:
    """Thresholds for the base-set filter and the stopping rule.

    Defaults follow the scale s = sqrt(log x / log log x): omega_cap and
    ratio_denominator default to s, prime_floor to exp(sqrt(log x log log x)).
    """

    x: int
    omega_cap: float | None = None
    prime_floor: float | None = None
    ratio_denominator: float | None = None

    def __post_init__(self):
        if self.x < 16:
            raise DomainError(f"refinement needs x >= 16, got {self.x}")
        lx = math.log(self.x)
        scale = math.sqrt(lx / math.log(lx))
        if self.omega_cap is None:
            object.__setattr__(self, "omega_cap", scale)
        if self.prime_floor is None:
            object.__setattr__(self, "prime_floor", math.exp(math.sqrt(lx * math.log(lx))))
        if self.ratio_denominator is None:
            object.__setattr__(self, "ratio_denominator", scale)
        for name in ("omega_cap", "prime_floor", "ratio_denominator"):
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


def _squarefree_table(moduli: list[int]) -> FactorTable:
    # factor_table(moduli), failing as factoring member by member would: on the
    # first modulus in order that is not squarefree or cannot be factored
    try:
        table = factor_table(moduli)
    except CapacityError:
        # a modulus that is not squarefree before the first oversized one fails first
        _squarefree_table(moduli[: next(i for i, q in enumerate(moduli) if q > FACTOR_LIMIT)])
        raise
    square = table.index[table.exponent > 1]
    if square.size:
        raise DomainError(f"modulus {moduli[int(square.min())]} is not squarefree")
    return table


def _prime_map(
    moduli: list[int], params: RefinementParams | None = None
) -> tuple[list[bool], dict[int, list[int]]]:
    # which moduli are kept, and the ascending primes of each one kept, from
    # one factor table; with params, filter_eligible's test keeps a modulus
    # (omega below omega_cap and a prime above prime_floor), else every one
    # is kept.  A modulus is squarefree, so p divides it exactly when p is
    # in its list.
    table = _squarefree_table(moduli)
    keep = np.ones(len(moduli), dtype=bool)
    if params is not None:
        omega = np.bincount(table.index, minlength=keep.size) + (table.cofactor > 1)
        large = table.cofactor > params.prime_floor
        large[table.index[table.prime > params.prime_floor]] = True
        keep = (omega < params.omega_cap) & large
    hit = keep[table.index]
    primes = table.prime[hit].tolist()
    counts = np.bincount(table.index[hit], minlength=keep.size)[keep].tolist()
    cofactors = table.cofactor[keep].tolist()
    keep = keep.tolist()
    lists, start = {}, 0
    for q, count, cofactor in zip(compress(moduli, keep), counts, cofactors):
        # built at their final length: a list grown by append over-allocates
        below = primes[start : start + count]
        lists[q] = below + [cofactor] if cofactor > 1 else below
        start += count
    return keep, lists


def _eligible(family: Family, params: RefinementParams) -> tuple[Family, dict[int, list[int]]]:
    # filter_eligible's family, and the primes of each member kept
    keep, primes_of = _prime_map(family.q, params)
    kept = Family.from_columns(compress(family.q, keep), compress(family.a, keep), family.x_bound)
    return kept, primes_of


def filter_eligible(family: Family, params: RefinementParams) -> Family:
    """Members with omega below omega_cap and a prime factor above prime_floor.

    Both conditions are strict.  Requires every modulus squarefree.
    """
    return _eligible(family, params)[0]


def _candidates(chosen: int, used, primes_of: dict[int, list[int]]) -> tuple[int, ...]:
    # the primes of the chosen modulus that no earlier step fixed
    return tuple(p for p in primes_of[chosen] if p not in used)


def _first_uncovered(members, chosen: int, candidates, primes_of: dict[int, list[int]]):
    # the first member besides the chosen one divisible by no candidate prime
    candidates = set(candidates)
    uncovered = (pr for pr in members if candidates.isdisjoint(primes_of[pr.modulus]))
    return next((pr for pr in uncovered if pr.modulus != chosen), None)


def _prime_counts(members, primes_of: dict[int, list[int]]) -> Counter:
    # how many members each prime divides
    return Counter(chain.from_iterable(primes_of[pr.modulus] for pr in members))


def _divisible(members, p: int, primes_of: dict[int, list[int]]) -> list[Progression]:
    return [pr for pr in members if p in primes_of[pr.modulus]]


def _in_class(members, p: int, b: int, primes_of: dict[int, list[int]]) -> list[Progression]:
    # the members divisible by p and congruent to b mod p, in input order
    return [pr for pr in _divisible(members, p, primes_of) if pr.residue % p == b]


def refine_step(
    members: Sequence[Progression],
    used_primes: tuple[int, ...],
    combined_residue: int,
) -> RefinementStep:
    """One refinement step on the current survivor set.

    members must all be divisible by the used primes and congruent to
    combined_residue modulo their product.  Raises NotDisjointError with a
    concrete intersecting pair when some member shares no new prime with the
    chosen one, which is impossible for a disjoint input.
    """
    if len(members) < 2:
        raise DomainError("refinement step needs at least two members")
    product = math.prod(used_primes)
    for pr in members:
        if pr.modulus % product or (pr.residue - combined_residue) % product:
            raise DomainError(
                f"member {pr} is not pinned to {combined_residue} mod {product}"
            )
    primes_of = _prime_map([pr.modulus for pr in members])[1]
    return _refine_step(members, used_primes, combined_residue, primes_of)


def _refine_step(
    members: Sequence[Progression],
    used_primes: tuple[int, ...],
    combined_residue: int,
    primes_of: dict[int, list[int]],
) -> RefinementStep:
    # at least two members, pinned to combined_residue mod the used primes;
    # each is divisible by every used prime, so the fewest primes leave the
    # fewest candidates
    chosen = min(members, key=lambda pr: (len(primes_of[pr.modulus]), pr.modulus))
    candidates = _candidates(chosen.modulus, used_primes, primes_of)
    other = _first_uncovered(members, chosen.modulus, candidates, primes_of)
    if other is not None:
        # both members agree modulo every prime of the gcd, hence intersect
        merged = crt_pair(chosen.residue, chosen.modulus, other.residue, other.modulus)
        raise NotDisjointError(chosen, other, merged[0])

    counts = _prime_counts(members, primes_of)
    prime = min(candidates, key=lambda e: (-counts[e], e))
    sizes = Counter(pr.residue % prime for pr in _divisible(members, prime, primes_of))
    residue_class = min(sizes, key=lambda b: (-sizes[b], b))
    survivors = _in_class(members, prime, residue_class, primes_of)
    merged = crt_pair(combined_residue, math.prod(used_primes), residue_class, prime)
    return RefinementStep(
        index=len(used_primes) + 1,
        chosen_modulus=chosen.modulus,
        candidate_primes=candidates,
        prime=prime,
        residue_class=residue_class,
        combined_residue=merged[0],
        survivors=tuple(sorted(pr.modulus for pr in survivors)),
    )


def _stop_witness(
    members: Sequence[Progression],
    used: tuple[int, ...],
    params: RefinementParams,
    primes_of: dict[int, list[int]],
) -> tuple[int, int] | None:
    # the stopping rule: an unused prime above prime_floor dividing at least
    # |members| / ratio_denominator of the members
    counts = _prime_counts(members, primes_of)
    eligible = [p for p in counts if p >= params.prime_floor and p not in used]
    prime = min(eligible, key=lambda p: (-counts[p], p), default=None)
    if prime is not None and counts[prime] * params.ratio_denominator >= len(members):
        return prime, counts[prime]
    return None


def build_chain(family: Family, params: RefinementParams) -> RefinementCertificate:
    """Run the refinement to a stopping witness and certify every step.

    The guarantees assume ratio_denominator >= omega_cap (the defaults are
    equal); with a smaller ratio the chain can strand itself on one member
    with no unused prime, which raises DomainError.
    """
    base, primes_of = _eligible(family, params)
    # the certificate's own Progressions, not the family's items view
    base_items = tuple(map(Progression, base.a, base.q))
    members = list(base_items)
    if not members:
        return RefinementCertificate(
            params=params, base=(), steps=(), t=0, witness_prime=None, divisible_count=0
        )
    steps: list[RefinementStep] = []
    used: tuple[int, ...] = ()
    combined = 0
    while True:
        hit = _stop_witness(members, used, params, primes_of)
        if hit is not None:
            # hit is the witness prime and its divisible count
            return RefinementCertificate(params, base_items, tuple(steps), len(steps), *hit)
        if len(members) < 2:
            raise DomainError(
                "refinement stalled on one member with no qualifying prime; "
                "requires ratio_denominator >= omega_cap to be guaranteed"
            )
        step = _refine_step(members, used, combined, primes_of)
        members = _in_class(members, step.prime, step.residue_class, primes_of)
        used = used + (step.prime,)
        combined = step.combined_residue
        steps.append(step)


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
        expected_base, primes_of = _eligible(family, params)
    except DomainError:
        return CertificateCheck(False, "base")
    if (
        tuple(pr.modulus for pr in cert.base) != expected_base.q
        or tuple(pr.residue for pr in cert.base) != expected_base.a
    ):
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
    current = cert.base
    used: list[int] = []
    product = 1
    combined = 0
    strict = True
    for k, step in enumerate(cert.steps, start=1):
        if step.index != k or step.chosen_modulus not in {pr.modulus for pr in current}:
            return CertificateCheck(False, "structure")
        candidates = _candidates(step.chosen_modulus, used, primes_of)
        if step.candidate_primes != candidates or step.prime not in candidates:
            return CertificateCheck(False, "candidates")
        if _first_uncovered(current, step.chosen_modulus, candidates, primes_of) is not None:
            return CertificateCheck(False, "covering")
        survivors = _in_class(current, step.prime, step.residue_class, primes_of)
        if step.survivors != tuple(pr.modulus for pr in survivors):
            return CertificateCheck(False, "survivors")
        new_product = product * step.prime
        if (
            step.combined_residue % product != combined
            or step.combined_residue % step.prime != step.residue_class
            or not 0 <= step.combined_residue < new_product
        ):
            return CertificateCheck(False, "Property 2")
        kept = len(step.survivors) * step.prime * ratio
        if kept < len(current):
            return CertificateCheck(False, "Property 3")
        if kept == len(current):
            strict = False
        current = survivors
        used.append(step.prime)
        product = new_product
        combined = step.combined_residue

    # a missing witness divides no survivor, so the first test rejects it
    count = len(_divisible(current, cert.witness_prime, primes_of))
    if count != cert.divisible_count or count * ratio < len(current):
        return CertificateCheck(False, "Property 4", strict)
    if cert.witness_prime in used or cert.witness_prime < params.prime_floor:
        return CertificateCheck(False, "Property 4", strict)
    # exact: a finite ratio raised to the power t + 1 can pass float range
    if count * product * Fraction(ratio) ** (len(cert.steps) + 1) < len(cert.base):
        return CertificateCheck(False, "size bound", strict)
    return CertificateCheck(True, None, strict)


def certificate_to_dict(cert: RefinementCertificate) -> dict:
    return {
        "params": {
            "x": cert.params.x,
            "omega_cap": cert.params.omega_cap,
            "prime_floor": cert.params.prime_floor,
            "ratio_denominator": cert.params.ratio_denominator,
        },
        "base": [[pr.modulus, pr.residue] for pr in cert.base],
        "steps": [
            {
                "index": s.index,
                "chosen_modulus": s.chosen_modulus,
                "candidate_primes": list(s.candidate_primes),
                "prime": s.prime,
                "residue_class": s.residue_class,
                "combined_residue": s.combined_residue,
                "survivors": list(s.survivors),
            }
            for s in cert.steps
        ],
        "t": cert.t,
        "witness_prime": cert.witness_prime,
        "divisible_count": cert.divisible_count,
    }


def certificate_from_dict(data: dict) -> RefinementCertificate:
    def num(value, key: str) -> int:
        return _require_int(value, f"certificate field {key!r}")

    def nums(values, key: str) -> tuple[int, ...]:
        # a whole list in one pass; type(v) is int rejects bools too
        values = tuple(values)
        if not set(map(type, values)) <= {int}:
            raise FamilyFormatError(f"certificate field {key!r} must be an integer")
        return values

    try:
        params = RefinementParams(
            x=num(data["params"]["x"], "x"),
            omega_cap=data["params"]["omega_cap"],
            prime_floor=data["params"]["prime_floor"],
            ratio_denominator=data["params"]["ratio_denominator"],
        )
        nums(chain.from_iterable(data["base"]), "base")
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
