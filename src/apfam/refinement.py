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
from dataclasses import dataclass, field
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


def _prime_lists(table: FactorTable, moduli: list[int], keep: np.ndarray) -> dict[int, list[int]]:
    # the ascending primes of each kept modulus; nothing is listed for the rest
    hit = keep[table.index]
    primes = table.prime[hit].tolist()
    counts = np.bincount(table.index[hit], minlength=keep.size)[keep].tolist()
    cofactors = table.cofactor[keep].tolist()
    lists, start = {}, 0
    for q, count, cofactor in zip(compress(moduli, keep.tolist()), counts, cofactors):
        # built at their final length: a list grown by append over-allocates
        below = primes[start : start + count]
        lists[q] = below + [cofactor] if cofactor > 1 else below
        start += count
    return lists


def _keep_mask(table: FactorTable, params: RefinementParams) -> np.ndarray:
    # filter_eligible's test on every member: omega below omega_cap and a
    # prime above prime_floor
    omega = np.bincount(table.index, minlength=table.cofactor.size) + (table.cofactor > 1)
    large = table.cofactor > params.prime_floor
    large[table.index[table.prime > params.prime_floor]] = True
    return (omega < params.omega_cap) & large


def _eligible(family: Family, params: RefinementParams) -> tuple[Family, dict[int, list[int]]]:
    # filter_eligible's family, and the primes of each member kept, from one
    # factor table of the whole family
    moduli = family.moduli()
    table = _squarefree_table(moduli)
    keep = _keep_mask(table, params)
    kept = tuple(compress(family.items, keep.tolist()))
    return Family(items=kept, x_bound=family.x_bound), _prime_lists(table, moduli, keep)


def filter_eligible(family: Family, params: RefinementParams) -> Family:
    """Members with omega below omega_cap and a prime factor above prime_floor.

    Both conditions are strict.  Requires every modulus squarefree.
    """
    return _eligible(family, params)[0]


def _covering_violation(chosen: Progression, other: Progression) -> NotDisjointError:
    # both members agree modulo every prime of gcd, hence intersect
    merged = crt_pair(chosen.residue, chosen.modulus, other.residue, other.modulus)
    return NotDisjointError(chosen, other, merged[0])


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
    return _refine_step(members, used_primes, combined_residue)


def _refine_step(
    members: Sequence[Progression],
    used_primes: tuple[int, ...],
    combined_residue: int,
    primes_of: dict[int, list[int]] | None = None,
) -> RefinementStep:
    if len(members) < 2:
        raise DomainError("refinement step needs at least two members")
    product = math.prod(used_primes)
    for pr in members:
        if pr.modulus % product or (pr.residue - combined_residue) % product:
            raise DomainError(
                f"member {pr} is not pinned to {combined_residue} mod {product}"
            )
    if primes_of is None:
        moduli = [pr.modulus for pr in members]
        primes_of = _prime_lists(
            _squarefree_table(moduli), moduli, np.ones(len(moduli), dtype=bool)
        )

    new_primes = {
        pr.modulus: [p for p in primes_of[pr.modulus] if p not in used_primes]
        for pr in members
    }
    chosen = min(members, key=lambda pr: (len(new_primes[pr.modulus]), pr.modulus))
    candidates = tuple(new_primes[chosen.modulus])
    for pr in members:
        if pr is not chosen and not any(pr.modulus % e == 0 for e in candidates):
            raise _covering_violation(chosen, pr)

    counts = {e: sum(1 for pr in members if pr.modulus % e == 0) for e in candidates}
    prime = min(candidates, key=lambda e: (-counts[e], e))
    in_class: dict[int, list[Progression]] = {}
    for pr in members:
        if pr.modulus % prime == 0:
            in_class.setdefault(pr.residue % prime, []).append(pr)
    residue_class = min(in_class, key=lambda b: (-len(in_class[b]), b))
    survivors = sorted(in_class[residue_class], key=lambda pr: pr.modulus)
    merged = crt_pair(combined_residue, product, residue_class, prime)
    return RefinementStep(
        index=len(used_primes) + 1,
        chosen_modulus=chosen.modulus,
        candidate_primes=candidates,
        prime=prime,
        residue_class=residue_class,
        combined_residue=merged[0],
        survivors=tuple(pr.modulus for pr in survivors),
    )


def _stop_witness(
    members: Sequence[Progression],
    used: tuple[int, ...],
    params: RefinementParams,
    primes_of: dict[int, list[int]],
) -> tuple[int, int] | None:
    # the stopping rule: an unused prime above prime_floor dividing at least
    # |members| / ratio_denominator of the members
    counts: dict[int, int] = {}
    for pr in members:
        for p in primes_of[pr.modulus]:
            if p >= params.prime_floor and p not in used:
                counts[p] = counts.get(p, 0) + 1
    if not counts:
        return None
    prime = min(counts, key=lambda p: (-counts[p], p))
    if counts[prime] * params.ratio_denominator >= len(members):
        return prime, counts[prime]
    return None


def build_chain(family: Family, params: RefinementParams) -> RefinementCertificate:
    """Run the refinement to a stopping witness and certify every step.

    The guarantees assume ratio_denominator >= omega_cap (the defaults are
    equal); with a smaller ratio the chain can strand itself on one member
    with no unused prime, which raises DomainError.
    """
    base, primes_of = _eligible(family, params)
    members = list(base.items)
    if not members:
        return RefinementCertificate(
            params=params, base=(), steps=(), t=0, witness_prime=None, divisible_count=0
        )
    steps: list[RefinementStep] = []
    used: tuple[int, ...] = ()
    combined = 0
    by_modulus = {pr.modulus: pr for pr in members}
    while True:
        hit = _stop_witness(members, used, params, primes_of)
        if hit is not None:
            return RefinementCertificate(
                params=params,
                base=base.items,
                steps=tuple(steps),
                t=len(steps),
                witness_prime=hit[0],
                divisible_count=hit[1],
            )
        if len(members) < 2:
            raise DomainError(
                "refinement stalled on one member with no qualifying prime; "
                "requires ratio_denominator >= omega_cap to be guaranteed"
            )
        step = _refine_step(members, used, combined, primes_of)
        members = [by_modulus[q] for q in step.survivors]
        used = used + (step.prime,)
        combined = step.combined_residue
        steps.append(step)
        # every survivor is divisible by all used primes, so the step count
        # stays below the omega of any member; this cap is unreachable
        if len(steps) > 200:
            raise AssertionError("refinement failed to terminate")


def check_certificate(cert: RefinementCertificate, family: Family) -> CertificateCheck:
    """Independently replay a certificate against the family it refines.

    Returns ok=False with a reason code on the first property that fails:
    base, structure, candidates, covering, survivors, Property 1..4, or
    size bound.  strict_property3 reports whether every per-step survivor
    bound held strictly rather than with equality.
    """
    params = cert.params
    ratio = params.ratio_denominator
    try:
        expected_base, primes_of = _eligible(family, params)
    except DomainError:
        return CertificateCheck(False, "base")
    if cert.base != expected_base.items:
        return CertificateCheck(False, "base")
    if cert.t != len(cert.steps):
        return CertificateCheck(False, "structure")
    if not cert.base:
        if cert.steps or cert.witness_prime is not None or cert.divisible_count:
            return CertificateCheck(False, "structure")
        return CertificateCheck(True)

    residue_of = {pr.modulus: pr.residue for pr in cert.base}
    current = [pr.modulus for pr in cert.base]
    used: list[int] = []
    product = 1
    combined = 0
    strict = True
    for k, step in enumerate(cert.steps, start=1):
        if step.index != k or step.chosen_modulus not in current:
            return CertificateCheck(False, "structure")
        expected_candidates = tuple(
            p for p in primes_of[step.chosen_modulus] if p not in used
        )
        if step.candidate_primes != expected_candidates:
            return CertificateCheck(False, "candidates")
        if step.prime not in step.candidate_primes:
            return CertificateCheck(False, "candidates")
        for q in current:
            if not any(q % e == 0 for e in step.candidate_primes):
                return CertificateCheck(False, "covering")
        expected_survivors = tuple(
            q
            for q in current
            if q % step.prime == 0
            and residue_of[q] % step.prime == step.residue_class
        )
        if step.survivors != expected_survivors:
            return CertificateCheck(False, "survivors")
        new_product = product * step.prime
        for q in step.survivors:
            if q % new_product:
                return CertificateCheck(False, "Property 1")
        if (
            step.combined_residue % product != combined
            or step.combined_residue % step.prime != step.residue_class
            or not 0 <= step.combined_residue < new_product
        ):
            return CertificateCheck(False, "Property 2")
        for q in step.survivors:
            if residue_of[q] % new_product != step.combined_residue:
                return CertificateCheck(False, "Property 2")
        kept = len(step.survivors) * step.prime * ratio
        if kept < len(current):
            return CertificateCheck(False, "Property 3")
        if kept == len(current):
            strict = False
        current = list(step.survivors)
        used.append(step.prime)
        product = new_product
        combined = step.combined_residue

    if cert.witness_prime is None:
        return CertificateCheck(False, "Property 4", strict)
    if cert.witness_prime in used or cert.witness_prime < params.prime_floor:
        return CertificateCheck(False, "Property 4", strict)
    count = sum(1 for q in current if q % cert.witness_prime == 0)
    if count != cert.divisible_count:
        return CertificateCheck(False, "Property 4", strict)
    if count * ratio < len(current):
        return CertificateCheck(False, "Property 4", strict)
    if count * product * ratio ** (len(cert.steps) + 1) < len(cert.base):
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
        except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
            raise FamilyFormatError(f"invalid certificate JSON: {exc}") from exc
    return certificate_from_dict(data)
