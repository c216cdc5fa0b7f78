import tokenize
from pathlib import Path

import apfam

ROOT = Path(__file__).resolve().parent.parent

# Public names kept with no caller in the library or the benchmark, each
# for its reason.
NO_CALLER_NEEDED = {
    "omega_tail_majorant": "the paper's upper bound for the omega tail, next to its count",
    "alpha_exceeding_fraction": "the paper's share of members with a large squarefull part",
    "dumps_family": "the in-memory form of write_family, for callers without a file",
    "loads_family": "the in-memory form of read_family, for callers without a file",
}


def test_star_import_names_exist():
    # a name left in __all__ after its definition is deleted fails here
    namespace = {}
    exec("from apfam import *", namespace)
    assert set(apfam.__all__) <= set(namespace)


def used_names(path):
    """The identifiers in a Python file's code, leaving out comments, strings
    and the name a def or class line defines."""
    names = set()
    previous = None
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type == tokenize.NAME and previous not in ("def", "class"):
                names.add(token.string)
            previous = token.string
    return names


def test_every_public_name_has_a_caller():
    # a public name that only the tests call is an oracle or dead code, and
    # belongs in tests/ or nowhere
    sources = [p for p in (ROOT / "src" / "apfam").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    called = set().union(*map(used_names, sources))
    uncalled = set(apfam.__all__) - called - set(NO_CALLER_NEEDED)
    assert not uncalled, f"public names with no caller: {sorted(uncalled)}"
    assert set(NO_CALLER_NEEDED) <= set(apfam.__all__)
