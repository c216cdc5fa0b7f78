"""Spans around the benchmark's calls into apfam, and the layer metrics
derived from them.

A span records name, start, end, parent and the counts taken at that
boundary (members built, pairs verified, nodes searched, bytes read). Spans
stay in memory until the run ends. Top-level spans are "setup" and "round";
each call into a layer is a child of one of them.
"""

import contextlib
import json
import statistics
import time

# per-layer metric -> span names whose durations it sums
LAYER_TIMES = {
    "construction.build_s": ["construction.build"],
    "numtheory.psi_s": ["numtheory.psi"],
    "numtheory.psi_star_s": ["numtheory.psi_star"],
    "bounds.omega_tail_s": ["bounds.omega_tail"],
    "bounds.reduce_s": ["bounds.reduce"],
    "family.write_s": ["family.write"],
    "family.read_s": ["family.read"],
    "family.digest_s": ["family.digest"],
    "family.verify_s": ["family.verify", "family.verify_small"],
    "family.verify_small_s": ["family.verify_small"],
    "solver.solve_s": ["solver.solve"],
    "refinement.build_chain_s": ["refinement.build_chain"],
    "refinement.check_s": ["refinement.check"],
    "cli.main_s": ["cli.main"],
}
# per-layer metric -> (count key, span names whose counts it sums)
LAYER_COUNTS = {
    "construction.members": ("members", ["construction.build"]),
    "family.verify_pairs": ("pairs", ["family.verify", "family.verify_small"]),
    "solver.nodes": ("nodes", ["solver.solve"]),
    "refinement.base_members": ("base_members", ["refinement.build_chain"]),
}
# rate metric -> (numerator, denominator, scale, unit)
LAYER_RATES = {
    "construction.members_per_s": ("construction.members", "construction.build_s", 1.0, "1/s"),
    "family.read_mb_per_s": ("family.read_bytes", "family.read_s", 1e-6, "MB/s"),
    "family.verify_pairs_per_s": ("family.verify_pairs", "family.verify_s", 1.0, "1/s"),
    "solver.nodes_per_s": ("solver.nodes", "solver.solve_s", 1.0, "1/s"),
}


class Tracer:
    """Records spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Yields a dict the caller may fill with counts for this span."""
        if not self.enabled:
            yield {}
            return
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                  "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: list[dict], round_walls: dict[bool, list[float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one set-up plus one traced round.

    Spans under "setup" count once; spans under traced "round" spans are
    averaged over those rounds. round_walls maps traced (True) and untraced
    (False) to their rounds' wall times; the tracing overhead is the
    difference of their medians.
    """
    by_id = {s["id"]: s for s in spans}

    def top(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["name"]

    rounds = sum(1 for s in spans if s["name"] == "round")
    weight = {"setup": 1.0, "round": 1.0 / rounds if rounds else 0.0}
    time_by_name: dict[str, float] = {}
    count_by_name: dict[tuple[str, str], float] = {}
    for s in spans:
        w = weight.get(top(s), 0.0)
        if s["parent"] is None:
            continue
        time_by_name[s["name"]] = time_by_name.get(s["name"], 0.0) + w * (s["end"] - s["start"])
        for key, value in s["counts"].items():
            count_by_name[s["name"], key] = count_by_name.get((s["name"], key), 0.0) + w * value

    out: dict[str, tuple[float, str]] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = (sum(time_by_name.get(n, 0.0) for n in names), "s")
    for metric, (key, names) in LAYER_COUNTS.items():
        out[metric] = (sum(count_by_name.get((n, key), 0.0) for n in names), "count")
    values = {m: v for m, (v, _) in out.items()}
    values["family.read_bytes"] = count_by_name.get(("family.read", "bytes"), 0.0)
    for metric, (num, den, factor, unit) in LAYER_RATES.items():
        out[metric] = (values[num] * factor / values[den] if values[den] else 0.0, unit)
    overhead = statistics.median(round_walls[True]) - statistics.median(round_walls[False])
    out["trace.overhead_s"] = (overhead, "s")
    return out
