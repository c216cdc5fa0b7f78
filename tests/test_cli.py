import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from apfam import bounds
from apfam.cli import build_parser, main
from apfam.construction import ConstructionParams, assign_residue, build_construction
from apfam.numtheory import crt_pair
from apfam.family import (
    Family,
    Progression,
    dumps_family,
    read_family,
    verify_family,
    write_family,
)

README = Path(__file__).resolve().parents[1] / "README.md"

X100_FILE = (
    '{"x": 100, "count": 6}\n'
    '{"q": 5, "a": 0}\n'
    '{"q": 10, "a": 2}\n'
    '{"q": 15, "a": 3}\n'
    '{"q": 20, "a": 4}\n'
    '{"q": 30, "a": 8}\n'
    '{"q": 60, "a": 39}\n'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out.strip().split("\n")[-1])


class TestConstruct:
    def test_golden_bytes_and_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "fam.jsonl"
        code, out = run(capsys, "construct", "--x", "100", "--out", str(out_file))
        assert code == 0
        summary = last_json(out)
        assert summary["p"] == 5 and summary["t"] == 6
        assert out_file.read_bytes().decode() == X100_FILE
        manifest = json.loads((tmp_path / "fam.jsonl.manifest.json").read_text())
        assert manifest["command"] == "construct"
        assert manifest["parameters"]["x"] == 100
        assert str(out_file) in manifest["outputs"]

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "construct", "--x", "2000", "--out", str(a))
        run(capsys, "construct", "--x", "2000", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_exit_2(self, tmp_path, capsys):
        code, _ = run(capsys, "construct", "--x", "15", "--out", str(tmp_path / "f"))
        assert code == 2

    def test_squarefree_flag(self, tmp_path, capsys):
        out_file = tmp_path / "sf.jsonl"
        code, out = run(
            capsys, "construct", "--x", "100", "--squarefree-only", "--out", str(out_file)
        )
        assert code == 0 and last_json(out)["t"] == 4

    def test_exclude_anchor_flag(self, tmp_path, capsys):
        out_file = tmp_path / "nop.jsonl"
        code, out = run(
            capsys, "construct", "--x", "100", "--no-include-p", "--out", str(out_file)
        )
        assert code == 0 and last_json(out)["t"] == 5
        assert read_family(out_file).moduli() == [10, 15, 20, 30, 60]


class TestVerify:
    def test_ok(self, tmp_path, capsys):
        path = tmp_path / "fam.jsonl"
        path.write_text(X100_FILE, encoding="utf-8")
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 0
        report = last_json(out)
        assert report["ok"] and report["pairs"] == 15

    def test_intersection_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"x": 3, "count": 2}\n{"q": 2, "a": 0}\n{"q": 3, "a": 0}\n',
            encoding="utf-8",
        )
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 1
        witness = last_json(out)["witness"]
        assert (witness["q_i"], witness["q_j"], witness["common"]) == (2, 3, 0)

    def test_malformed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"x": 8, "count": 1}\n{"q": 2, "a"', encoding="utf-8")
        code, _ = run(capsys, "verify", "--in", str(path))
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(capsys, "verify", "--in", "/nonexistent/f.jsonl")
        assert code == 2

    def test_method_flags(self, tmp_path, capsys):
        # verify takes no switches: the partition decides how each pair is checked
        path = tmp_path / "fam.jsonl"
        path.write_text(X100_FILE, encoding="utf-8")
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 0 and last_json(out)["ok"]
        for flags in (["--method", "numpy"], ["--prepass"], ["--threads", "2"]):
            code, _ = run(capsys, "verify", "--in", str(path), *flags)
            assert code == 2
        # nor does bench: its dense scan runs on one thread
        code, _ = run(capsys, "bench", "--k", "300", "--threads", "2")
        assert code == 2

    def test_intersection_past_int64_exit_1(self, tmp_path, capsys):
        # lcm(2**40, 2**40 + 15) is past 2**63; the witness stays exact
        path = tmp_path / "wide.jsonl"
        q = 2**40
        write_family(Family.build([Progression(0, q), Progression(0, q + 15)], q + 15), path)
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 1
        witness = last_json(out)["witness"]
        assert (witness["i"], witness["j"], witness["common"]) == (0, 1, 0)

    def test_non_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b'{"x": 3, "count": 1}\n{"q": 2, "a": 0}\xff\n')
        code = main(["verify", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_oversized_integer_exit_2(self, tmp_path, capsys):
        # past Python's default limit on digits in an integer string
        path = tmp_path / "huge.jsonl"
        path.write_text('{"x": %s, "count": 1}\n{"q": 2, "a": 0}\n' % ("9" * 5000), encoding="utf-8")
        code = main(["verify", "--in", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


FUZZ_INTS = st.one_of(
    st.integers(-3, 70).map(str),
    st.integers(10**999, 10**1000 - 1).map(str),  # the canonical pattern's longest
    st.just("9" * 5000),  # past int()'s default digit limit
)
BAD_LINES = [
    '{"q": 2, "a"',
    "[1, 2]",
    "null",
    '{"q": 2.5, "a": 0}',
    '{"q": true, "a": 0}',
    '{"q": "7", "a": 1}',
    '{"a": 1}',
    "[" * 100_000,  # nested past the JSON decoder's recursion limit
    "\x00",
]


@st.composite
def family_files(draw):
    """Family file bytes: members, possibly meeting or repeated, then
    malformed lines, huge integers, a wrong count or header, CRLF, a BOM
    and bytes that are not UTF-8."""
    rows = draw(st.lists(st.tuples(st.integers(2, 60), st.integers(0, 59)), max_size=6))
    lines = ['{"q": %d, "a": %d}' % row for row in rows]
    rarely = st.integers(0, 3).map(lambda k: k == 3)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["bad", "ints", "repeat"]))
        if kind == "bad":
            lines.insert(at, draw(st.sampled_from(BAD_LINES)))
        elif kind == "ints":
            lines.insert(at, '{"q": %s, "a": %s}' % (draw(FUZZ_INTS), draw(FUZZ_INTS)))
        elif lines:
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
    x = draw(st.sampled_from([60, 60, 1, 30, 10**1000]))
    count = len(lines) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    header = draw(st.sampled_from([
        '{"x": %d, "count": %d}' % (x, count),
        '{"x": %d, "count": %d}' % (x, count),
        '{"x": %d}' % x,
        '{"x": "%d", "count": %d}' % (x, count),
        "[]",
    ]))
    text = "\n".join([header] + lines) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = (b"\xef\xbb\xbf" if draw(rarely) else b"") + text.encode("utf-8")
    if draw(rarely):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestVerifyExitCodes:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("verify-fuzz") / "fam.jsonl"

    @pytest.mark.filterwarnings("ignore:residue")
    @settings(max_examples=300, deadline=None)
    @given(family_files())
    @example(b'{"x": 8, "count": 2}\n{"q": 4, "a": 0}\n{"q": 4, "a": 1}\n')
    @example(b'{"x": 60, "count": 2}\n{"q": 4, "a": 1}\n{"q": 6, "a": 3}\n')
    @example(b'{"x": 8, "count": 1}\n' + b"[" * 100_000 + b"\n")
    def test_exit_codes(self, path, data):
        # 0 with a digest, 1 only with a witness that re-checks, 2 with an
        # error line; never a traceback
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert last_json(out.getvalue())["ok"] is True
        elif code == 1:
            w = last_json(out.getvalue())["witness"]
            assert w["i"] < w["j"]
            assert crt_pair(w["a_i"], w["q_i"], w["a_j"], w["q_j"])[0] == w["common"]
        else:
            assert err.getvalue().startswith("error:")


class TestSolve:
    def test_known_value(self, capsys, tmp_path):
        witness_file = tmp_path / "w.jsonl"
        code, out = run(
            capsys, "solve", "--x", "8", "--emit-witness", str(witness_file)
        )
        assert code == 0
        summary = last_json(out)
        assert summary["k_max"] == 3 and summary["proven_optimal"]
        emitted = read_family(witness_file)
        assert emitted.size == 3 and verify_family(emitted).ok

    def test_budget_exhausted_exit_3(self, capsys):
        code, out = run(capsys, "solve", "--x", "20", "--budget", "10")
        assert code == 3
        assert not last_json(out)["proven_optimal"]

    def test_budget_boundary(self, capsys, tmp_path):
        code, out = run(capsys, "solve", "--x", "20")
        assert code == 0
        nodes = last_json(out)["nodes"]
        code, out = run(capsys, "solve", "--x", "20", "--budget", str(nodes))
        assert code == 0 and last_json(out)["proven_optimal"]
        witness_file = tmp_path / "w.jsonl"
        code, out = run(
            capsys, "solve", "--x", "20", "--budget", str(nodes - 1),
            "--emit-witness", str(witness_file),
        )
        assert code == 3 and not last_json(out)["proven_optimal"]
        assert verify_family(read_family(witness_file)).ok

    def test_domain_exit_2(self, capsys):
        code, _ = run(capsys, "solve", "--x", "100")
        assert code == 2


# one field of a one-step certificate per case, set to a value that is not an int
NON_INTEGER_FIELDS = [
    (("params", "x"), 4090.0),
    (("base", 0, 0), "802"),
    (("base", 0, 1), True),
    (("steps", 0, "index"), 1.0),
    (("steps", 0, "chosen_modulus"), "802"),
    (("steps", 0, "candidate_primes", 0), 2.0),
    (("steps", 0, "prime"), "2"),
    (("steps", 0, "residue_class"), None),
    (("steps", 0, "combined_residue"), [0]),
    (("steps", 0, "survivors", 0), 802.0),
    (("t",), False),
    (("witness_prime",), "401"),
    (("divisible_count",), 3.0),
]


class TestRefineAndCheck:
    def build_inputs(self, tmp_path, capsys):
        fam_file = tmp_path / "sf.jsonl"
        run(
            capsys,
            "construct", "--x", "10000", "--squarefree-only", "--out", str(fam_file),
        )
        return fam_file

    def test_round_trip(self, tmp_path, capsys):
        fam_file = self.build_inputs(tmp_path, capsys)
        cert_file = tmp_path / "cert.json"
        code, out = run(
            capsys,
            "refine", "--in", str(fam_file),
            "--prime-floor", "22", "--ratio-denom", "2",
            "--out", str(cert_file),
        )
        assert code == 0
        summary = last_json(out)
        assert summary["witness_prime"] == 23 and summary["base_size"] == 9
        code, out = run(
            capsys, "check-cert", "--cert", str(cert_file), "--in", str(fam_file)
        )
        assert code == 0 and last_json(out)["ok"]

    def test_tampered_cert_exit_1(self, tmp_path, capsys):
        fam_file = self.build_inputs(tmp_path, capsys)
        cert_file = tmp_path / "cert.json"
        run(
            capsys,
            "refine", "--in", str(fam_file),
            "--prime-floor", "22", "--ratio-denom", "2",
            "--out", str(cert_file),
        )
        data = json.loads(cert_file.read_text())
        data["divisible_count"] = 1
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(
            capsys, "check-cert", "--cert", str(cert_file), "--in", str(fam_file)
        )
        assert code == 1 and last_json(out)["reason"] == "Property 4"

    def test_malformed_base_entry_exit_2(self, tmp_path, capsys):
        fam_file = self.build_inputs(tmp_path, capsys)
        cert_file = tmp_path / "cert.json"
        run(
            capsys,
            "refine", "--in", str(fam_file),
            "--prime-floor", "22", "--ratio-denom", "2",
            "--out", str(cert_file),
        )
        data = json.loads(cert_file.read_text())
        data["base"][0] = [5]
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code = main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_oversized_integer_exit_2(self, tmp_path, capsys):
        fam_file = self.build_inputs(tmp_path, capsys)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text('{"params": {"x": %s}}' % ("9" * 5000), encoding="utf-8")
        code = main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "moduli, code",
        [((12, 10**12 + 1), 1), ((10**12 + 1,), 2)],
        ids=["not-squarefree-first", "oversized-alone"],
    )
    def test_base_factoring_errors(self, tmp_path, capsys, moduli, code):
        # a modulus that is not squarefree fails the base check (exit 1) even
        # before one past the factoring limit; that one alone is exit 2
        _, _, cert_file = self.six_member_cert(tmp_path, capsys)
        fam_file = tmp_path / "bad.jsonl"
        write_family(Family.build([Progression(0, q) for q in moduli], max(moduli)), fam_file)
        assert main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 1:
            assert last_json(out)["reason"] == "base"
        else:
            assert err.startswith("error:")

    def six_member_cert(self, tmp_path, capsys):
        # two anchored groups, split mod 2 by the shift of the second: one step
        fam_file = tmp_path / "six.jsonl"
        members = [assign_residue(q, 401) for q in (802, 2406, 4010)] + [
            Progression((assign_residue(q, 409).residue + 1) % q, q)
            for q in (818, 2454, 4090)
        ]
        write_family(Family.build(members, 4090), fam_file)
        cert_file = tmp_path / "cert.json"
        code, _ = run(
            capsys,
            "refine", "--in", str(fam_file),
            "--omega-cap", "3.5", "--prime-floor", "400", "--ratio-denom", "1.5",
            "--out", str(cert_file),
        )
        return code, fam_file, cert_file

    @pytest.mark.parametrize(
        "path, value",
        NON_INTEGER_FIELDS,
        ids=["/".join(map(str, path)) for path, _ in NON_INTEGER_FIELDS],
    )
    def test_non_integer_field_exit_2(self, tmp_path, capsys, path, value):
        code, fam_file, cert_file = self.six_member_cert(tmp_path, capsys)
        data = json.loads(cert_file.read_text())
        assert code == 0 and data["t"] == 1
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code = main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("field", ["omega_cap", "prime_floor", "ratio_denominator"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_param_exit_2(self, tmp_path, capsys, field, value):
        # NaN makes every bound check compare false, so a genuine certificate
        # with its ratio_denominator edited to NaN would otherwise pass
        code, fam_file, cert_file = self.six_member_cert(tmp_path, capsys)
        data = json.loads(cert_file.read_text())
        assert code == 0
        data["params"][field] = value
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code = main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_large_finite_ratio_checks_ok(self, tmp_path, capsys):
        # the size bound's ratio ** (t + 1) is past float range here
        code, fam_file, cert_file = self.six_member_cert(tmp_path, capsys)
        data = json.loads(cert_file.read_text())
        assert code == 0 and data["t"] == 1
        data["params"]["ratio_denominator"] = 1e200
        cert_file.write_text(json.dumps(data), encoding="utf-8")
        code = main(["check-cert", "--cert", str(cert_file), "--in", str(fam_file)])
        out, err = capsys.readouterr()
        assert code == 0 and last_json(out)["ok"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("ratio_denom", ["nan", "inf"])
    def test_non_finite_refine_option_exit_2(self, tmp_path, capsys, ratio_denom):
        _, fam_file, _ = self.six_member_cert(tmp_path, capsys)
        cert_file = tmp_path / "non_finite.json"
        code = main(
            ["refine", "--in", str(fam_file), "--ratio-denom", ratio_denom, "--out", str(cert_file)]
        )
        err = capsys.readouterr().err
        assert code == 2 and not cert_file.exists()
        assert err.startswith("error:") and "Traceback" not in err

    def test_not_disjoint_family_exit_1(self, tmp_path, capsys):
        bad_file = tmp_path / "bad.jsonl"
        bad = Family.build([Progression(1, 802), Progression(1, 1227)], 2406)
        write_family(bad, bad_file)
        code, out = run(
            capsys,
            "refine", "--in", str(bad_file),
            "--omega-cap", "3.5", "--prime-floor", "400", "--ratio-denom", "1.5",
            "--out", str(tmp_path / "cert.json"),
        )
        assert code == 1
        assert last_json(out)["counterexample"]["common"] == 1


class TestCounts:
    def test_psi_stdout(self, capsys):
        code, out = run(capsys, "counts", "--kind", "psi", "--x", "1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,x,c,exact,predicted,ratio"
        assert lines[1].startswith("psi,1000,1,461,")

    def test_multiple_x_and_c(self, capsys):
        code, out = run(
            capsys,
            "counts", "--kind", "omega-tail",
            "--x", "100", "--x", "1000", "--c", "1.0", "--c", "2.0",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5

    def test_f_lower_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        code, _ = run(
            capsys, "counts", "--kind", "f-lower", "--x", "100", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        # default c=1 anchors at 13, leaving seven moduli 13*m <= 100
        assert lines[1].split(",")[3] == "7"
        assert (tmp_path / "report.csv.manifest.json").exists()

    def test_domain_exit_2(self, capsys):
        code, _ = run(capsys, "counts", "--kind", "psi", "--x", "10")
        assert code == 2

    @pytest.mark.parametrize("c", ["nan", "inf", "1e300"])
    @pytest.mark.parametrize(
        "command",
        [
            ["construct", "--out", "unused.jsonl"],
            ["counts", "--kind", "psi"],
            ["counts", "--kind", "psistar"],
            ["counts", "--kind", "f-lower"],
            ["counts", "--kind", "omega-tail"],
        ],
        ids=["construct", "psi", "psistar", "f-lower", "omega-tail"],
    )
    def test_bad_scale_coefficient_exit_2(self, tmp_path, capsys, monkeypatch, command, c):
        monkeypatch.chdir(tmp_path)
        code = main([*command, "--x", "1000", "--c", c])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestReduce:
    def test_round_trip(self, tmp_path, capsys):
        src = tmp_path / "sq.jsonl"
        write_family(
            Family.build([Progression(9, 12), Progression(25, 60)], 60), src
        )
        out_file = tmp_path / "red.jsonl"
        code, out = run(capsys, "reduce", "--in", str(src), "--out", str(out_file))
        assert code == 0
        assert last_json(out)["alpha"] == 4
        reduced = read_family(out_file)
        assert reduced.moduli() == [3, 15]
        assert verify_family(reduced).ok

    def test_explicit_alpha(self, tmp_path, capsys):
        src = tmp_path / "sq.jsonl"
        write_family(
            Family.build([Progression(9, 12), Progression(0, 5)], 12), src
        )
        out_file = tmp_path / "red.jsonl"
        code, out = run(
            capsys, "reduce", "--in", str(src), "--alpha", "4", "--out", str(out_file)
        )
        assert code == 0 and last_json(out)["count"] == 1

    def test_chosen_alpha_factors_once(self, tmp_path, capsys, monkeypatch):
        # the members of the x=10^5 construction that 4 divides; the output
        # bytes and summary are frozen from the two-pass reduce
        monkeypatch.chdir(tmp_path)
        full = build_construction(ConstructionParams(x=10**5)).family
        write_family(
            Family(tuple(pr for pr in full.items if pr.modulus % 4 == 0), full.x_bound),
            "f4.jsonl",
        )
        calls = []
        real = bounds.factor_table
        monkeypatch.setattr(bounds, "factor_table", lambda moduli: calls.append(1) or real(moduli))
        code, out = run(capsys, "reduce", "--in", "f4.jsonl", "--out", "r4.jsonl")
        assert code == 0 and len(calls) == 1
        assert out.splitlines()[-1] == '{"alpha": 4, "count": 51, "out": "r4.jsonl"}'
        assert hashlib.sha256((tmp_path / "r4.jsonl").read_bytes()).hexdigest() == (
            "35abfa3dae9f473fc799906d0df26f590a8a452a55c3e8faf35fb19cb8131f46"
        )


class TestBench:
    def test_small_run(self, capsys):
        code, out = run(capsys, "bench", "--k", "300")
        assert code == 0
        summary = last_json(out)
        assert summary["ok"] and summary["pairs"] == 300 * 299 // 2
        assert summary["pairs_per_second"] > 0
        assert summary["verify_seconds"] >= 0


class TestParsing:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_version_exit_0(self, capsys):
        assert main(["--version"]) == 0

    def test_no_prefix_matching(self, tmp_path, capsys):
        code, _ = run(
            capsys, "construct", "--x", "100", "--squarefree", "--out", str(tmp_path / "f")
        )
        assert code == 2


class TestReadme:
    def test_commands_parse(self):
        commands = [
            line.removeprefix("$ apfam ")
            for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("$ apfam ")
        ]
        assert len(commands) >= 8
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command))

    def test_flags_are_options(self):
        options = set()
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    options.update(sub._option_string_actions)
        flags = set(re.findall(r"`(--[a-z][a-z-]*)", README.read_text(encoding="utf-8")))
        assert flags and flags <= options, sorted(flags - options)
