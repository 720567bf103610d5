import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latwidth.cli as cli
import latwidth.classify as classify_module
from latwidth.cli import main
from latwidth.minimal import MinimalityReport, is_minimal


def write_polygon(path, vertices):
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


@pytest.fixture
def ups1_file(tmp_path):
    return write_polygon(tmp_path / "ups1.json", [[0, 0], [1, 2], [2, 1]])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_width_command(capsys, ups1_file):
    code, out, _ = run(capsys, "width", ups1_file)
    assert code == 0
    assert json.loads(out) == {
        "lw": 2,
        "ls_square": 2,
        "directions": [[1, 0], [0, 1], [1, -1]],
    }


def test_width_of_point_and_simplex(capsys, tmp_path):
    f = write_polygon(tmp_path / "pt.json", [[4, -2]])
    code, out, _ = run(capsys, "width", f)
    assert code == 0 and json.loads(out)["lw"] == 0

    f = write_polygon(tmp_path / "simplex.json", [[0, 0], [1, 0], [0, 1]])
    code, out, _ = run(capsys, "width", f)
    data = json.loads(out)
    assert data["lw"] == 1 and data["ls_square"] == 1


def test_width_reduces_the_polygon_once(capsys, monkeypatch, ups1_file):
    import latwidth.width as width_module

    calls = []
    reduce = width_module._reduced_basis

    def counting(p, *args):
        calls.append(p)
        return reduce(p, *args)

    monkeypatch.setattr(width_module, "_reduced_basis", counting)
    width_module._standard_reduction.cache_clear()
    assert run(capsys, "width", ups1_file)[0] == 0
    assert len(calls) == 1


def test_lattice_size_command(capsys, tmp_path):
    f = write_polygon(tmp_path / "seg.json", [[0, 0], [5, 0]])
    code, out, _ = run(capsys, "lattice-size", f)
    data = json.loads(out)
    assert code == 0 and data["ls_square"] == 5
    assert set(data["witness"]) == {"a", "b"}


def _cli_process(*argv, interpreter_flags=()):
    # a separate interpreter, so a runaway computation ends at the timeout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "latwidth.cli", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


def _run_cli_process(*argv):
    done = _cli_process(*argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_width_and_size_at_the_coordinate_limit(tmp_path):
    vertices = [[0, 0], [999_999, 999_998], [1_000_000, 999_999]]
    f = write_polygon(tmp_path / "thin.json", vertices)
    data = _run_cli_process("width", f)
    assert data["lw"] == 1 and data["ls_square"] == 1
    assert len(data["directions"]) == 3

    data = _run_cli_process("lattice-size", f)
    assert data["ls_square"] == 1
    _assert_witness_fits(data["witness"], vertices, 1)


def test_width_and_size_of_the_square_at_the_coordinate_limit(tmp_path):
    n = 1_000_000
    vertices = [[0, 0], [n, 0], [n, n], [0, n]]
    f = write_polygon(tmp_path / "square.json", vertices)
    data = _run_cli_process("width", f)
    assert data["lw"] == n and data["ls_square"] == n
    assert sorted(data["directions"]) == [[0, 1], [1, 0]]

    data = _run_cli_process("lattice-size", f)
    assert data["ls_square"] == n
    _assert_witness_fits(data["witness"], vertices, n)


def test_minimal_of_large_polygons_in_bounded_time(tmp_path):
    # upsilon(1000): every vertex is the only point of p on a supporting
    # line of a width direction
    f = write_polygon(tmp_path / "upsilon.json", [[0, 0], [1, 1000], [1000, 1]])
    assert _run_cli_process("minimal", f) == {
        "minimal": True, "width": 1000, "offending_vertex": None,
    }
    # [0, 10^6]^2: the triangle left without (0, 0) keeps the width
    n = 1_000_000
    f = write_polygon(tmp_path / "square.json", [[0, 0], [n, 0], [n, n], [0, n]])
    assert _run_cli_process("minimal", f) == {
        "minimal": False, "width": n, "offending_vertex": [0, 0],
    }


def _assert_witness_fits(witness, vertices, size):
    (a11, a12), (a21, a22) = witness["a"]
    bx, by = witness["b"]
    assert abs(a11 * a22 - a12 * a21) == 1
    for x, y in vertices:
        assert 0 <= a11 * x + a12 * y + bx <= size and 0 <= a21 * x + a22 * y + by <= size


def test_minimal_and_classify_commands(capsys, tmp_path, ups1_file):
    square = write_polygon(tmp_path / "sq.json", [[0, 0], [1, 0], [1, 1], [0, 1]])
    code, out, _ = run(capsys, "minimal", square)
    assert code == 0
    assert json.loads(out) == {"minimal": False, "width": 1, "offending_vertex": [0, 0]}

    code, out, _ = run(capsys, "classify", square)
    assert json.loads(out)["minimal"] is False

    code, out, _ = run(capsys, "classify", ups1_file)
    data = json.loads(out)
    assert data["minimal"] and data["tag"] == "T1" and data["params"] == {"x": 1, "y": 1}

    simplex = write_polygon(tmp_path / "simplex.json", [[0, 0], [1, 0], [0, 1]])
    code, out, _ = run(capsys, "classify", simplex)
    data = json.loads(out)
    assert data["tag"] == "T1" and data["params"] == {"x": 0, "y": 0}


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    entry = data[0]
    assert set(entry) == {"key", "tag", "d", "params", "point_count", "doubled_area", "vertices"}
    assert entry["tag"] == "T1" and entry["point_count"] == 3


# sha256 of the stdout bytes of `latwidth enumerate d`, recorded for d <= 9
# before the orbit memo and the canonical-form pruning, and for d >= 10
# before the hexagon rotation joined the memo; the printed keys,
# representatives and order must not move
ENUMERATE_SHA256 = {
    0: "a4d88014512538dfc85cc250cb87191a76c01a3e10d627a914f20a96f5093788",
    1: "d92cda5345bf5021bfc4995427829d8dd748ec2e3278e55f387530616415d08e",
    2: "4b7f368e367bc3a41d6d47173d9969b8e3f6c4e66bc1aad20f15bc00fc65e0bb",
    3: "3f5e3c34cbcd225a3492c8dbaef0eab5a145a448cbe61074f9d410c2c1e315bf",
    4: "c8ead492b2813df318e8da27a223793b421a9ca2979ea2e90cea77c55974358c",
    5: "d19477d0f0249becb158c18152b954ec54f16985ad3072319d5fcb0a0e22b89e",
    6: "b6a02f1ed1ff977e45b30d900630c64e988c7e8576b788176b904694e5c4f438",
    7: "62a5570cb29f0eaf860b5fe74bf49aa907a12d4249d7913d815cae9785eddb0c",
    8: "7d79cdc28e782e10d4b7de8a8a8cf230d8fb86225f268408d84a789dd0dc6425",
    9: "ec31c25f44b119e8e34124bb48126b9ff9ea6c260c828aea3e93e207f0f02569",
    10: "2eb27060914fcca1366dbb342b2d23312fbaba7952d636f4d27deff061b33d25",
}
LARGE_ENUMERATE_SHA256 = {
    11: "5fa102e1cd9f16a985228de813b1cda5f43e86d5aa3318ec216e30af1e8e92d4",
    12: "8ad8611486cb3a55fa5e9bd1530dc148b45fc8f7a57ce02f3fc6cfa8f4f267c7",
}


@pytest.mark.parametrize("d", sorted(ENUMERATE_SHA256))
def test_enumerate_output_bytes_are_pinned(capsys, d):
    code, out, _ = run(capsys, "enumerate", str(d))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[d]


def test_enumerate_with_oracle(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["diff"] == {"missing_from_enumerator": [], "extra_in_enumerator": []}
    assert len(data["classes"]) == len(data["oracle"]) == 4


def test_enumerate_output_file_and_determinism(capsys, tmp_path):
    out = tmp_path / "a.json"
    assert main(["enumerate", "3", "-o", str(out)]) == 0
    code, stdout, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "1", "2", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert "d=1 point-bound not-applicable" in lines
    assert all(" FAIL " not in line for line in lines)
    assert any(line.startswith("d=2 point-bound PASS") for line in lines)
    assert any(line.startswith("d=2 oracle-equivalence PASS") for line in lines)


def test_verify_writes_reports(capsys, tmp_path):
    report = tmp_path / "reports.json"
    assert main(["verify", "2", "-o", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    kinds = {(entry["kind"], entry["d"]) for entry in data}
    assert kinds == {("volume-bound", 2), ("point-bound", 2)}
    assert all(entry["holds"] for entry in data)


# sha256 of `latwidth verify` output, recorded before the checks moved from the
# CLI into the library; the check names, order, details and reports must not move
VERIFY_0_8_STDOUT_SHA256 = "faf28168a3123add3fd0c60e944f27c10bcab5ec588bdbafa1dbb6b7087bfb5f"
VERIFY_0_8_REPORTS_SHA256 = "f59ec963dc96bf71fe516732779294aa708fff1417fb1da158d74bcce15af842"
VERIFY_1_4_ORACLE_STDOUT_SHA256 = "c9c7eb60237e81a708f38f8104ab1506a1bd3775c551af865113a82674779fbc"


def test_verify_output_bytes_are_pinned(capsys, tmp_path):
    report = tmp_path / "reports.json"
    code, out, _ = run(capsys, "verify", "0", "8", "-o", str(report))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_0_8_STDOUT_SHA256
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_0_8_REPORTS_SHA256

    code, out, _ = run(capsys, "verify", "1", "4", "--oracle")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_1_4_ORACLE_STDOUT_SHA256


VERIFY_9_12_STDOUT_SHA256 = "9945d9c0472543f11f2d4583b3ffaa9b9f64492253dacf8b35ed2bbcd2136858"


@pytest.mark.skipif(
    not os.environ.get("LATWIDTH_SLOW"),
    reason="enumerating widths 11 and 12 takes several seconds; set LATWIDTH_SLOW=1 to run",
)
def test_large_width_output_bytes_are_pinned(capsys):
    for d, digest in LARGE_ENUMERATE_SHA256.items():
        code, out, _ = run(capsys, "enumerate", str(d))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d
    code, out, _ = run(capsys, "verify", "9", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_9_12_STDOUT_SHA256


def test_output_bytes_do_not_rely_on_assert():
    # invariants raise and do not assert, so -O, which strips every assert,
    # prints the same bytes
    for argv, digest in (
        (("enumerate", "6"), ENUMERATE_SHA256[6]),
        (("verify", "1", "4", "--oracle"), VERIFY_1_4_ORACLE_STDOUT_SHA256),
    ):
        done = _cli_process(*argv, interpreter_flags=("-O",))
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest, argv


def test_plot_command(capsys, tmp_path):
    simplex = write_polygon(tmp_path / "t.json", [[0, 0], [3, 0], [0, 3]])
    code, out, _ = run(capsys, "plot", simplex)
    assert code == 0
    assert out.count('class="latpt"') == 10
    assert 'class="square"' in out

    code2, out2, _ = run(capsys, "plot", simplex)
    assert out == out2  # byte-deterministic

    code, out, _ = run(capsys, "plot", simplex, "--hexagon", "2")
    assert code == 0 and 'stroke-dasharray="6 3"' in out


def test_plot_hexagon_range(capsys, tmp_path):
    simplex = write_polygon(tmp_path / "t.json", [[0, 0], [3, 0], [0, 3]])
    code, _, err = run(capsys, "plot", simplex, "--hexagon", "9")
    assert code == 2 and "hexagon" in err


def test_exit_codes_for_bad_input(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "width", str(missing))
    assert code == 2

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    code, _, err = run(capsys, "width", str(garbage))
    assert code == 2

    huge = write_polygon(tmp_path / "huge.json", [[0, 0], [2_000_000, 1]])
    code, _, err = run(capsys, "width", huge)
    assert code == 2 and "magnitude" in err

    booleans = write_polygon(tmp_path / "bool.json", [[True, False], [0, 3], [3, 0]])
    code, out, err = run(capsys, "width", booleans)
    assert code == 2 and out == "" and "bad vertex entry" in err


def test_oracle_needs_small_width(capsys):
    code, _, err = run(capsys, "enumerate", "5", "--oracle")
    assert code == 2
    code, _, err = run(capsys, "verify", "5", "--oracle")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2
    capsys.readouterr()


def test_round_trip_canonical_cycle(capsys, tmp_path):
    f = write_polygon(tmp_path / "p.json", [[2, 1], [0, 0], [1, 2], [1, 1], [0, 0]])
    code, out, _ = run(capsys, "width", f)
    assert code == 0  # reader hulls arbitrary lists, duplicates included


def test_repeated_calls_in_one_process_match_fresh_processes(capsys, monkeypatch, tmp_path, ups1_file):
    # every call of one process sequence gives the exit code and bytes of
    # the same call made first in a fresh interpreter, output file included
    monkeypatch.setenv("COLUMNS", "80")  # the help width of a fresh process with piped output
    square = write_polygon(tmp_path / "sq.json", [[0, 0], [1, 0], [1, 1], [0, 1]])
    calls = [
        ["enumerate"],
        ["width", ups1_file, "-o", "{out}"],
        ["width", square],
        ["minimal", square],
        ["classify", ups1_file],
        ["classify", square],
        ["width", "--help"],
    ]
    for i, call in enumerate(calls):
        here = [a.format(out=tmp_path / f"in-process-{i}.json") for a in call]
        there = [a.format(out=tmp_path / f"fresh-{i}.json") for a in call]
        code, out, err = run(capsys, *here)
        fresh = _cli_process(*there)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), call
        if "-o" in call:
            assert out == ""
            assert (tmp_path / f"in-process-{i}.json").read_bytes() == (
                tmp_path / f"fresh-{i}.json"
            ).read_bytes()


def test_parser_is_built_once_per_process(capsys, monkeypatch, ups1_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.__wrapped__()
    one_tree = len(built)
    assert one_tree > 1  # the top-level parser and one per subcommand

    built.clear()
    cli.build_parser.cache_clear()
    for argv in (["width", ups1_file], ["minimal", ups1_file], ["enumerate"], ["width", ups1_file]):
        main(argv)
    capsys.readouterr()
    assert len(built) == one_tree


def test_classify_tests_minimality_once(capsys, monkeypatch, tmp_path, ups1_file):
    classify_module.enumerate_minimal(2)  # the table's enumeration tests minimality too
    square = write_polygon(tmp_path / "sq.json", [[0, 0], [1, 0], [1, 1], [0, 1]])
    calls = []

    def counting(p):
        calls.append(p)
        return is_minimal(p)

    # wrap the name in every latwidth module that binds it, as the
    # benchmark's tracer does
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "latwidth":
            for attr, value in list(vars(module).items()):
                if value is is_minimal:
                    monkeypatch.setattr(module, attr, counting)
    assert main(["classify", ups1_file]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["classify", square]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["minimal"] is False


def test_classify_rejects_too_wide_before_building_a_class_table(capsys, monkeypatch, ups1_file):
    # a stubbed report stands in for a minimal polygon of width 1001, whose
    # real minimality test takes seconds
    monkeypatch.setattr(cli, "is_minimal", lambda p: MinimalityReport(True, None, 1001))

    def no_table(d):
        raise AssertionError(f"class table of width {d} requested")

    monkeypatch.setattr(classify_module, "_class_table", no_table)
    code, out, err = run(capsys, "classify", ups1_file)
    assert code == 2 and out == "" and "width parameter" in err
