import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import latwidth.cli as cli
import latwidth.classify as classify_module
from latwidth.cli import main
from latwidth.minimal import MinimalityReport, is_minimal
from latwidth.svg import MAX_SIDE
from latwidth.width import lattice_size_square, lattice_width
from conftest import random_hull


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


def _cli_process(
    *argv, interpreter_flags=(), timeout=30, stdout=subprocess.PIPE, preexec_fn=None
):
    # a separate interpreter, so a runaway computation ends at the timeout;
    # preexec_fn runs in the child before the interpreter starts
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # stdout is buffered, as in a plain shell
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "latwidth.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout,
        preexec_fn=preexec_fn,
    )


def _run_cli_process(*argv, timeout=30):
    done = _cli_process(*argv, timeout=timeout)
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


def test_width_and_size_of_the_flat_triangle_in_bounded_time(tmp_path):
    # about 10^6 directions have width at most lambda2 = 10^6; both commands
    # read the size and its witness off the reduced basis without them
    vertices = [[0, 0], [1_000_000, 0], [0, 1]]
    f = write_polygon(tmp_path / "flat.json", vertices)
    done = _cli_process("width", f, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"lw": 1, "ls_square": 1000000, "directions": [[0, 1]]}\n'

    data = _run_cli_process("lattice-size", f, timeout=10)
    assert data["ls_square"] == 1_000_000
    _assert_witness_fits(data["witness"], vertices, 1_000_000)


def test_width_answer_is_the_width_and_the_lattice_size(minimality_corpus, rng):
    # width prints the width, the size of lattice_size_square and the
    # directions, in that order
    polygons = minimality_corpus + [random_hull(rng) for _ in range(2_000)]
    for p in polygons:
        w = lattice_width(p)
        assert cli._width(p) == {
            "lw": w.width,
            "ls_square": lattice_size_square(p).size,
            "directions": [list(v) for v in w.directions],
        }, p.vertices


def test_width_of_the_flat_triangle_lists_no_size_witness(capsys, monkeypatch, tmp_path):
    # about 10^6 directions have width at most lambda2 = 10^6; width reads
    # the size and its witness off the reduced basis with a few dozen
    # evaluations of the width norm instead of listing them
    import latwidth.width as width_module

    calls = []
    evaluate = width_module.width_in_direction

    def counting(q, v):
        calls.append(v)
        return evaluate(q, v)

    monkeypatch.setattr(width_module, "width_in_direction", counting)
    width_module._standard_reduction.cache_clear()
    f = write_polygon(tmp_path / "flat.json", [[0, 0], [1_000_000, 0], [0, 1]])
    code, out, _ = run(capsys, "width", f)
    assert code == 0
    assert out == '{"lw": 1, "ls_square": 1000000, "directions": [[0, 1]]}\n'
    # every evaluation goes through the module-level name, so the bound
    # cannot hold vacuously
    assert 0 < len(calls) <= 200


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
    # b1 is the only width direction of both triangles, so each vertex that
    # is not a strict extremum of b1 offends without a remainder being built
    fat = [[18000 * x, 18000 * y] for x, y in ((15, 24), (34, 6), (30, 55))]
    for name, vertices, width, vertex in (
        ("fat.json", fat, 342_000, [540_000, 990_000]),
        ("flat.json", [[0, 0], [n, 0], [0, 1]], 1, [0, 0]),
    ):
        f = write_polygon(tmp_path / name, vertices)
        expected = {"minimal": False, "width": width, "offending_vertex": vertex}
        for command in ("minimal", "classify"):
            assert _run_cli_process(command, f, timeout=10) == expected, (command, name)
    # the image of conv{(0,0),(8,0),(0,8)} under (x, y) -> (125000x + y, x)
    # reaches the coordinate limit, and n2 = d: (8, 0) is a strict extremum
    # of neither b1 nor b2, so is_minimal builds its remainder from the
    # corner triangle, here all of p, which spans 10^6 columns
    f = write_polygon(tmp_path / "sheared.json", [[0, 0], [n, 8], [8, 0]])
    assert _run_cli_process("minimal", f, timeout=10) == {
        "minimal": True, "width": 8, "offending_vertex": None,
    }
    data = _run_cli_process("classify", f, timeout=10)
    assert data["minimal"] and data["tag"] == "T1" and data["d"] == 8
    assert data["params"] == {"x": 0, "y": 0} and data["key"] == "0,0,0,8,-8,0"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: with three width directions is_minimal still builds a "
    "drop_vertex remainder, whose lattice_points list is O(D^2)",
)
def test_minimal_and_classify_of_the_large_right_triangle_under_a_memory_cap(tmp_path):
    # conv{(0,0),(10^6,0),(0,10^6)} is minimal of width 10^6, inside the
    # coordinate limit: minimal reports it and classify rejects its width
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    n = 1_000_000
    f = write_polygon(tmp_path / "right.json", [[0, 0], [n, 0], [0, n]])
    done = _cli_process("minimal", f, timeout=20, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr[-500:]
    assert json.loads(done.stdout) == {"minimal": True, "width": n, "offending_vertex": None}
    done = _cli_process("classify", f, timeout=20, preexec_fn=cap_memory)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: width parameter must be in [0, 16]\n",
    )


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
# before the enumerator skipped symmetric tuples and before the
# canonical-form pruning, and for d = 10 before the hexagon rotation joined
# the symmetries; the orbit walk keys one tuple per orbit, and the printed
# keys, representatives and order must not move
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


# sha256 of the stdout bytes of `latwidth enumerate d --oracle`, recorded
# before the class rows were written without json.dumps
ENUMERATE_ORACLE_SHA256 = {
    0: "b800a67867306de84005766e71ee64987f1311ace0b863eb64d27d617e9f18e5",
    1: "062c4569fdac69c566226ff77d0e9c26b70abbf68fd8364d9062949839ce5579",
    2: "b1f5ac2e9bd6c7b020b5856d546b0949c5dd3603bf4209ff840408d23f4bb1ba",
    3: "20c837421df0c7a411088b97a076d3ace719c3a4332867807ab65c561870d6d5",
    4: "bf53bc2dccd712625f6a4768eaf6fb56f9c32518e33e0438ecf9dd8a2ebfd554",
}


@pytest.mark.parametrize("d", sorted(ENUMERATE_ORACLE_SHA256))
def test_enumerate_oracle_output_bytes_are_pinned(capsys, d):
    code, out, _ = run(capsys, "enumerate", str(d), "--oracle")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_ORACLE_SHA256[d]


def test_enumerate_output_file_bytes_are_pinned(tmp_path):
    out = tmp_path / "classes.json"
    assert main(["enumerate", "8", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUMERATE_SHA256[8]


def class_row_oracle(cls) -> dict:
    # the row object the class array printed through json.dumps before the
    # rows were written out by cli._class_rows
    return {
        "key": cls.key,
        "tag": cls.params.tag if cls.params else None,
        "d": cls.params.d if cls.params else None,
        "params": cls.params.as_dict() if cls.params else None,
        "point_count": cls.point_count,
        "doubled_area": cls.doubled_area,
        "vertices": [list(v) for v in cls.canonical.vertices],
    }


def test_class_rows_match_json_dumps():
    tables = [classify_module.enumerate_minimal(d) for d in range(11)]
    tables += [classify_module.brute_force_minimal(d) for d in range(classify_module.BRUTE_FORCE_LIMIT + 1)]
    tables.append([])
    for classes in tables:
        expected = json.dumps([class_row_oracle(c) for c in classes], indent=2)
        assert cli._class_rows(classes) == expected
        # one level down, as the --oracle payload nests the arrays
        nested = json.dumps({"rows": [class_row_oracle(c) for c in classes]}, indent=2)
        assert '{\n  "rows": ' + cli._nested(cli._class_rows(classes)) + "\n}" == nested
    assert any(c.params is None for c in tables[-2])


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


# the polygons of the byte pins below: the examples, the coordinate-limit
# cases, a class image with a translation, and hulls of seeded random points
PINNED_POLYGONS = {
    "ups1": [[0, 0], [1, 2], [2, 1]],
    "unit-square": [[0, 0], [1, 0], [1, 1], [0, 1]],
    "point": [[4, -2]],
    "segment": [[-3, 1], [6, 4]],
    "thin-triangle-1e6": [[0, 0], [999_999, 999_998], [1_000_000, 999_999]],
    "square-1e6": [[0, 0], [1_000_000, 0], [1_000_000, 1_000_000], [0, 1_000_000]],
    "upsilon-1000": [[0, 0], [1, 1000], [1000, 1]],
    "t5-image": [[-40, 17], [-37, 18], [-25, 23], [-9, 30], [-17, 27], [-29, 22]],
    "hull-a": [[-9, 4], [-1, -2], [6, 6], [-2, 5]],
    "hull-b": [[-9, -2], [0, 1], [-9, 0]],
    "hull-c": [[-7, 2], [-5, -9], [-1, -9], [5, 5], [-1, 4]],
    "hull-d": [[0, 0], [5, -7], [6, -5], [1, 5]],
    "hull-e": [[-9, 6], [6, -9], [5, 6]],
    "hull-f": [[-6, -7], [8, -6], [-2, 1]],
}
# sha256 of the stdout bytes of `latwidth <command> <polygon>`, each with
# exit 0, recorded before the four polygon subcommands shared one runner;
# classify is pinned only up to width 8, since it builds the class table of
# the polygon's width
POLYGON_COMMAND_SHA256 = {
    "ups1": {
        "width": "26478690246340dc0615c443efcf3fcfc141d55e0776606bcd895d12f0d7b462",
        "lattice-size": "7576f88fa53239f49d37a38f0bf0b128b110a3aa707481434e0f31af072a2a11",
        "minimal": "bb6615c998c5038251a20e0536442f074e171ec0d5967916740e1b8e75532236",
        "classify": "3a64b655b95e6aeba8053aaaf84b7f9b0420cb2f777d167b0477865b5b297fc6",
    },
    "unit-square": {
        "width": "0c7cf5ec867b16957625cd885a8fe83f602f16f0ba1255753468d3f782a7d145",
        "lattice-size": "30d27c0370a97025ce71ecc9531effdabec427269d72705647b0195af85ff819",
        "minimal": "48f3c2faa7f46aed7623a4b632d42059ce07485a30649448776324d4e83b4a3b",
        "classify": "48f3c2faa7f46aed7623a4b632d42059ce07485a30649448776324d4e83b4a3b",
    },
    "point": {
        "width": "e01a88112147dc81a82ec39b5cb7371c373f76c7a6450cefc26af4a290af4337",
        "lattice-size": "d813fd770b02ad3222a82e5c36eb4a5175b15eea8833c11ac053eb07318d85c8",
        "minimal": "d4de8a7ae1c0c8915a1eeb90754db4e60376dad60780c78b0a11d9a3f349aec6",
        "classify": "bdfb2a56a0328440bf6f4231f123df97309df53a6290aa379b3bb1722eb1efd2",
    },
    "segment": {
        "width": "bb18c47925234069730d723b3bf3818392c5a3cb2b38f059fa1d181ee83035f9",
        "lattice-size": "a21218a0dda37ce18358778fd1c2ea9da850378de1f4d426a505b519d3f596b0",
        "minimal": "2ec112a803808ce3c3c983b45374351977ec42b768e6d45c0b13ccafa4b3d155",
        "classify": "2ec112a803808ce3c3c983b45374351977ec42b768e6d45c0b13ccafa4b3d155",
    },
    "thin-triangle-1e6": {
        "width": "a5950de8ed67853e4e4940ba373c3913d975367e30db56e58825a034925a10fd",
        "lattice-size": "4df4da126b6cf8a9cc32f431d7fc707f0ba0202a0f064e0794005a43cce2b19a",
        "minimal": "c194681fc3b420964a1832ce31049f3fdff876aef7ee155e30b9ad4f16a326fc",
        "classify": "1e6761408ab9a0efb702570d79c4adc9f28c4109c2700f417da4f527f2c93f8e",
    },
    "square-1e6": {
        "width": "b01427767ab45a4abafdecdd0c69a51ba74aa879a8fd9855503aeebbf69fe387",
        "lattice-size": "64cc7353492180779981f45501e2cca797a98645536ecb5a207d8609114ad7a6",
        "minimal": "e8390495ae0754f5aead4dc86fc0408ccfc3eb1f1ec981fcd6146260eb850b65",
        "classify": "e8390495ae0754f5aead4dc86fc0408ccfc3eb1f1ec981fcd6146260eb850b65",
    },
    "upsilon-1000": {
        "width": "332e54a42b1bb3392aba853dbe69a027d3c0f7c1a38718de5524292c1e48eabf",
        "lattice-size": "7c36ed7ef6a7463fe25d933082bba891c9a1c299d8ddb1e3d4486e87e3ba9703",
        "minimal": "310b93306c40f073f07b92ff21a82fd47545802034087f5d10c6ed81ad518b60",
    },
    "t5-image": {
        "width": "56ba37830e2cb512bc2f4c3d06d96c4b580c572eb751a53dbc700abbea27025b",
        "lattice-size": "9ad6b64992833e1cde20673fef490eaa1f0f9d1e503e56a179e10c0d9edec2e7",
        "minimal": "ece3b82608fe90f338b1811eefc6963533a6af3e349925114e19618df5abac09",
        "classify": "f865e5c1539729a22f60ae940feed23da5a7129658cffceb7452dad90ba9088d",
    },
    "hull-a": {
        "width": "25c2741c0fb366da15f3d3cc613198eac69d5bed2ec8e350dcd666022ae301c7",
        "lattice-size": "7f4a7adc4fa51d79b509c8760d877cd231e6acca74a592eef854faf516b4c608",
        "minimal": "92ad635c4d70587a63c8fca49457a3590e52bb09d8c82e8454a303e80bb148f1",
        "classify": "92ad635c4d70587a63c8fca49457a3590e52bb09d8c82e8454a303e80bb148f1",
    },
    "hull-b": {
        "width": "ee4984b179623deab039d1f012cc3951bd74db15bacb32f1e115a2b70c9dc568",
        "lattice-size": "5ddc8a28afa860116b01b52366cc474903be356fcfe314918d3e8c51995f28a3",
        "minimal": "c6caeb970adf221988e7a63efa001c6f313be8593f665faa63ebaac760b77d9d",
        "classify": "c6caeb970adf221988e7a63efa001c6f313be8593f665faa63ebaac760b77d9d",
    },
    "hull-c": {
        "width": "f2829938dbdfb3696836bfeaa0b14c94e95217dc1e00a37ba2146c6a4cc8b94d",
        "lattice-size": "1dde9139869aa6a48a6992262b6a0c8641cff9415c5bd347ebcd211fec62e484",
        "minimal": "27f8f2e74319a4c587cccef1759e3ae128c0b661d0a18b87559cacb3b01b3a43",
    },
    "hull-d": {
        "width": "a67893532235981816b30af83197fa60f2d361a83ee86642e0f76eb58334a783",
        "lattice-size": "be16c1000046e03c48c5631db1e13df512a68161cca64bee10c4c3c50b8b66ff",
        "minimal": "32336b3a376f1b1f9bb9f26b4b78a0151207ccb5672e927d7bcc4d3283e9c68c",
        "classify": "32336b3a376f1b1f9bb9f26b4b78a0151207ccb5672e927d7bcc4d3283e9c68c",
    },
    "hull-e": {
        "width": "ad82033156fafe4d0dd69f9c3f7559503d4b72c09f34e48247036a944b49792b",
        "lattice-size": "b150c54dfdf454453e465657070f60d9ba987d6df3018d4f635aae5c7725ea3e",
        "minimal": "daefc9d07d1fbc9313f773c29f1e4266166eeca20cab746c2c9421e7c5e31cf3",
    },
    "hull-f": {
        "width": "25c2741c0fb366da15f3d3cc613198eac69d5bed2ec8e350dcd666022ae301c7",
        "lattice-size": "feffd542ecbce9ec56501dc5638227b460a8f53c9f7d8588001a269c5d800158",
        "minimal": "7fe68c32989f6bbe848f9a69a81e94afcf4cf6b5149eb10dde82203313f64491",
        "classify": "7fe68c32989f6bbe848f9a69a81e94afcf4cf6b5149eb10dde82203313f64491",
    },
}
PLOT_SIMPLEX_SHA256 = {
    (): "804cee36f6121893846e852c7d4ad0b1594832351fb9278e11a8af239b95bc63",
    ('--hexagon', '2'): "8921ef18fe2bce55973a234beb50315827d01baaeaec30ae5e8a23b49a49426d",
}


@pytest.mark.parametrize(
    "name, command",
    [(name, command) for name, pins in POLYGON_COMMAND_SHA256.items() for command in pins],
)
def test_polygon_command_output_bytes_are_pinned(capsys, tmp_path, name, command):
    f = write_polygon(tmp_path / f"{name}.json", PINNED_POLYGONS[name])
    code, out, err = run(capsys, command, f)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POLYGON_COMMAND_SHA256[name][command]


@pytest.mark.parametrize("extra", sorted(PLOT_SIMPLEX_SHA256))
def test_plot_output_bytes_are_pinned(capsys, tmp_path, extra):
    simplex = write_polygon(tmp_path / "t.json", [[0, 0], [3, 0], [0, 3]])
    code, out, err = run(capsys, "plot", simplex, *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PLOT_SIMPLEX_SHA256[extra]


@pytest.mark.parametrize(
    ("far", "code"),
    [(MAX_SIDE - 2, 0), (MAX_SIDE - 1, 2), (cli.COORD_LIMIT, 2)],
    ids=["at-the-cap", "past-the-cap", "coordinate-limit"],
)
def test_plot_box_side_is_capped(tmp_path, far, code):
    # conv{(0,0),(far,0),(0,1)} has width 1, so its drawing box, margins
    # included, has the side far + 2; a side past the cap exits 2 at once
    thin = write_polygon(tmp_path / "thin.json", [[0, 0], [far, 0], [0, 1]])
    done = _cli_process("plot", thin, "--hexagon", "1")
    assert done.returncode == code, done.stderr
    if code == 0:
        assert done.stdout.startswith("<?xml") and done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr == f"error: the drawing box side {far + 2} exceeds {MAX_SIDE} lattice units\n"


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

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"vertices": [[0, 0], [1, 2], [2, 1]]} \xe9'.encode("latin-1"))
    code, out, err = run(capsys, "width", str(latin1))
    assert code == 2 and out == "" and err.startswith(f"error: cannot read {latin1}")

    huge = write_polygon(tmp_path / "huge.json", [[0, 0], [2_000_000, 1]])
    code, _, err = run(capsys, "width", huge)
    assert code == 2 and "magnitude" in err

    booleans = write_polygon(tmp_path / "bool.json", [[True, False], [0, 3], [3, 0]])
    code, out, err = run(capsys, "width", booleans)
    assert code == 2 and out == "" and "bad vertex entry" in err

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)  # nested past the decoder's recursion limit
    code, out, err = run(capsys, "width", str(deep))
    assert code == 2 and out == "" and err.startswith(f"error: {deep}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing-dir/out.json", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["width", "{polygon}"],
        ["lattice-size", "{polygon}"],
        ["minimal", "{polygon}"],
        ["classify", "{polygon}"],
        ["enumerate", "1"],
        ["verify", "1"],
        ["plot", "{polygon}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_2(capsys, tmp_path, ups1_file, argv, target):
    path = tmp_path / target
    code, out, err = run(capsys, *[a.format(polygon=ups1_file) for a in argv], "-o", str(path))
    assert code == 2 and err.startswith(f"error: cannot write {path}")
    # verify prints its check lines before it writes the reports
    assert (out != "") == (argv[0] == "verify")


def test_io_failures_print_no_traceback(tmp_path, ups1_file):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff\xfe")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for argv, prefix in (
        (["minimal", str(latin1)], "error: cannot read "),
        (["minimal", ups1_file, "-o", str(tmp_path)], "error: cannot write "),
        (["width", str(deep)], f"error: {deep}: "),
    ):
        done = _cli_process(*argv)
        assert done.returncode == 2 and done.stdout == "", argv
        assert done.stderr.startswith(prefix) and "Traceback" not in done.stderr, argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
def test_unwritable_stdout_exits_2(ups1_file, flags):
    # every subcommand writes stdout through one helper, verify's check
    # lines included, so a failed write is one error line, not a traceback
    # with the exit status of a failed verification; a buffered stdout must
    # fail in that helper too, not in the interpreter's flush at exit
    for argv in (
        ["width", ups1_file],
        ["lattice-size", ups1_file],
        ["minimal", ups1_file],
        ["classify", ups1_file],
        ["enumerate", "1"],
        ["verify", "1", "2"],
        ["plot", ups1_file],
    ):
        with open("/dev/full", "w") as full:
            done = _cli_process(*argv, interpreter_flags=flags, stdout=full)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stderr.startswith("error: cannot write stdout"), argv
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr, argv


def test_oracle_needs_small_width(capsys):
    code, _, err = run(capsys, "enumerate", "5", "--oracle")
    assert code == 2
    code, _, err = run(capsys, "verify", "5", "--oracle")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "17"],
        ["verify", "1", "17"],
        ["verify", "17"],
        ["classify", "{upsilon_1000}"],
        ["classify", "{upsilon_17}"],
    ],
    ids=["enumerate-17", "verify-1-17", "verify-17", "classify-upsilon-1000", "classify-upsilon-17"],
)
def test_widths_over_the_budget_exit_2_at_once(tmp_path, argv):
    # widths up to WIDTH_LIMIT = 16 run (the LATWIDTH_SLOW counts in
    # test_classify.py enumerate d = 16 in about 14 s); past it nothing is
    # enumerated, and a class table of width 17 alone takes longer than the
    # timeout below
    files = {
        f"upsilon_{d}": write_polygon(tmp_path / f"upsilon-{d}.json", [[0, 0], [1, d], [d, 1]])
        for d in (17, 1000)
    }
    done = _cli_process(*[a.format(**files) for a in argv], timeout=10)
    assert (done.returncode, done.stdout) == (2, ""), argv
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert cli._check_d(cli.WIDTH_LIMIT) == cli.WIDTH_LIMIT == 16


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
    # a stubbed report stands in for a minimal polygon of width 1001; a real
    # one, such as upsilon(1001), passes its minimality test in under 0.1 ms
    monkeypatch.setattr(cli, "is_minimal", lambda p: MinimalityReport(True, None, 1001))

    def no_table(d):
        raise AssertionError(f"class table of width {d} requested")

    monkeypatch.setattr(classify_module, "_class_table", no_table)
    code, out, err = run(capsys, "classify", ups1_file)
    assert code == 2 and out == "" and "width parameter" in err
