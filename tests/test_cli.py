import csv

import pytest

from rankhull import cli
from rankhull.geometry import Point
from rankhull.hull import HullPolygon


def run_cli(*argv):
    return cli.main(list(argv))


def test_hull_prints_vertices(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("5 7\n9 7\n7 9\n")
    assert run_cli("hull", str(path)) == 0
    assert capsys.readouterr().out == "5 7\n9 7\n7 9\n"


def test_hull_verify_agrees(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("5 7\n9 7\n7 9\n")
    assert run_cli("hull", str(path), "--verify") == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 3 and err == ""


def test_hull_flags(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("0 0\n4 0\n4 4\n0 4\n2 2\n")
    for flags in ((), ("--p", "16"), ("--rank", "f2")):
        assert run_cli("hull", str(path), *flags) == 0
        assert capsys.readouterr().out == "0 0\n4 0\n4 4\n0 4\n"


def test_hull_block_width_does_not_limit_coordinates(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("0 0\n300 0\n0 70000\n")
    assert run_cli("hull", str(path), "--p", "8", "--verify") == 0
    assert capsys.readouterr().out == "0 0\n300 0\n0 70000\n"


def test_hull_output_is_stable(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("3 1\n0 0\n5 5\n1 4\n2 2\n")
    run_cli("hull", str(path))
    first = capsys.readouterr().out
    run_cli("hull", str(path))
    assert capsys.readouterr().out == first


def test_hull_parse_error_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    assert run_cli("hull", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_file_exits_one_with_message(tmp_path, capsys):
    assert run_cli("hull", str(tmp_path / "missing.txt")) == 1
    assert "error:" in capsys.readouterr().err


def test_hull_verify_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tri.txt"
    path.write_text("0 0\n4 0\n2 3\n")
    wrong = HullPolygon((Point(0, 0), Point(4, 0)), degenerate=True)
    monkeypatch.setattr(cli, "hull_oracle", lambda pts: wrong)
    assert run_cli("hull", str(path), "--verify") == 2
    assert "differs" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert run_cli("hull") == 1  # missing file argument
    assert run_cli("no-such-command") == 1
    capsys.readouterr()


_BENCH = ("bench", "--width", "8", "--height", "8", "--densities", "0.5", "--out", "{out}")


@pytest.mark.parametrize("argv", [
    ("image-hull", "{mask}", "--threshold", "5"),
    ("gen", "--width", "0", "--height", "4", "--density", "0.5", "--out", "{out}"),
    (*_BENCH, "--reps", "2"),
    (*_BENCH, "--p-list", "12"),
    ("thresholds", "--p-list", "0"),
])
def test_bad_values_exit_one_with_one_error_line(tmp_path, capsys, argv):
    mask = tmp_path / "mask.pbm"
    mask.write_bytes(b"P4\n8 1\n\x80")
    paths = {"mask": mask, "out": tmp_path / "out.txt"}
    assert run_cli(*(arg.format(**paths) for arg in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_then_verified_hull_roundtrip(tmp_path, capsys):
    out = tmp_path / "pts.txt"
    assert run_cli(
        "gen", "--width", "160", "--height", "120", "--density", "0.03",
        "--seed", "9", "--out", str(out),
    ) == 0
    assert len(out.read_text().splitlines()) == round(0.03 * 160 * 120)
    assert run_cli("hull", str(out), "--verify") == 0
    capsys.readouterr()


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ("--width", "32", "--height", "32", "--density", "0.25", "--seed", "4")
    run_cli("gen", *args, "--out", str(a))
    run_cli("gen", *args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_image_hull(tmp_path, capsys):
    path = tmp_path / "mask.pbm"
    path.write_text("P1\n3 3\n111\n010\n111\n")
    assert run_cli("image-hull", str(path)) == 0
    assert capsys.readouterr().out == "0 0\n2 0\n2 2\n0 2\n"


def test_image_hull_threshold(tmp_path, capsys):
    path = tmp_path / "gray.pgm"
    path.write_text("P2\n2 2\n255\n10 200\n200 10\n")
    assert run_cli("image-hull", str(path), "--threshold", "100") == 0
    assert capsys.readouterr().out == "0 1\n1 0\n"


def test_thresholds_output(capsys):
    assert run_cli("thresholds", "--p-list", "32,64") == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 2
    assert "1/32" in lines[0] and "1/141377" in lines[0] and "7.07" in lines[0]
    assert "1/64" in lines[1] and "1/1089665" in lines[1] and "9.17" in lines[1]


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli(
        "bench", "--width", "64", "--height", "48",
        "--densities", "0.1,0.3", "--p-list", "16,32",
        "--reps", "3", "--seed", "2", "--out", str(out),
    ) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["p"] for r in rows} == {"16", "32"}
    assert all(int(r["median_ns"]) > 0 for r in rows)
