import os
import subprocess
import sys
from pathlib import Path

import pytest

import delgraphs
from delgraphs.cli import main, run_fuzz, run_triangulate_check

GOOD = """\
mode homothet
shape 4
1 0 1 closed
-1 0 0 closed
0 1 1 closed
0 -1 0 closed
points 4
0 0
2 0
0 2
2 2
"""

BAD_RATIONAL = GOOD.replace("2 2", "2 1/0")


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "square.dg"
    p.write_text(GOOD)
    return str(p)


def test_build_prints_edges(capsys, good_file):
    assert main(["build", "--input", good_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["0 1", "0 2", "1 3", "2 3"]


def test_build_mode_override(capsys, good_file):
    assert main(["build", "--input", good_file, "--mode", "translate"]) == 0
    assert capsys.readouterr().out == ""  # unit square holds no far pairs


def test_build_writes_witnesses_and_svg(tmp_path, capsys, good_file):
    wfile = tmp_path / "w.txt"
    sfile = tmp_path / "g.svg"
    assert main(["build", "--input", good_file,
                 "--witnesses", str(wfile), "--svg", str(sfile)]) == 0
    lines = wfile.read_text().splitlines()
    assert len(lines) == 4
    first = lines[0].split()
    assert len(first) == 5 and first[0] == "0" and first[1] == "1"
    assert "<svg" in sfile.read_text()
    capsys.readouterr()


# Wider square [0,3]^2: the translate graph has edges too.
WIDE = GOOD.replace("1 0 1 closed", "1 0 3 closed").replace("0 1 1 closed", "0 1 3 closed")


@pytest.mark.parametrize("text, mode, expected", [
    (GOOD, "homothet", "0 1 0 -1 2\n0 2 -1 0 2\n1 3 1 0 2\n2 3 0 1 2\n"),
    (GOOD, "translate", ""),
    (WIDE, "translate", "0 1 0 -2 1\n0 2 -2 0 1\n1 3 1 0 1\n2 3 0 1 1\n"),
])
def test_build_witness_text_is_pinned(tmp_path, capsys, text, mode, expected):
    src = tmp_path / "in.dg"
    src.write_text(text)
    wfile = tmp_path / "w.txt"
    assert main(["build", "--input", str(src), "--mode", mode,
                 "--witnesses", str(wfile)]) == 0
    assert wfile.read_text() == expected
    capsys.readouterr()


def test_build_svg_with_no_points(tmp_path, capsys):
    src = tmp_path / "empty.dg"
    src.write_text("mode homothet\nshape 1\n0 1 1 closed\npoints 0\n")
    sfile = tmp_path / "g.svg"
    assert main(["build", "--input", str(src), "--svg", str(sfile)]) == 0
    assert capsys.readouterr().out == ""
    assert "<circle" not in sfile.read_text()


def test_verify_ok(capsys, good_file):
    assert main(["verify", "--input", good_file]) == 0
    out = capsys.readouterr().out
    assert "plane translate ok" in out
    assert "plane homothet ok" in out
    assert "subset ok" in out


def test_verify_single_mode(capsys, good_file):
    assert main(["verify", "--input", good_file, "--mode", "homothet"]) == 0
    out = capsys.readouterr().out
    assert "plane homothet ok" in out and "plane translate ok" not in out


def test_parse_error_exit_code_1(tmp_path, capsys):
    p = tmp_path / "bad.dg"
    p.write_text(BAD_RATIONAL)
    assert main(["build", "--input", str(p)]) == 1
    assert "zero denominator" in capsys.readouterr().err


def test_missing_file_exit_code_1(capsys):
    assert main(["build", "--input", "/nonexistent/x.dg"]) == 1
    capsys.readouterr()


def test_file_errors_print_one_line_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.dg"
    bad.write_text(BAD_RATIONAL)
    line_no = BAD_RATIONAL.splitlines().index("2 1/0") + 1
    assert main(["verify", "--input", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line {line_no}: zero denominator in '1/0'"]

    latin = tmp_path / "latin.dg"
    latin.write_bytes(GOOD.encode() + b"\xff\n")
    assert main(["build", "--input", str(latin)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {latin}: 'utf-8' codec can't decode byte 0xff in position "
        f"{len(GOOD)}: invalid start byte"]

    missing = tmp_path / "missing.dg"
    assert main(["build", "--input", str(missing)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing}: ")

    good = tmp_path / "good.dg"
    good.write_text(GOOD)
    svg = tmp_path / "no-such-dir" / "g.svg"
    assert main(["build", "--input", str(good), "--svg", str(svg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {svg}: ")


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build"])  # missing --input
    assert err.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["fuzz", "--trials", "-2", "--seed", "1"], "--trials"),
    (["fuzz", "--trials", "1", "--seed", "1", "--max-points", "0"], "--max-points"),
    (["fuzz", "--trials", "1", "--seed", "1", "--max-halfplanes", "0"],
     "--max-halfplanes"),
    (["triangulate-check", "--trials", "-1", "--seed", "1"], "--trials"),
    (["fuzz", "--trials", "0", "--seed", "1", "--open-fraction", "2"],
     "--open-fraction"),
    (["fuzz", "--trials", "0", "--seed", "1", "--open-fraction=-1/2"],
     "--open-fraction"),
    (["fuzz", "--trials", "1", "--seed", "1", "--open-fraction", "abc"],
     "--open-fraction"),
])
def test_bad_count_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err


def test_fuzz_small_run_clean(capsys):
    assert main(["fuzz", "--trials", "6", "--seed", "11",
                 "--max-points", "6", "--max-halfplanes", "5"]) == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_fuzz_summary_reproducible():
    s1, v1 = run_fuzz(10, 42, 6, 5, None)
    s2, v2 = run_fuzz(10, 42, 6, 5, None)
    assert s1 == s2 and v1 == v2 and not v1


def test_fuzz_cli_reproducible_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "delgraphs.cli", "fuzz", "--trials", "8",
           "--seed", "3", "--max-points", "5", "--max-halfplanes", "4"]
    # the child imports the package this test imported, found on PYTHONPATH
    src = str(Path(delgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout  # stderr carries timing, stdout must match


def test_fuzz_open_fraction_flag(capsys):
    assert main(["fuzz", "--trials", "4", "--seed", "2", "--max-points", "5",
                 "--max-halfplanes", "4", "--open-fraction", "1"]) == 0
    out = capsys.readouterr().out
    assert "open-fraction=1" in out


def test_triangulate_check_runs(capsys):
    assert main(["triangulate-check", "--trials", "5", "--seed", "8"]) == 0
    out = capsys.readouterr().out
    assert "miss-unexplained=0" in out


def test_triangulate_check_reproducible():
    s1, _ = run_triangulate_check(5, 21)
    s2, _ = run_triangulate_check(5, 21)
    assert s1 == s2
