import errno
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import delgraphs
from delgraphs import builder, cli, region
from delgraphs.builder import WitnessVerificationError
from delgraphs.cli import main, run_fuzz, run_triangulate_check
from delgraphs.instances import emit_instance, generate_bounded_instance, parse_instance
from delgraphs.planarity import PlanarityReport
from delgraphs.shape import HOMOTHET, POSITIVE_SCALE, TRANSLATE

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


def test_build_reads_a_file_with_a_byte_order_mark(tmp_path, capsys):
    """Some editors save UTF-8 with a leading BOM; it is not part of line 1."""
    src = tmp_path / "bom.dg"
    src.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
    assert main(["build", "--input", str(src)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "0 2", "1 3", "2 3"]


@pytest.mark.parametrize("flag", ["--svg", "--witnesses"])
def test_build_prints_nothing_when_a_file_cannot_be_written(tmp_path, capsys,
                                                            good_file, flag):
    """The edge list goes to stdout only after the files are written, so
    a path that cannot be written leaves stdout empty."""
    bad = tmp_path / "no-such-dir" / "out"
    assert main(["build", "--input", good_file, flag, str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: cannot write {bad}: No such file or directory"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--svg", "--witnesses"])
def test_build_names_the_file_whose_write_fails(capsys, good_file, flag):
    """A write that fails after the file opened (here: no space left)
    still names the file."""
    assert main(["build", "--input", good_file, flag, "/dev/full"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: cannot write /dev/full: No space left on device"]


class _FailingStream(io.StringIO):
    """Every read fails as on a bad disk, every write as on a full one."""
    def read(self, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_build_names_the_input_whose_read_fails(monkeypatch, capsys, good_file):
    """A read that fails after the file opened still names the file."""
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FailingStream(),
                        raising=False)
    assert main(["build", "--input", good_file]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {good_file}: Input/output error"]


def test_build_names_standard_output_when_its_write_fails(monkeypatch, capsys, good_file):
    monkeypatch.setattr(sys, "stdout", _FailingStream())
    assert main(["build", "--input", good_file]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write standard output: No space left on device"]


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


# SHA-256 of the witness file for n = 16: every edge and its exact placement.
WITNESS_SHA256 = {
    TRANSLATE: "f2e37f31d58d719c9f9131a303676befa7ce5d560506119f039000793139bf86",
    HOMOTHET: "80a440f78ebf0d9f272aaedd59fb8aae505a6b0a4a7e0aae877281c0dbe55e88",
}


SVG_SHA256 = {
    TRANSLATE: "0d6ffc8e2f02fd43bd181859f9dcb8bb99b84d8ee3a5504037cb8185b995400f",
    HOMOTHET: "40fdbdbce2523f8e8a6f511254fd3b171405c69b693687c54d1c7e47700e707c",
}


@pytest.mark.parametrize("mode", sorted(WITNESS_SHA256))
def test_build_witness_file_is_pinned_at_n16(tmp_path, capsys, mode):
    """The witness file and the SVG drawing of one n = 16 build, byte for
    byte; the SVG is also well-formed XML."""
    src = tmp_path / "in.dg"
    src.write_text(emit_instance(generate_bounded_instance(116, 16, 6, mode)))
    wfile, sfile = tmp_path / "w.txt", tmp_path / "g.svg"
    assert main(["build", "--input", str(src), "--witnesses", str(wfile),
                 "--svg", str(sfile)]) == 0
    assert hashlib.sha256(wfile.read_bytes()).hexdigest() == WITNESS_SHA256[mode]
    assert hashlib.sha256(sfile.read_bytes()).hexdigest() == SVG_SHA256[mode]
    ElementTree.fromstring(sfile.read_bytes())
    capsys.readouterr()


def test_build_svg_with_no_points(tmp_path, capsys):
    src = tmp_path / "empty.dg"
    src.write_text("mode homothet\nshape 1\n0 1 1 closed\npoints 0\n")
    sfile = tmp_path / "g.svg"
    assert main(["build", "--input", str(src), "--svg", str(sfile)]) == 0
    assert capsys.readouterr().out == ""
    assert "<circle" not in sfile.read_text()


def test_build_svg_beyond_float_range(tmp_path, capsys):
    src = tmp_path / "far.dg"
    src.write_text(f"mode translate\nshape 1\n0 1 1 closed\npoints 2\n0 0\n{10 ** 400} 0\n")
    sfile = tmp_path / "g.svg"
    assert main(["build", "--input", str(src), "--svg", str(sfile)]) == 0
    assert capsys.readouterr().out == "0 1\n"
    svg = sfile.read_text()
    assert "<svg" in svg and f'cx="{10 ** 400}.000000"' in svg


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


@pytest.fixture
def homothet_witness_fails():
    """Runs a test body once per way a homothet build can fail: its
    witness re-check fails, or the leaf of its first pair re-solves empty
    (lam <= 0 < lam).  Each must end as a witness violation."""
    build, search = cli.build_graph, builder.first_leaf

    def failing(points, shape, mode):
        if mode == HOMOTHET:
            raise WitnessVerificationError("witness re-check failed")
        return build(points, shape, mode)

    def empty_leaf(dim, cell, levels):
        if dim == 3:
            return (region.constraint((0, 0, 1), 0), POSITIVE_SCALE)
        return search(dim, cell, levels)

    def variants():
        for module, name, stub in ((cli, "build_graph", failing),
                                   (builder, "first_leaf", empty_leaf)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(module, name, stub)
                yield name

    return variants


def _dumped(out):
    """The kind line and the instance of the one violation in ``out``."""
    kind = next(line for line in out.splitlines() if line.startswith("VIOLATION"))
    text = out.split("--- instance ---\n", 1)[1].split("--- end instance ---", 1)[0]
    return kind, parse_instance(text)


def test_fuzz_names_the_mode_of_a_witness_failure(capsys, homothet_witness_fails):
    for _ in homothet_witness_fails():
        assert main(["fuzz", "--trials", "1", "--seed", "7"]) == 2
        out = capsys.readouterr().out
        kind, inst = _dumped(out)
        assert kind == "VIOLATION witness-homothet" and inst.mode == HOMOTHET
        assert out.endswith("violations=1\n")


def test_verify_names_the_mode_of_a_witness_failure(capsys, good_file,
                                                    homothet_witness_fails):
    for _ in homothet_witness_fails():
        assert main(["verify", "--input", good_file]) == 2
        kind, inst = _dumped(capsys.readouterr().out)
        assert kind == "VIOLATION witness-homothet" and inst.mode == HOMOTHET


def test_build_reports_a_witness_failure(capsys, good_file, homothet_witness_fails):
    for _ in homothet_witness_fails():
        assert main(["build", "--input", good_file]) == 2
        kind, inst = _dumped(capsys.readouterr().out)
        assert kind == "VIOLATION witness-homothet" and inst.mode == HOMOTHET


def test_triangulate_check_reports_a_witness_failure(capsys, homothet_witness_fails):
    for _ in homothet_witness_fails():
        assert main(["triangulate-check", "--trials", "1", "--seed", "1"]) == 2
        out = capsys.readouterr().out
        kind, inst = _dumped(out)
        assert kind == "VIOLATION witness-homothet" and inst.mode == HOMOTHET
        assert out.endswith("applicable=0 matches=0 miss-excused=0 miss-unexplained=0\n")


@pytest.fixture
def homothet_not_plane(monkeypatch):
    verify = cli.verify_plane

    def crossing(g):
        if g.mode == HOMOTHET:
            return PlanarityReport((), (((0, 1), (2, 3)),))
        return verify(g)

    monkeypatch.setattr(cli, "verify_plane", crossing)


def test_verify_reports_a_plane_violation(capsys, good_file, homothet_not_plane):
    assert main(["verify", "--input", good_file]) == 2
    out = capsys.readouterr().out
    kind, inst = _dumped(out)
    assert kind == "VIOLATION plane-homothet" and inst.mode == HOMOTHET
    assert "condition2=[((0, 1), (2, 3))]" in out
    assert out.splitlines()[0] == "plane translate ok edges=0"
    assert out.endswith("subset ok\n")


def test_fuzz_reports_a_plane_violation(capsys, homothet_not_plane):
    assert main(["fuzz", "--trials", "1", "--seed", "7"]) == 2
    out = capsys.readouterr().out
    kind, inst = _dumped(out)
    assert kind == "VIOLATION plane-homothet" and inst.mode == HOMOTHET
    assert out.endswith("violations=1\n")


@pytest.fixture
def not_a_subgraph(monkeypatch):
    monkeypatch.setattr(cli, "is_subgraph", lambda g1, g2: False)


def test_verify_reports_a_subset_violation(capsys, good_file, not_a_subgraph):
    assert main(["verify", "--input", good_file]) == 2
    out = capsys.readouterr().out
    kind, _ = _dumped(out)
    assert kind == "VIOLATION subset"
    assert out.startswith("plane translate ok edges=0\nplane homothet ok edges=4\n")


def test_fuzz_reports_a_subset_violation(capsys, not_a_subgraph):
    assert main(["fuzz", "--trials", "1", "--seed", "7"]) == 2
    out = capsys.readouterr().out
    kind, _ = _dumped(out)
    assert kind == "VIOLATION subset"
    assert out.endswith("violations=1\n")


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

    digits = tmp_path / "digits.dg"  # int() reads these, emit would write ASCII
    digits.write_text("mode translate\nshape \u0661\n1 0 \u0661/\u0662 closed\npoints 0\n",
                      encoding="utf-8")
    assert main(["build", "--input", str(digits)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {digits}: line 2: expected 'shape <count>'"]

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
    (["fuzz", "--trials", "1", "--seed", "-5"], "--seed"),
    (["fuzz", "--trials", "1", "--seed", str(2 ** 64)], "--seed"),
    (["triangulate-check", "--trials", "1", "--seed", "-1"], "--seed"),
    (["triangulate-check", "--trials", "1", "--seed", str(7 + 2 ** 64)], "--seed"),
    (["fuzz", "--trials", "1", "--seed", "x"], "--seed"),
    # counts and seeds are ASCII digits alone, as in instance files
    (["fuzz", "--trials", "\u0661", "--seed", "\u0667"], "--trials"),
    (["fuzz", "--trials", "1_0", "--seed", "1"], "--trials"),
    (["fuzz", "--trials", "1", "--seed", " 7"], "--seed"),
    (["fuzz", "--trials", "+1", "--seed", "1"], "--trials"),
    (["triangulate-check", "--trials", "1", "--seed", "0_8"], "--seed"),
    (["fuzz", "--trials", "1" * 5000, "--seed", "1"], "--trials"),
])
def test_bad_count_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err


def test_seed_range_bounds_are_accepted(capsys):
    assert main(["fuzz", "--trials", "0", "--seed", "0"]) == 0
    assert main(["triangulate-check", "--trials", "0", "--seed", str(2 ** 64 - 1)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, expected", [
    (["fuzz", "--trials", "10", "--seed", "7"],
     "fuzz trials=10 seed=7 max-points=10 max-halfplanes=7 open-fraction=mixed\n"
     "edges translate=22 homothet=38 max-homothet=17\n"
     "degenerate-instances=0/10\n"
     "sampling checked=1 confirmed-translate=1/1 confirmed-homothet=1/1\n"
     "violations=0\n"),
    # one excused miss, so the boundary scan runs
    (["triangulate-check", "--trials", "3", "--seed", "8"],
     "triangulate-check trials=3 seed=8\n"
     "applicable=3 matches=2 miss-excused=1 miss-unexplained=0\n"),
    # one instance with a collinear triple
    (["fuzz", "--trials", "6", "--seed", "6"],
     "fuzz trials=6 seed=6 max-points=10 max-halfplanes=7 open-fraction=mixed\n"
     "edges translate=6 homothet=6 max-homothet=2\n"
     "degenerate-instances=1/6\n"
     "sampling checked=1 confirmed-translate=1/1 confirmed-homothet=1/1\n"
     "violations=0\n"),
])
def test_cli_stdout_is_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_fuzz_small_run_clean(capsys):
    assert main(["fuzz", "--trials", "6", "--seed", "11",
                 "--max-points", "6", "--max-halfplanes", "5"]) == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_fuzz_summary_reproducible():
    s1, v1 = run_fuzz(10, 42, 6, 5, None)
    s2, v2 = run_fuzz(10, 42, 6, 5, None)
    assert s1 == s2 and v1 == v2 and not v1


def _child_env():
    # the child imports the package this test imported, found on PYTHONPATH
    src = str(Path(delgraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_fuzz_cli_reproducible_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "delgraphs.cli", "fuzz", "--trials", "8",
           "--seed", "3", "--max-points", "5", "--max-halfplanes", "4"]
    env = _child_env()
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout  # stderr carries timing, stdout must match


def test_python_dash_m_package_runs_the_cli(good_file):
    r = subprocess.run([sys.executable, "-m", "delgraphs", "build", "--input", good_file],
                       capture_output=True, text=True, env=_child_env())
    assert (r.returncode, r.stdout.splitlines()) == (0, ["0 1", "0 2", "1 3", "2 3"])
    r = subprocess.run([sys.executable, "-m", "delgraphs", "build"],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 1 and "--input" in r.stderr


def test_package_exports_resolve():
    missing = [name for name in delgraphs.__all__ if not hasattr(delgraphs, name)]
    assert missing == []
    assert len(set(delgraphs.__all__)) == len(delgraphs.__all__)


def test_cli_runs_clean_with_warnings_as_errors():
    r = subprocess.run([sys.executable, "-W", "error", "-m", "delgraphs",
                        "triangulate-check", "--trials", "1", "--seed", "8"],
                       capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0, r.stderr


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
    s1, _, _ = run_triangulate_check(5, 21)
    s2, _, _ = run_triangulate_check(5, 21)
    assert s1 == s2
