"""End-to-end command checks are subprocess-based so exit codes and
stream separation are exercised exactly as a shell user sees them; a check
that replaces a kernel with a stub calls cli.main in process instead."""

import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from graphonlab import (
    RandomSource,
    cli,
    constant_graphon,
    empirical_graphon,
    finite_graph,
    make_step_graphon,
    metrics,
)
from graphonlab.cli import (
    MC_TRIALS_LIMIT,
    SAMPLE_LIMIT,
    TRUNC_LIMIT,
    _hash_path,
    main,
)
from graphonlab.formats import read_name_dir, write_graph, write_name_dir, write_step_graphon

FRACTAL3_PGM64_SHA = "ef883c4c1ad70d8dee204c5dca3d15418e02a65212338e35f07ddeb371c867e1"
FRACTAL2_PGM32_SHA = "7590b7d386e6fa1a0296e768bd80b721c00215c4e759331ef9e566bf69074a8f"


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "graphonlab.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_zero_self_distance(tmp_path):
    p = tmp_path / "half.sg"
    write_step_graphon(p, constant_graphon(Fraction(1, 2)))
    r = run("dist", "--metric", "d1", p, p)
    assert r.returncode == 0
    assert r.stdout.startswith("0/1")


def test_edge_density_of_constant(tmp_path):
    g = tmp_path / "k2.g"
    write_graph(g, finite_graph(2, [(0, 1)]))
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))
    r = run("tind", "--graph", g, "--graphon", w)
    assert r.returncode == 0
    assert r.stdout.startswith("1/2")


def test_fractal_construct_and_bracket_metrics(tmp_path):
    f2 = tmp_path / "f2.sg"
    r = run("construct", "fractal", "-d", 2, "--render", f2)
    assert r.returncode == 0
    assert "axis_parts: 8" in r.stdout
    assert "white_measure: 3/8" in r.stdout

    r = run("dist", "--metric", "d1", f2, f2)
    assert r.stdout.startswith("0/1")

    half = tmp_path / "half.sg"
    write_step_graphon(half, constant_graphon(Fraction(1, 2)))
    r = run("dist", "--metric", "deltabound", half, f2)
    assert r.returncode == 0
    assert "lower: 1/32" in r.stdout
    assert "upper: 1/8" in r.stdout

    r = run("dist", "--metric", "dw", "--trunc", 6, half, f2)
    assert "head: 227/2048" in r.stdout
    assert "tail: 1/32" in r.stdout


def test_bad_input_exits_2(tmp_path):
    p = tmp_path / "junk.sg"
    p.write_text("not a graphon\n")
    r = run("dist", "--metric", "d1", p, p)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_undeclared_transform_exits_2(tmp_path):
    d = tmp_path / "n"
    write_name_dir(d, "d1", [constant_graphon(Fraction(1, 2))])
    r = run("name", "transform", "--from", "d1", "--to", "dw",
            "--in", d, "--out", tmp_path / "out")
    assert r.returncode == 2
    assert "no declared transform" in r.stderr


def test_unknown_suite_exits_2():
    r = run("verify", "nosuch")
    assert r.returncode == 2
    assert "unknown suite" in r.stderr


def test_nonconvergent_projection_exits_3(tmp_path):
    # constant 1/2 is maximally random, so the random-free projection
    # can never certify a level and must fail with a certificate error
    d = tmp_path / "n"
    write_name_dir(d, "dsquare", [constant_graphon(Fraction(1, 2))])
    r = run("name", "transform", "--from", "dsquare", "--to", "d1",
            "--in", d, "--out", tmp_path / "out")
    assert r.returncode == 3
    assert r.stderr.startswith("certificate failure:")


def test_weakening_transform_retags(tmp_path):
    d = tmp_path / "n"
    write_name_dir(d, "d1", [constant_graphon(Fraction(1, 4))] * 3)
    out = tmp_path / "out"
    r = run("name", "transform", "--from", "d1", "--to", "dsquare",
            "--in", d, "--out", out)
    assert r.returncode == 0
    assert "wrote 3 elements" in r.stdout
    tag, loaders = read_name_dir(out)
    assert tag == "dsquare" and len(loaders) == 3
    assert loaders[0]() == constant_graphon(Fraction(1, 4))


def test_validate_prints_verdict(tmp_path):
    d = tmp_path / "n"
    write_name_dir(d, "d1", [constant_graphon(Fraction(1, 4))] * 4)
    r = run("name", "validate", "--in", d, "-m", 4)
    assert r.returncode == 0
    assert r.stdout.strip() == "Ok()"


def test_halting_pipeline(tmp_path):
    table = tmp_path / "t.txt"
    table.write_text("0 3\n2 7\n")
    w = tmp_path / "w.sg"
    r = run("construct", "halting", "--table", table, "-E", 3, "-s", 8, "-o", w)
    assert r.returncode == 0
    assert "parts: 64" in r.stdout
    assert "tail_measure: 1/768" in r.stdout

    r = run("spectrum", w)
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 7
    spec = tmp_path / "spec.txt"
    spec.write_text(r.stdout)

    r = run("decode", "--spectrum", spec, "-E", 3)
    assert r.returncode == 0
    assert r.stdout.strip() == "1 3"


def test_questionnaire_streams():
    r = run("questionnaire", "-n", 8, "-Q", 3, "--seed", 0)
    assert r.returncode == 0
    assert "tv_bound: 7/2" in r.stderr
    assert r.stdout.startswith("8\n")
    again = run("questionnaire", "-n", 8, "-Q", 3, "--seed", 0)
    assert again.stdout == r.stdout


def test_sample_determinism(tmp_path):
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))
    a = run("sample", "--graphon", w, "-n", 12, "--seed", 5)
    b = run("sample", "--graphon", w, "-n", 12, "--seed", 5)
    c = run("sample", "--graphon", w, "-n", 12, "--seed", 6)
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_verify_suites_pass():
    for suite in ("metric-chain", "counting-lemma", "halting-roundtrip"):
        r = run("verify", suite)
        assert r.returncode == 0, r.stdout + r.stderr
        assert f"suite {suite}: pass" in r.stdout


def test_manifest_reproducible(tmp_path):
    g = tmp_path / "k2.g"
    write_graph(g, finite_graph(2, [(0, 1)]))
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))
    m = tmp_path / "m.txt"
    run("--manifest", m, "tind", "--graph", g, "--graphon", w)
    l1 = m.read_text().splitlines()
    run("--manifest", m, "tind", "--graph", g, "--graphon", w)
    l2 = m.read_text().splitlines()
    assert l1[0].startswith("command: graphonlab ")
    assert l1[-1].startswith("wall_time_s:")
    # wall time is the only line allowed to differ between reruns
    assert l1[:-1] == l2[:-1]
    assert "result: t_ind = 1/2" in l1


def test_render_pgm_frozen_images(tmp_path):
    w3 = tmp_path / "w3.sg"
    run("construct", "fractal", "-d", 3, "--render", w3)
    out = tmp_path / "w3.pgm"
    r = run("render-pgm", w3, "-r", 64, "-o", out)
    assert r.returncode == 0
    data = out.read_bytes()
    assert len(data) == 4109
    assert hashlib.sha256(data).hexdigest() == FRACTAL3_PGM64_SHA

    w2 = tmp_path / "w2.sg"
    run("construct", "fractal", "-d", 2, "--render", w2)
    out2 = tmp_path / "w2.pgm"
    run("render-pgm", w2, "-r", 32, "-o", out2)
    assert hashlib.sha256(out2.read_bytes()).hexdigest() == FRACTAL2_PGM32_SHA


def test_render_pgm_resolution_limit(tmp_path):
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))
    out = tmp_path / "big.pgm"
    r = run("render-pgm", w, "-r", 4097, "-o", out)
    assert r.returncode == 2
    assert "limit 4096" in r.stderr
    assert not out.exists()
    r = run("render-pgm", w, "-r", 4096, "-o", out)
    assert r.returncode == 0
    assert out.stat().st_size == len(b"P5\n4096 4096\n255\n") + 4096 * 4096


def test_name_dir_rewrite_drops_stale_elements(tmp_path):
    elems = [constant_graphon(Fraction(i, 4)) for i in range(4)]
    d, fresh = tmp_path / "d", tmp_path / "fresh"
    write_name_dir(d, "d1", elems)
    write_name_dir(d, "d1", elems[:2])
    write_name_dir(fresh, "d1", elems[:2])
    names = {"manifest.txt", "elem_000.sg", "elem_001.sg"}
    assert {p.name for p in d.iterdir()} == names
    assert len(read_name_dir(d)[1]) == 2
    assert _hash_path(d) == _hash_path(fresh)


def test_failed_run_still_writes_its_manifest(tmp_path):
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))
    m = tmp_path / "m.txt"
    r = run("--manifest", m, "render-pgm", w, "-r", 4097, "-o", tmp_path / "x.pgm")
    assert r.returncode == 2
    lines = m.read_text().splitlines()
    assert lines[0].startswith("command: graphonlab --manifest")
    assert "error: RenderTooLarge" in lines
    assert lines[-1].startswith("wall_time_s:")


def test_directory_hash_separates_names_from_contents(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "a").write_bytes(b"bc")
    (b / "ab").write_bytes(b"c")
    assert _hash_path(a) != _hash_path(b)


def test_section_transform_refuses_large_alignments_without_exact_cuts(
    tmp_path, monkeypatch, capsys
):
    # empirical elements on 2, 4, 16 and 32 vertices: stage 1 would align
    # the 16- and 32-vertex elements on 32 vertices, past the exact limit
    two_part = make_step_graphon(
        2, [[Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4)]]
    )
    elems = [
        empirical_graphon(two_part, n, RandomSource(n)) for n in (2, 4, 16, 32)
    ]
    src, out = tmp_path / "in", tmp_path / "out"
    write_name_dir(src, "deltasquare", elems)
    kernel = metrics._cut_extrema

    def small_cuts_only(D):
        if D.shape[-1] > metrics.EXACT_LIMIT:
            raise AssertionError(f"exact cut on {D.shape[-1]} parts")
        return kernel(D)

    monkeypatch.setattr(metrics, "_cut_extrema", small_cuts_only)
    code = main(["name", "transform", "--from", "deltasquare", "--to", "dsquare",
                 "--in", str(src), "--out", str(out)])
    assert code == 3
    assert "stage 1 aligns on 32 vertices, exact limit 20" in capsys.readouterr().err


def test_sample_and_mc_sizes_refuse_before_any_draw(tmp_path, monkeypatch, capsys):
    g, w = tmp_path / "k2.g", tmp_path / "half.sg"
    write_graph(g, finite_graph(2, [(0, 1)]))
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))

    def no_draws(*args):
        raise AssertionError("sampler reached")

    monkeypatch.setattr(cli, "sample_graph", no_draws)
    monkeypatch.setattr(cli, "t_ind_mc", no_draws)
    sample = ["sample", "--graphon", str(w), "-n"]
    mc = ["tind", "--graph", str(g), "--graphon", str(w), "--mc"]
    assert main(sample + [str(SAMPLE_LIMIT + 1)]) == 2
    assert main(mc + [str(MC_TRIALS_LIMIT + 1)]) == 2
    err = capsys.readouterr().err
    assert f"{SAMPLE_LIMIT + 1} vertices above the limit {SAMPLE_LIMIT}" in err
    assert f"{MC_TRIALS_LIMIT + 1} trials above the limit" in err
    # the limits themselves reach the sampler
    for argv in (sample + [str(SAMPLE_LIMIT)], mc + [str(MC_TRIALS_LIMIT)]):
        with pytest.raises(AssertionError, match="sampler reached"):
            main(argv)


def test_dw_truncation_refuses_before_any_graph(tmp_path, monkeypatch, capsys):
    w = tmp_path / "half.sg"
    write_step_graphon(w, constant_graphon(Fraction(1, 2)))

    def no_graphs(*args):
        raise AssertionError("truncated metric reached")

    monkeypatch.setattr(cli, "d_w_truncated", no_graphs)
    dw = ["dist", "--metric", "dw", str(w), str(w), "--trunc"]
    assert main(dw + [str(TRUNC_LIMIT + 1)]) == 2
    err = capsys.readouterr().err
    assert f"{TRUNC_LIMIT + 1} terms above the limit {TRUNC_LIMIT}" in err
    # the limit itself reaches the metric, and only dw reads --trunc
    with pytest.raises(AssertionError, match="truncated metric reached"):
        main(dw + [str(TRUNC_LIMIT)])
    huge = ["--trunc", str(TRUNC_LIMIT + 1)]
    assert main(["dist", "--metric", "d1", str(w), str(w)] + huge) == 0
