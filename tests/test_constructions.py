"""Halting encodings, value spectra, and the diagonal-fill fractal."""

import subprocess
import sys
from fractions import Fraction

import pytest

from graphonlab import (
    HaltingTable,
    MatchingReport,
    RandomSource,
    SpectrumEntry,
    blow_up,
    constant_graphon,
    d_square,
    decode_halting,
    direct_sum,
    finite_graph,
    fractal_stage,
    fractal_white_limit,
    graphon_of_graph,
    halting_chain_certificate,
    halting_graphon,
    halting_tail_measure,
    level_constants,
    prop46_gadget,
    rectangle_bound_probe,
    render_dense,
    twin_parts,
    value_spectrum,
    verify_diagonal_matching,
)
from graphonlab import constructions
from graphonlab.errors import (
    BlockLimitExceeded,
    CertificateError,
    InputError,
    MalformedSpectrum,
    RenderTooLarge,
)

F = Fraction
DEMO = HaltingTable({0: 3, 2: 7})


def test_level_constants_pinned():
    assert level_constants(0) == (F(1, 2), F(5, 8), F(3, 4))
    assert level_constants(1) == (F(7, 8), F(29, 32), F(15, 16))
    assert level_constants(2) == (F(31, 32), F(125, 128), F(63, 64))
    for e in range(6):
        left, mid, right = level_constants(e)
        assert 0 < left < mid < right < 1


def test_gadget_freezes_at_the_halt_step():
    table = HaltingTable({3: 4})
    assert prop46_gadget(3, table, 2).values[0][0] == F(1, 4)
    assert prop46_gadget(3, table, 4).values[0][0] == F(1, 16)
    assert prop46_gadget(3, table, 9).values[0][0] == F(1, 16)
    assert prop46_gadget(0, table, 9).values[0][0] == F(1, 512)
    assert table.halted_by(3, 4) and not table.halted_by(3, 3)
    assert not table.halted_by(0, 100)
    with pytest.raises(InputError):
        prop46_gadget(3, table, -1)


def test_halting_graphon_geometry():
    W = halting_graphon(DEMO, 3, 8, 2)
    assert W.k == 64
    # mass lives on the diagonal blocks only
    assert W.values[0][63] == 0 and W.values[40][10] == 0
    with pytest.raises(BlockLimitExceeded):
        halting_graphon(DEMO, 7, 1, 1)
    with pytest.raises(InputError):
        halting_graphon(DEMO, -1, 1, 1)
    with pytest.raises(InputError):
        halting_graphon(DEMO, 1, -1, 1)


def test_value_spectrum_pinned_for_the_demo_table():
    spectrum = value_spectrum(halting_graphon(DEMO, 3, 8, 2))
    assert spectrum == [
        SpectrumEntry(F(0), F(171, 256)),
        SpectrumEntry(F(1, 2), F(3, 32)),
        SpectrumEntry(F(3, 4), F(5, 32)),
        SpectrumEntry(F(29, 32), F(1, 16)),
        SpectrumEntry(F(31, 32), F(3, 512)),
        SpectrumEntry(F(63, 64), F(5, 512)),
        SpectrumEntry(F(509, 512), F(1, 256)),
    ]
    assert sum(e.mass for e in spectrum) == 1


def test_decode_roundtrip_and_malformed_spectra():
    assert decode_halting(value_spectrum(halting_graphon(DEMO, 3, 8, 2)), 3) == {1, 3}
    all_halted = HaltingTable({0: 1, 1: 1, 2: 1, 3: 1})
    assert decode_halting(value_spectrum(halting_graphon(all_halted, 3, 8, 2)), 3) == set()
    with pytest.raises(MalformedSpectrum):
        decode_halting([SpectrumEntry(F(3, 2), F(1, 2))], 1)
    with pytest.raises(MalformedSpectrum):
        decode_halting([SpectrumEntry(F(1, 2), F(0))], 1)
    with pytest.raises(MalformedSpectrum):
        decode_halting(
            [SpectrumEntry(F(1, 2), F(1, 2)), SpectrumEntry(F(1, 2), F(1, 4))], 1
        )
    with pytest.raises(MalformedSpectrum):
        decode_halting(
            [SpectrumEntry(F(1, 2), F(3, 4)), SpectrumEntry(F(1, 4), F(1, 2))], 1
        )


def test_chain_certificate_equals_exact_cut_distance():
    table = HaltingTable({0: 2})
    for s in range(5):
        a = halting_graphon(table, 1, s, 1)
        b = halting_graphon(table, 1, s + 1, 1)
        assert halting_chain_certificate(table, 1, s, 1) == d_square(a, b)


def test_tail_measure_matches_the_geometric_series():
    for E in range(4):
        partial = sum(F(1, 4 ** (n + 1)) for n in range(E + 1, E + 60))
        tail = halting_tail_measure(E)
        assert partial < tail < partial + F(1, 4 ** (E + 59))


def test_fractal_stage_digits_and_blackness():
    stage = fractal_stage(3)
    assert stage.axis_parts == 64
    digits = stage.axis_digits(0b1_10_011)
    assert digits == (1, 2, 3)
    with pytest.raises(InputError):
        stage.axis_digits(64)
    assert stage.is_black((1, 2, 3), (1, 0, 0))
    assert not stage.is_black((1, 2, 3), (0, 3, 2))
    with pytest.raises(InputError):
        fractal_stage(0)


def test_render_dense_small_patterns():
    W1 = render_dense(fractal_stage(1))
    assert [list(r) for r in W1.values] == [[1, 0], [0, 1]]
    W2 = render_dense(fractal_stage(2))
    assert W2.k == 8
    # white measure thins by (1 - 2**-m) per stage
    for d in (1, 2, 3, 4):
        W = render_dense(fractal_stage(d))
        white = sum(1 for row in W.values for v in row if v == 0)
        assert F(white, W.k * W.k) == fractal_stage(d).white_measure()
    with pytest.raises(RenderTooLarge):
        render_dense(fractal_stage(5))


def test_white_limit_encloses_the_product_oracle():
    lo, hi = fractal_white_limit(F(1, 10 ** 6))
    assert hi - lo <= F(1, 10 ** 6)
    w60 = F(1)
    for n in range(1, 61):
        w60 *= 1 - F(1, 2 ** n)
    assert max(lo, w60 * (1 - F(1, 2 ** 60))) <= min(hi, w60)
    with pytest.raises(InputError):
        fractal_white_limit(0)


def test_white_limit_width_check_raises(monkeypatch):
    # a too-wide exponential bracket must fail the enclosure certificate
    monkeypatch.setattr(constructions, "_exp_neg_interval", lambda x, d: (F(0), F(1)))
    with pytest.raises(CertificateError):
        fractal_white_limit(F(1, 10 ** 6))


def test_block_pattern_check_raises(monkeypatch):
    # levels two apart give a pattern cut distance far above 2**-a
    monkeypatch.setattr(constructions, "level_constants", lambda e: (F(0), F(1), F(2)))
    with pytest.raises(CertificateError):
        halting_graphon(DEMO, 1, 1, 2)


_OPTIMIZED_CHECKS = """
import sys
from fractions import Fraction as F
from graphonlab import constructions
from graphonlab.errors import CertificateError

if __debug__:
    sys.exit("assertions are enabled")


def raises(patch, value, call):
    saved = getattr(constructions, patch)
    setattr(constructions, patch, value)
    try:
        call()
    except CertificateError:
        return True
    finally:
        setattr(constructions, patch, saved)
    return False


print(
    raises("_exp_neg_interval", lambda x, d: (F(0), F(1)),
           lambda: constructions.fractal_white_limit(F(1, 10 ** 6))),
    raises("level_constants", lambda e: (F(0), F(1), F(2)),
           lambda: constructions.halting_graphon(
               constructions.HaltingTable({0: 3, 2: 7}), 1, 1, 2)),
)
"""


def test_certificate_checks_survive_optimized_mode():
    # the two fault injections above, rerun under python -O, which strips
    # assert statements
    r = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "True"]


def test_diagonal_matching_walk_and_fault_injection():
    assert verify_diagonal_matching(3) == MatchingReport(True)

    def broken(level, xd, yd):
        return [(0, 0)] * 2 ** level

    report = verify_diagonal_matching(2, pattern=broken)
    assert not report.ok
    assert report.level == 1
    assert "bijection" in report.reason
    with pytest.raises(InputError):
        verify_diagonal_matching(6)


def test_rectangle_probe_stays_under_threshold():
    for d in (1, 2, 3):
        probe = rectangle_bound_probe(d, 20, RandomSource(40 + d))
        assert probe.passed
        assert probe.max_product <= probe.threshold == F(1, 4 ** d)
    with pytest.raises(InputError):
        rectangle_bound_probe(5, 1, RandomSource(1))
    with pytest.raises(InputError):
        rectangle_bound_probe(1, 0, RandomSource(1))


def test_direct_sum_layout():
    S = direct_sum(constant_graphon(F(1, 4)), constant_graphon(F(3, 4)))
    assert S.k == 2
    assert [list(r) for r in S.values] == [[F(1, 4), 0], [0, F(3, 4)]]
    T = direct_sum(constant_graphon(1), graphon_of_graph(finite_graph(2, [(0, 1)])))
    assert T.k == 4
    assert T.values[0][1] == 1 and T.values[2][3] == 1 and T.values[1][2] == 0


def test_twin_parts_detection():
    assert twin_parts(blow_up(constant_graphon(F(1, 2)), 3)) == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]
    P4 = graphon_of_graph(finite_graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert twin_parts(P4) == []
