import json
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from harmap import (
    HarmonicMap,
    MapStack,
    coeff_from_contour,
    derivatives,
    directional_derivative_max,
    is_sense_preserving,
    load_map,
    map_json_bytes,
    qc_constant,
    save_map,
    wirtinger,
)

from conftest import (
    AFFINE_HALF,
    FOLD,
    IDENTITY,
    MIXED,
    SQUARE,
    disk_points,
    harmonic_maps,
)


def eval_termwise(f, z):
    """Independent term-by-term summation oracle for map evaluation."""
    total = 0j
    for n, an in enumerate(f.a):
        total += an * z**n
    for n, bn in enumerate(f.b, start=1):
        total += bn.conjugate() * z.conjugate() ** n
    return total


# -- construction -------------------------------------------------------------


def test_constructor_validates_shapes():
    with pytest.raises(ValueError):
        HarmonicMap(a=(1.0,), b=())
    with pytest.raises(ValueError):
        HarmonicMap(a=(0, 1), b=(0, 0))
    with pytest.raises(ValueError):
        HarmonicMap(a=(0, float("nan")), b=(0,))
    with pytest.raises(ValueError):
        HarmonicMap(a=(0, 1), b=(complex(float("inf"), 0),))


def test_map_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_map(MIXED, path)
    first = path.read_bytes()
    g = load_map(path)
    assert g == MIXED
    save_map(g, path)
    assert path.read_bytes() == first


def test_map_json_shape():
    obj = json.loads(map_json_bytes(AFFINE_HALF))
    assert obj == {"a": [[0.0, 0.0], [1.0, 0.0]], "b": [[0.5, 0.0]]}


# -- evaluation ---------------------------------------------------------------


def test_eval_identity():
    assert IDENTITY(0.5j) == 0.5j


def test_eval_affine_on_boundary():
    assert AFFINE_HALF(1.0 + 0j) == pytest.approx(1.5)


def test_eval_mixed_hand_value():
    assert MIXED(0.5 + 0j) == pytest.approx(0.575, abs=1e-15)
    assert MIXED(0.5 + 0j) == pytest.approx(eval_termwise(MIXED, 0.5 + 0j), abs=1e-15)


@given(harmonic_maps(), disk_points())
def test_eval_matches_termwise_oracle(f, z):
    assert f(z) == pytest.approx(eval_termwise(f, z), abs=1e-12)


def test_eval_rejects_nonfinite():
    with pytest.raises(ValueError):
        IDENTITY(complex(float("nan"), 0))
    with pytest.raises(ValueError):
        wirtinger(IDENTITY, complex(0, float("inf")))


def test_eval_vectorized():
    z = np.array([0.1, 0.2j, -0.3 + 0.1j])
    out = MIXED(z)
    assert out.shape == (3,)
    assert out[2] == pytest.approx(eval_termwise(MIXED, complex(z[2])))


# -- derivatives --------------------------------------------------------------


def test_derivatives_affine_constant():
    for z in (0j, 0.3 + 0.1j, -0.6j):
        d = derivatives(AFFINE_HALF, z)
        assert d.max_stretch == pytest.approx(1.5)
        assert d.min_stretch == pytest.approx(0.5)
        assert d.jacobian == pytest.approx(0.75)
        assert d.dilatation_modulus == pytest.approx(0.5)


def test_derivatives_identity():
    d = derivatives(IDENTITY, 0.2 - 0.4j)
    assert d.max_stretch == d.min_stretch == d.jacobian == 1.0
    assert d.dilatation_modulus == 0.0


def test_derivatives_square_fd_crosscheck():
    sq = HarmonicMap(a=(0, 0, 1), b=(0, 0))
    d = derivatives(sq, 0.5 + 0j)
    assert abs(d.fz) == pytest.approx(1.0)
    assert d.fzbar == 0
    assert d.jacobian == pytest.approx(1.0)
    h = 1e-6
    fd = (sq(0.5 + h) - sq(0.5 - h)) / (2 * h)
    assert fd == pytest.approx(d.fz, abs=1e-8)


def test_dilatation_undefined_at_zero_derivative():
    sq = HarmonicMap(a=(0, 0, 1), b=(0, 0))
    assert derivatives(sq, 0j).dilatation_modulus is None


@given(harmonic_maps(), disk_points())
def test_stretch_jacobian_identity(f, z):
    d = derivatives(f, z)
    assert d.max_stretch >= d.min_stretch >= 0.0
    scale = max(1.0, d.max_stretch**2)
    assert d.max_stretch * d.min_stretch == pytest.approx(abs(d.jacobian), abs=1e-12 * scale)


@given(harmonic_maps(), disk_points())
def test_derivatives_match_finite_differences(f, z):
    h = 1e-6
    fx = (f(z + h) - f(z - h)) / (2 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    fz, fzbar = wirtinger(f, z)
    assert abs((fx - 1j * fy) / 2 - fz) <= 1e-7 * (1 + abs(fz))
    assert abs((fx + 1j * fy) / 2 - fzbar) <= 1e-7 * (1 + abs(fzbar))


# -- sense preservation and distortion ----------------------------------------


def test_sense_preserving_cases():
    assert is_sense_preserving(IDENTITY).ok
    assert is_sense_preserving(IDENTITY).min_jacobian == pytest.approx(1.0)
    sp = is_sense_preserving(AFFINE_HALF)
    assert sp.ok and sp.min_jacobian == pytest.approx(0.75)
    sp = is_sense_preserving(FOLD)
    assert not sp.ok
    assert sp.min_jacobian == pytest.approx(0.0, abs=1e-15)


def test_qc_constant_cases():
    assert qc_constant(IDENTITY) == pytest.approx(1.0)
    assert qc_constant(AFFINE_HALF) == pytest.approx(3.0, abs=1e-12)
    assert qc_constant(FOLD) == math.inf


def test_qc_constant_sense_reversing_rejected():
    anti = HarmonicMap(a=(0, 0), b=(1.0,))  # conj(z)
    assert qc_constant(anti) == math.inf
    assert not is_sense_preserving(anti).ok


@pytest.mark.parametrize("c", [1.0, 1e-13, 1e-20])
def test_qc_constant_is_scale_free(c):
    from harmap import verify_coeff_bound, verify_hardy_area

    f = AFFINE_HALF.scaled(c)  # c (z + conj(z) / 2)
    assert qc_constant(f) == pytest.approx(3.0, rel=1e-12, abs=0.0)
    if c == 1e-20:
        assert verify_hardy_area(f).status == "pass"
        assert all(rep.status == "pass" for rep in verify_coeff_bound(f))


def test_sense_and_k_follow_one_rule_where_their_roundings_disagree():
    # |a_1| and |b_1| agree to 16 digits: |f_z|^2 - |f_zbar|^2 rounds
    # positive while |f_z| - |f_zbar| is far below 1e-14 Lambda, so the map is
    # sense-preserving on the grid with an unbounded K.
    f = HarmonicMap(a=(0, complex(-340.5365670018157, 576.8574068568087)),
                    b=(complex(-433.22418163072047, 510.9270297814907),))
    assert is_sense_preserving(f).ok
    assert qc_constant(f) == math.inf


# -- contour recovery ----------------------------------------------------------


def test_contour_identity():
    a1, b1 = coeff_from_contour(IDENTITY, 1, 0.5, 256)
    assert abs(a1 - 1) <= 1e-12
    assert abs(b1) <= 1e-12


def test_contour_affine():
    a1, b1 = coeff_from_contour(AFFINE_HALF, 1, 0.5, 256)
    assert abs(a1 - 1) <= 1e-12
    assert abs(b1 - 0.5) <= 1e-12


def test_contour_rejects_small_node_count():
    with pytest.raises(ValueError):
        coeff_from_contour(MIXED, 1, 0.5, 4 * MIXED.degree - 1)
    with pytest.raises(ValueError):
        coeff_from_contour(MIXED, 0, 0.5, 64)
    with pytest.raises(ValueError):
        coeff_from_contour(MIXED, 1, 1.0, 64)


def _random_map(rng, degree):
    return HarmonicMap(a=tuple(rng.standard_normal((degree + 1, 2)) @ [1, 1j]),
                       b=tuple(rng.standard_normal((degree, 2)) @ [1, 1j]))


def test_contour_recovers_every_coefficient_within_the_query_tolerance():
    # Degrees 1-64 at 4N nodes: a_n and b_n within the benchmark's tolerance
    # 64 eps max|coefficient| r^-(n-1), the FFT's rounding scaled back up.
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for degree in range(1, 65):
        f = _random_map(rng, degree)
        scale = max(abs(v) for v in f.a + f.b)
        for r in (0.3, 0.7, 0.9, 0.99):
            for n in range(1, degree + 1):
                an, bn = coeff_from_contour(f, n, r, 4 * degree)
                tol = 64 * eps * scale * r ** -(n - 1)
                assert abs(an - f.a[n]) <= tol and abs(bn - f.b[n - 1]) <= tol, (degree, r, n)


def test_contour_ring_is_read_once_and_never_stale(monkeypatch):
    # Calls that alternate maps, radii and node counts each read their own
    # ring; a loop over n on one ring evaluates it once; the kept
    # coefficients are read-only, and the refusals still come first.
    import harmap.core as core

    rng = np.random.default_rng(5)
    maps = [_random_map(rng, 6), _random_map(rng, 6), _random_map(rng, 3)]
    want = {}
    for f in maps:
        for r in (0.4, 0.8):
            for m in (32, 40):
                want[f, r, m] = [coeff_from_contour(f, n, r, m) for n in range(1, f.degree + 1)]
    rings = []
    ring_fields = core._ring_fields
    monkeypatch.setattr(core, "_ring_fields", lambda *args: rings.append(args) or ring_fields(*args))
    for (f, r, m), values in want.items():
        assert [coeff_from_contour(f, n, r, m) for n in range(1, f.degree + 1)] == values
    assert len(rings) == len(want)
    for (f, r, m), values in reversed(want.items()):
        for n in range(1, f.degree + 1):
            assert coeff_from_contour(f, n, r, m) == values[n - 1]
            assert coeff_from_contour(maps[0], 1, 0.4, 32) == want[maps[0], 0.4, 32][0]
    _, a_ring, b_ring = core._CONTOUR
    for ring in (a_ring, b_ring):
        with pytest.raises(ValueError):
            ring[0] = 0.0
    f = maps[0]
    coeff_from_contour(f, 1, 0.4, 32)
    for n, r, m in ((0, 0.4, 32), (7, 0.4, 32), (1, 1.0, 32), (1, 0.4, 23)):
        with pytest.raises(ValueError):
            coeff_from_contour(f, n, r, m)


@pytest.mark.parametrize(
    "degree, n_ang",
    [(32, 256), (100, 16), (32, 33), (32, 34)],
    ids=["degree-32", "fold", "n-equals-L", "n-equals-L-plus-1"],
)
def test_ring_kernel_matches_horner(degree, n_ang):
    # The FFT ring kernel against Horner on the same polar tensor grid,
    # within 64 eps of each ring's sum of |c_k| r^k.
    from harmap.core import _horner, _on_rings

    rng = np.random.default_rng(degree + n_ang)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    rs = np.array([0.0, 0.3, 0.9, 1.0 - 2.0**-10, 1.0 - 2.0**-20])
    theta = np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False)
    want = _horner(c, rs[:, None] * np.exp(1j * theta))
    got = _on_rings(c, rs, n_ang)
    scale = (np.abs(c) * rs[:, None] ** np.arange(degree + 1)).sum(axis=1)
    assert got.shape == (len(rs), n_ang)
    assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * scale[:, None])


def _horner_out_of_place(c, z):
    """The reference recurrence out = c_k + out * z, a new array per step."""
    c = c.reshape(c.shape + (1,) * (z.ndim - c.ndim + 1))
    out = c[-1] + z * 0
    for k in range(len(c) - 2, -1, -1):
        out = c[k] + out * z
    return out


def _same_bits(got, want):
    if np.shape(got) != np.shape(want):
        return False
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return np.array_equal(got.view(float), want.view(float))


def test_horner_in_place_keeps_the_out_of_place_bits():
    # _horner steps one buffer in place; each step must round exactly as the
    # out-of-place recurrence does, on every shape the package evaluates.
    from harmap.core import _horner
    from harmap.grids import GRID

    rng = np.random.default_rng(15)
    points = 0.999 * np.sqrt(rng.random(1001)) * np.exp(2j * np.pi * rng.random(1001))
    points[0] = 0.0  # the origin
    for degree in range(1, 65):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        for z in (points, GRID.nodes, np.zeros(3, dtype=complex),
                  *(points[size : 2 * size] for size in range(1, 9))):
            assert _same_bits(_horner(c, z), _horner_out_of_place(c, z)), (degree, z.size)
        for z0 in (0j, complex(points[1])):
            got = _horner(c, np.asarray(z0))
            assert np.ndim(got) == 0 and _same_bits(got, _horner_out_of_place(c, np.asarray(z0)))
    # (L, P) stacks of maps of unequal degree, so most columns are zero-padded
    maps = [HarmonicMap(a=rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1),
                        b=rng.standard_normal(d) + 1j * rng.standard_normal(d))
            for d in (1, 2, 5, 17, 64)]
    stack = MapStack(maps)
    for z in (np.broadcast_to(points[:127], (5, 127)), np.broadcast_to(GRID.nodes, (5, 64, 256))):
        for c in (stack._da, stack._db):
            assert _same_bits(_horner(c, z), _horner_out_of_place(c, z))


@given(harmonic_maps(max_degree=8), st.floats(0.3, 0.9))
def test_contour_round_trips_all_coefficients(f, r):
    m = 8 * f.degree
    for n in range(1, f.degree + 1):
        an, bn = coeff_from_contour(f, n, r, m)
        assert abs(an - f.a[n]) <= 1e-10
        assert abs(bn - f.b[n - 1]) <= 1e-10


# -- directional derivative identity -------------------------------------------


@given(harmonic_maps(), disk_points())
def test_directional_max_equals_max_stretch(f, z):
    d = derivatives(f, z)
    assert directional_derivative_max(f, z) == pytest.approx(d.max_stretch, abs=1e-6)


def test_direction_table_is_shared_and_read_only():
    from harmap.core import _directions

    c, s = _directions()
    assert _directions()[0] is c and _directions()[1] is s
    with pytest.raises(ValueError):
        c[0] = 2.0
    with pytest.raises(ValueError):
        s[0] = 2.0


def test_wirtinger_on_a_stack_matches_each_map_bit_for_bit(small_corpus):
    # Degrees 1, 2 and 6 in one stack: the short rows are zero-padded.
    maps = [IDENTITY, SQUARE, MIXED, *small_corpus[:5]]
    stack = MapStack(maps)
    ring = 0.9 * np.exp(2j * np.pi * np.arange(96) / 96)
    z = np.linspace(0.1, 1.0, len(maps))[:, None] * ring[None, :]  # one radius a map
    fz, fzbar = wirtinger(stack, z)
    for p, f in enumerate(maps):
        ref = wirtinger(f, z[p])
        assert np.array_equal(fz[p], ref[0]) and np.array_equal(fzbar[p], ref[1])


def test_no_public_function_takes_a_discretisation_parameter():
    # The grid, the probe disks, the pair samples and the direction counts
    # are fixed: no public function may take one of them back as a parameter.
    import inspect

    from harmap import core, functionals, lipschitz, verify

    knobs = {"grid", "probes", "n_theta", "step", "r_cap"}
    for mod in (core, functionals, lipschitz, verify):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not inspect.isclass(obj):
                taken = knobs & set(inspect.signature(obj).parameters)
                assert not taken, f"{mod.__name__}.{name} takes {sorted(taken)}"
