import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wwrfva.bounds import (_BOUND_ORDERS, _EPS1_ORDER, TAIL_CLIP, X_CHOICES,
                           _credit_moments_at, _cv_bound, _empty_table, _measured_errors,
                           _normal_distances, _plotting_positions, _quantile,
                           _tail_terms, bound_report, bound_rows, c1_const,
                           c2_const, c4_const, credit_moment_table,
                           explicit_e1_bound, swap_cv_bound,
                           tail_envelope_constant, truncation_bound,
                           write_bounds_csv)
from wwrfva.exposure import base_moments, coeffs_for_dates
from wwrfva.fva import build_correlation_for, build_model_set
from wwrfva.instruments import PortfolioValuation, value_matrix
from wwrfva.mc import PathStream, SimGrid, simulate
from wwrfva.models import cir_terms, domestic_terms


@pytest.fixture(scope="module")
def rig(request):
    """Small full-mode rig shared by the bound tests."""
    from wwrfva.fva import load_run_config
    from conftest import fixture_path
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    grid = SimGrid.regular(4, 30.0, 2)
    full = simulate(models, corr, grid, 20000, 1, "full")
    vm = value_matrix(inputs.portfolio, models, full)
    tab = credit_moment_table(full)
    coeffs = coeffs_for_dates(models, corr, full.dates, 5)
    bm = base_moments(full, inputs.portfolio, models, 5, value_mat=vm)
    return inputs, models, corr, full, vm, tab, coeffs, bm


# ---------------------------------------------------------------------------
# the exposure-square bound

def test_cv_dominates_static_square(rig):
    inputs, models, *_ = rig
    s = inputs.portfolio.single_swap
    from conftest import static_portfolio_value
    v0 = static_portfolio_value(inputs.portfolio, models)
    # at u -> 0 the value is deterministic, so C_V >= V(0)^2
    assert swap_cv_bound(s, models, 1e-6) >= v0 * v0 * (1.0 - 1e-9)


def test_cv_dominates_empirical_square(rig):
    inputs, models, corr, full, vm, *_ = rig
    s = inputs.portfolio.single_swap
    # skip the last few dates: with one live payment Cauchy-Schwarz is an
    # equality and pure MC noise can cross the bound at this path count
    for i in range(1, len(full.dates) - 4, 7):
        emp = float(np.mean(np.maximum(vm[i], 0.0) ** 2))
        cv = swap_cv_bound(s, models, float(full.dates[i]))
        assert emp <= cv * (1.0 + 1e-9), i


def test_cv_collapses_with_vanishing_vol(rig):
    inputs, models, *_ = rig
    s = inputs.portfolio.single_swap
    from wwrfva.instruments import book_value, swap_book
    tiny = dataclasses.replace(models.rates["EUR"], sigma=1e-12)
    models2 = dataclasses.replace(models, rates={"EUR": tiny})
    # one live payment left: the Cauchy-Schwarz step is an equality, so
    # the bound collapses exactly onto the deterministic squared value
    u = 29.5
    det = book_value(*swap_book(s, tiny, [u]).at(0), 0.0)
    assert swap_cv_bound(s, models2, u) == pytest.approx(det * det, rel=1e-6)


def test_cv_bound_reads_inf_only_past_a_double_where_its_exponentials_overflow():
    # at a reversion of -0.3, exp(2 B^2 Var y) overflows at every date; the
    # swap's weights mix signs and zeros, so the direct sums met inf - inf
    # and 0 * inf and the bound read nan, also where it is below 1e8
    from wwrfva.fva import load_run_config
    from wwrfva.instruments import swap_book
    from wwrfva.models import hw_terms
    from conftest import fixture_path
    inputs, _ = load_run_config(fixture_path("single_swap.cfg"))
    inputs.rate_params["EUR"]["a"] = -0.3
    rp = build_model_set(inputs).rates["EUR"]
    dates = np.arange(1.0, 31.0)
    book = swap_book(inputs.portfolio.single_swap, rp, dates)
    var = hw_terms(rp, 0.0, dates).var_y
    with mpmath.workprec(200):
        def cv(const, W, B, v):
            c, v = mpmath.mpf(const), mpmath.mpf(v)
            ws, bs = [mpmath.mpf(w) for w in W], [mpmath.mpf(b) for b in B]
            return (c * c + 2 * c * mpmath.fsum(w * mpmath.exp(b * b * v / 2)
                                                for w, b in zip(ws, bs))
                    + len(ws) * mpmath.fsum(w * w * mpmath.exp(2 * b * b * v)
                                            for w, b in zip(ws, bs)))
        kinds = set()
        for k in range(len(dates)):
            row = book.at(k)
            got, want = _cv_bound(*row, var[k]), cv(*row, var[k])
            if want > np.finfo(float).max:
                assert got == math.inf, k
                kinds.add("inf")
            else:
                assert got == pytest.approx(float(want), rel=1e-12), k
                kinds.add("finite")
    assert kinds == {"inf", "finite"}
    # where the direct form is finite, the bound is that form, bit for bit
    const, W, B = book.at(len(dates) - 1)
    v = var[-1]
    assert _cv_bound(const, W, B, v) == float(
        const * const + 2.0 * const * float(np.sum(W * np.exp(0.5 * B ** 2 * v)))
        + len(W) * float(np.sum(W ** 2 * np.exp(2.0 * B ** 2 * v))))


# ---------------------------------------------------------------------------
# moment table and constants

def test_moment_table_guards(rig):
    inputs, models, corr, full, *_ = rig
    base = simulate(models, corr, SimGrid.regular(2, 2.0, 1), 2000, 1, "base")
    with pytest.raises(ValueError):
        credit_moment_table(base)
    small = simulate(models, corr, SimGrid.regular(2, 2.0, 1), 500, 1, "full")
    with pytest.raises(ValueError):
        credit_moment_table(small)
    # E[S^4] is read off the S row
    with pytest.raises(ValueError, match="at least 4"):
        credit_moment_table(full, max_order=3)


def test_moment_table_basics(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    i = 20
    assert tab.S[0, i] == 1.0
    # centered drivers: first moments vanish to MC noise
    assert abs(tab.S[1, i]) < 5.0 * math.sqrt(tab.S[2, i] / tab.n_paths)
    assert abs(tab.y_I[1, i]) < 5.0 * math.sqrt(tab.y_I[2, i] / tab.n_paths)
    # even moments positive
    assert tab.S[2, i] > 0.0
    assert tab.S[4, i] > 0.0
    assert tab.q_abs_s[i] > 0.0


def test_c1_equality_at_unit_weight(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    from wwrfva.models import hw_terms
    i = 12
    var = hw_terms(models.rates["EUR"], 0.0, float(full.dates[i])).var_Y
    assert c1_const(3, "1", var, tab, i) == pytest.approx(
        math.exp(0.5 * 9 * var), rel=1e-14)
    # weighted version is finite and positive
    assert c1_const(2, "y_I", var, tab, i) > 0.0
    with pytest.raises(ValueError):
        c1_const(5, "y_I", var, tab, i)  # needs y_I moments beyond order 8


@pytest.mark.parametrize("m, var", [(2, 0.3), (4, 0.3), (4, 22.0), (4, 30.0), (4, 45.0),
                                    (4, 60.0), (2, 180.0), (2, 200.0)])
def test_c1_is_finite_wherever_the_bound_is(rig, m, var):
    # e^{2 m^2 Var Y_r} overflowed from Var Y_r of about 22 at m = 4, and
    # the bounds verb failed with "OverflowError: math range error"; the
    # bound e^{m^2 V} sqrt(1 - e^{-m^2 V}) spread + e^{m^2 V / 2} E[y_I^m]
    # stays finite until e^{m^2 V} times the spread exceeds a double, past
    # the overflow of e^{m^2 V} alone (at m^2 V = 720)
    *_, tab, coeffs, bm = rig
    i = 12
    a = mpmath.mpf(m * m * var)
    ex_m, ex_2m = (mpmath.mpf(float(tab.y_I[k, i])) for k in (m, 2 * m))
    want = (mpmath.sqrt(mpmath.exp(2 * a) - mpmath.exp(a)) * mpmath.sqrt(ex_2m - ex_m ** 2)
            + mpmath.exp(a / 2) * ex_m)
    got = c1_const(m, "y_I", var, tab, i)
    if want > mpmath.mpf(np.finfo(float).max):
        assert got == math.inf
    else:
        assert math.isfinite(got)
        assert got == pytest.approx(float(want), rel=1e-12)
    assert c1_const(m, "1", var, tab, i) == (math.exp(0.5 * m * m * var)
                                             if 0.5 * m * m * var < 709.0 else math.inf)


def test_c2_even_orders_nonnegative(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    for i in (5, 40, 100):
        for m in (2, 4, 6, 8):
            assert c2_const(m, "1", tab, i) >= 0.0
    with pytest.raises(ValueError):
        c2_const(tab.max_order + 1, "1", tab, 5)


def test_c4_series_converges_small(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    i = 30
    v = c4_const("1", tab, i)
    # leading term is + E[S^2]/2, corrections are factorially damped
    lead = 0.5 * c2_const(2, "1", tab, i)
    assert v == pytest.approx(lead, rel=0.05)
    assert abs(c4_const("y_I", tab, i)) < abs(v)


def test_c4_rejects_an_empty_order_range(rig):
    inputs, models, corr, full, *_ = rig
    # the series starts at S^2
    short = _empty_table(full, 1)
    for x in X_CHOICES:
        with pytest.raises(ValueError):
            c4_const(x, short, 30)


def test_c4_equals_the_exact_tail_mean(rig):
    """c4_const against the path mean of (e^{-S} - 1 + S) x, within 1e-10
    of the series' scale sum_m |E[S^m x]|/m!: the series of the sum's own
    moments is that mean's Taylor series term by term."""
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    for i in (5, 20, 60, 100, len(full.dates) - 1):
        st = full.state(i)
        tail = _tail_terms(st.Y_I + st.Y_C, 2)
        for x, w in (("1", 1.0), ("y_I", st.y_I)):
            exact = float(np.mean(tail * w))
            scale = sum(abs(c2_const(m, x, tab, i)) / math.factorial(m)
                        for m in range(2, tab.max_order + 1))
            assert abs(c4_const(x, tab, i) - exact) <= 1e-10 * scale, (i, x)


def test_moment_table_matches_per_date_means(rig):
    """The date-blocked table against plain per-date means of powers."""
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    last = len(full.dates) - 1
    for i in [*range(1, last, 7), last]:  # a date in every block of the table
        yi = full.y_I[i]
        s = full.Y_I[i] + full.Y_C[i]
        for got, want in (
                (tab.S[:, i], [np.mean(s ** j) for j in range(tab.max_order + 1)]),
                (tab.y_I[:, i], [np.mean(yi ** j) for j in range(9)]),
                ([tab.S2_x[x][i] for x in X_CHOICES],
                 [np.mean(s ** 2), np.mean(yi ** 2 * s ** 2)]),
                ([tab.S4_x[x][i] for x in X_CHOICES],
                 [np.mean(s ** 4), np.mean(yi ** 4 * s ** 4)])):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=str(i))
        # E[S^m y_I] sums terms of both signs, so it is compared within 1e-14
        # of the mean of the terms' magnitudes, the scale of their rounding
        terms = [s ** j * yi for j in range(tab.max_order + 1)]
        err = np.abs(tab.S_yI[:, i] - [np.mean(w) for w in terms])
        assert np.all(err <= 1e-14 * np.array([np.mean(np.abs(w)) for w in terms])), i
        assert tab.q_abs_s[i] == np.quantile(np.abs(s), 1.0 - TAIL_CLIP)
    assert tab.q_abs_s[0] == 0.0


@settings(deadline=None, max_examples=80)
@given(n=st.integers(1000, 100_000),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([1.0 - TAIL_CLIP, 0.99, 0.5]),
       kind=st.sampled_from(["normal", "lognormal", 1, 2, 7, 500]),
       seed=st.integers(0, 2 ** 32 - 1))
# interpolating from the upper order statistic rounds differently here
@example(n=1000, q=1.0 - TAIL_CLIP, kind="lognormal", seed=11)
def test_quantile_equals_numpy_bit_for_bit(n, q, kind, seed):
    # an integer kind is the number of distinct values: ties, up to a
    # constant sample
    rng = np.random.default_rng(seed)
    if kind == "normal":
        a = np.abs(rng.standard_normal(n))
    elif kind == "lognormal":
        a = np.exp(3.0 * rng.standard_normal(n))
    else:
        a = rng.integers(0, kind, n) * 0.37
    want = np.quantile(a, q)
    assert repr(_quantile(a.copy(), q)) == repr(float(want))


def test_tail_envelope():
    assert tail_envelope_constant(0.0) == 1.0
    assert tail_envelope_constant(-1.0) == 1.0
    assert tail_envelope_constant(2.0) == pytest.approx(math.exp(2.0))


# ---------------------------------------------------------------------------
# bounds vs measured errors

def measured(rig, dates, n_r=5):
    """The measured errors of the bound report's rows at the cube's dates
    `dates`: {(i, family, x): value}."""
    inputs, models, corr, full, vm, tab, *_ = rig
    rows = bound_report(inputs.portfolio.single_swap, models, full, vm, n_r,
                        date_indices=dates, orders=(), tab=tab)
    index = {float(full.dates[i]): i for i in dates}
    return {(index[r.date], r.family, r.x): r.measured
            for r in rows if r.measured is not None}


def test_explicit_bound_dominates_measured_eps1(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    meas = measured(rig, [5, 20, 60, 100])
    for i in (5, 20, 60, 100):
        u = float(full.dates[i])
        c_v = swap_cv_bound(s, models, u)
        for x in ("1", "y_I"):
            b = explicit_e1_bound(models, coeffs, c_v, bm.disc_epe[i],
                                  tab, i, x)
            assert meas[i, "eps1", x] <= b, (i, x)


def test_explicit_bound_is_the_eps1_bound_less_the_mean_term(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    for i in (5, 20, 60, 100, len(full.dates) - 1):
        c_v = swap_cv_bound(s, models, float(full.dates[i]))
        for x in X_CHOICES:
            want = (truncation_bound(1, i, models, c_v, "eps1", x, tab)
                    - coeffs.H_IC[i] * bm.disc_epe[i] * c4_const(x, tab, i))
            got = explicit_e1_bound(models, coeffs, c_v, bm.disc_epe[i], tab, i, x)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (i, x)


def test_generic_bounds_dominate_all_families(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    meas = measured(rig, [5, 20, 60, 100])
    for i in (5, 20, 60, 100):
        u = float(full.dates[i])
        c_v = swap_cv_bound(s, models, u)
        assert abs(meas[i, "eps1", "y_I"]) <= truncation_bound(1, i, models, c_v,
                                                               "eps1", "y_I", tab)
        assert abs(meas[i, "eps2", "y_I"]) <= truncation_bound(5, i, models, c_v,
                                                               "eps2", "y_I", tab)
        assert abs(meas[i, "eps3", "y_I"]) <= truncation_bound(5, i, models, c_v,
                                                               "eps3", "y_I", tab)


def test_bound_decreases_factorially_in_order(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    i = 40
    c_v = swap_cv_bound(s, models, float(full.dates[i]))
    vals = [truncation_bound(n, i, models, c_v, "eps3", "y_I", tab)
            for n in range(7)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # super-linear decay once the factorial takes over
    assert vals[6] < 1e-3 * vals[0]


def test_truncation_bound_guards(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    c_v = 1.0
    with pytest.raises(ValueError):
        truncation_bound(1, 5, models, c_v, "eps9", "y_I", tab)
    with pytest.raises(ValueError):
        truncation_bound(1, 5, models, c_v, "eps1", "y_C", tab)
    with pytest.raises(ValueError):
        truncation_bound(1, 0, models, c_v, "eps1", "y_I", tab)
    with pytest.raises(ValueError):
        truncation_bound(6, 5, models, c_v, "eps1", "y_I", tab)  # needs S^28


@pytest.mark.parametrize("start", [1, 2, 4, 6, 8])
def test_tail_terms_match_a_50_digit_reference(start):
    """exp(-z) less its degree start-1 Taylor polynomial, over |z| from 1e-6
    to 3 of both signs and in one array, within 8 ulps of the sum of the
    dropped terms' magnitudes: at |z| 1e-3 and start 6 the subtraction
    from exp(-z) left only rounding."""
    mag = np.geomspace(1e-6, 3.0, 61)
    z = np.concatenate([mag, -mag])
    got = _tail_terms(z, start)
    with mpmath.workdps(50):
        for zi, g in zip(z, got):
            terms = [(-mpmath.mpf(zi)) ** j / mpmath.factorial(j)
                     for j in range(start, start + 60)]
            ref = mpmath.fsum(terms)
            size = mpmath.fsum(abs(t) for t in terms)
            assert abs(g - ref) <= 8 * 2.0 ** -52 * size, (zi, g, ref)


# ---------------------------------------------------------------------------
# normality diagnostics

def test_gaussian_distance_null_calibration(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap

    def distance(cube, i):
        """The report's (cvm, wasserstein) of Y_I at the cube's date i."""
        rows = bound_report(s, models, cube, vm, 5, date_indices=[i], orders=(),
                            tab=tab)
        (row,) = [r for r in rows if r.family == "dist_Y_I"]
        return row.cvm, row.wasserstein

    # self test: an exactly normal sample should sit in the null band
    rng = np.random.default_rng(0)
    i = 40
    sd = math.sqrt(cir_terms(models.credit["I"], 0.0, float(full.dates[i])).var_Y)
    fake = dataclasses.replace(full)
    fake.Y_I = full.Y_I.copy()
    fake.Y_I[i] = rng.normal(0.0, sd, full.n_paths)
    cvm_null, w_null = distance(fake, i)
    assert cvm_null < 0.5  # 95% null quantile is ~0.46
    # the real CIR-integral sample is close to normal too at this date,
    # but detectably less so than the exact draw
    cvm_real, w_real = distance(full, i)
    assert w_real < 0.2 * sd  # close in Wasserstein terms
    # doubling the scale must blow the distance up
    fake.Y_I[i] = rng.normal(0.0, 2.0 * sd, full.n_paths)
    cvm_far, w_far = distance(fake, i)
    assert cvm_far > 10.0 * max(cvm_null, 1e-6)
    assert w_far > 5.0 * w_null


# ---------------------------------------------------------------------------
# report assembly

def test_bound_report_and_csv(tmp_path, rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    rows = bound_report(s, models, full, vm, 5, date_indices=[10, 50],
                        orders=(1, 2), tab=tab)
    fams = {(r.family, r.x, r.n) for r in rows if r.date == float(full.dates[10])}
    assert ("eps1", "1", 1) in fams
    assert ("eps2", "y_I", 5) in fams
    assert ("eps3", "y_I", 1) in fams and ("eps3", "y_I", 2) in fams
    assert ("eps3", "1", 5) not in fams  # skipped by construction
    assert ("dist_Y_I", "", 0) in fams and ("dist_Y_C", "", 0) in fams
    # every emitted bound dominates its measured error
    for r in rows:
        if r.measured is not None:
            slack = abs(r.bound) * 1e-12
            assert abs(r.measured) <= r.bound + slack or r.family == "eps1"
            if r.family == "eps1":
                assert r.measured <= r.bound + slack
    path = tmp_path / "bounds.csv"
    write_bounds_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "date,family,x,n,bound,measured_error,cvm,wasserstein"
    assert len(lines) == 1 + len(rows)


def test_bound_report_rows_equal_the_row_functions(rig):
    """Each report row is the value its public row function returns."""
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    n_r = 5
    last = len(full.dates) - 1
    rows = bound_report(s, models, full, vm, n_r, date_indices=[1, 10, 50, last],
                        orders=(1, 2, 3), tab=tab)
    index = {float(full.dates[i]): i for i in (1, 10, 50, last)}
    assert sorted({r.date for r in rows}) == sorted(index)
    assert len(rows) == 4 * (5 + 3 + 2)

    def close(got, want):
        return got == pytest.approx(want, rel=1e-14, abs=0.0)

    for r in rows:
        i = index[r.date]
        st = full.state(i)
        if r.family.startswith("dist_"):
            # the distances of the date's sample against the normal whose
            # variance cir_terms gives on its own
            factor = r.family[5:]
            sd = math.sqrt(cir_terms(models.credit[factor[-1]], 0.0, r.date).var_Y)
            cvm, w1 = _normal_distances(getattr(st, factor)[None], np.array([sd]),
                                        _plotting_positions(full.n_paths))
            assert close(r.cvm, cvm[0]) and close(r.wasserstein, w1[0]), (i, r.family)
            continue
        c_v = swap_cv_bound(s, models, r.date)
        assert close(r.bound, truncation_bound(r.n, i, models, c_v, r.family,
                                               r.x, tab)), (i, r.family, r.x, r.n)
        if r.measured is not None:
            # the kernel on the date's cube row, with the date's own scalar
            # H_r H_I H_C and H_I H_C
            *_, h_ric, h_ic = domestic_terms(models, r.date)
            meas = _measured_errors(st, st.Y_I + st.Y_C, vm[i], n_r, (r.x,),
                                    h_ric, h_ic)[r.x][r.family]
            assert close(r.measured, meas), (i, r.family, r.x)


def test_bound_report_guards(rig):
    inputs, models, corr, full, vm, tab, coeffs, bm = rig
    s = inputs.portfolio.single_swap
    with pytest.raises(ValueError):
        bound_report(s, models, full, vm, 5, date_indices=[0, 5], tab=tab)
    base = simulate(models, corr, SimGrid.regular(4, 30.0, 2), 2000, 1, "base")
    with pytest.raises(ValueError):
        bound_report(s, models, base, vm, 5, date_indices=[5], tab=tab)

    # a stream is refused before any of its dates is read
    def never():
        raise AssertionError("a pair was read")
        yield

    for n_paths, mode, match in ((500, "full", "too few paths"),
                                 (2000, "base", "full-mode")):
        stream = PathStream(models, corr, SimGrid.regular(2, 30.0, 1), n_paths, 1, mode)
        with pytest.raises(ValueError, match=match):
            bound_rows(s, models, stream, never(), 5)


def test_streamed_bound_rows_equal_the_cube_report(rig):
    # the bounds verb's path: one live date state at a time, no cube
    inputs, models, corr, full, vm, *_ = rig
    s = inputs.portfolio.single_swap
    grid = SimGrid.regular(4, 30.0, 2)
    stream = PathStream(models, corr, grid, full.n_paths, full.seed, "full")
    valuation = PortfolioValuation(inputs.portfolio, models, stream.dates)
    streamed = bound_rows(s, models, stream, valuation.valued_pass(stream), 5, (1, 2))
    stored = bound_report(s, models, full, vm, 5, orders=(1, 2))
    assert len(streamed) == len(stored) == (len(full.dates) - 1) * (5 + 2 + 2)
    # repr is exact for floats and treats NaN as equal to itself
    for got, want in zip(streamed, stored):
        assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want))


def test_bound_rows_table_leaves_unread_moments_nan(rig):
    # bound_rows fills only the credit moments its rows read: those equal
    # the full table's, and a bound that reads any other moment is NaN
    inputs, models, corr, full, vm, tab, *_ = rig
    s = inputs.portfolio.single_swap
    i = 5
    part = _empty_table(full, _BOUND_ORDERS[0][-1])
    state = full.state(i)
    _credit_moments_at(part, state, state.Y_I + state.Y_C, _BOUND_ORDERS)
    c_v = swap_cv_bound(s, models, float(full.dates[i]))
    for x in X_CHOICES:
        for fam, n in (("eps1", _EPS1_ORDER), ("eps2", 1), ("eps3", 3)):
            if fam == "eps3" and x == "1":
                continue
            assert (truncation_bound(n, i, models, c_v, fam, x, part)
                    == truncation_bound(n, i, models, c_v, fam, x, tab))
        assert math.isnan(truncation_bound(0, i, models, c_v, "eps1", x, part))
    assert math.isnan(c2_const(2, "1", part, i))
    assert math.isnan(c2_const(4, "y_I", part, i))
    assert math.isnan(truncation_bound(_EPS1_ORDER, i + 1, models, c_v, "eps1", "1", part))


def test_partial_table_entries_are_the_full_tables(rig):
    # one fill at two sets of orders: each entry the report's partial table
    # fills is bitwise the full table's, at every date
    inputs, models, corr, full, vm, tab, *_ = rig
    part = _empty_table(full, _BOUND_ORDERS[0][-1])
    for i in range(len(full.dates)):
        state = full.state(i)
        _credit_moments_at(part, state, state.Y_I + state.Y_C, _BOUND_ORDERS)
    s_orders, yi_orders = _BOUND_ORDERS
    pairs = [(part.S[list(s_orders)], tab.S[list(s_orders)]),
             (part.y_I[list(yi_orders)], tab.y_I[list(yi_orders)]),
             (part.q_abs_s, tab.q_abs_s)]
    pairs += [(getattr(part, name)[x], getattr(tab, name)[x])
              for name in ("S2_x", "S4_x") for x in X_CHOICES]
    for got, want in pairs:
        assert not np.isnan(got).any()
        assert got.tobytes() == want.tobytes()
    # eps2's E[S^4] at x = 1 is the S chain's, in both tables
    for t in (part, tab):
        assert t.S4_x["1"].tobytes() == t.S[4].tobytes()
    # and nothing else
    filled = sum(int(np.sum(~np.isnan(a))) for a in (part.S, part.y_I, part.S_yI))
    assert filled == len(full.dates) * (len(s_orders) + len(yi_orders))
