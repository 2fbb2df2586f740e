import re

import mpmath as mp
import pytest

from regfree.bounds import (
    DomainError,
    NEG_INF,
    frac_chain,
    parse_real,
    read_log_n,
    reg_chain,
    regime,
    union_bounds,
)


LOG_N_40 = mp.exp(40)  # n = e^(e^40), the regime's reference point


class TestParseReal:
    def test_plain_number(self):
        assert parse_real("1000") == 1000

    def test_single_power(self):
        assert mp.almosteq(parse_real("2^10"), 1024)

    def test_tower(self):
        assert mp.almosteq(mp.log(mp.log(parse_real("e^e^40"))), 40)

    def test_parens_tolerated(self):
        assert mp.almosteq(parse_real("e^(e^2)"), mp.exp(mp.exp(2)))

    @pytest.mark.parametrize(
        "expr, value",
        [("-2^2", -4), ("e^-2^2", mp.exp(-4)), ("0.01^-2", 10**4), ("(-2)^2", 4)],
    )
    def test_leading_minus_binds_as_in_python(self, expr, value):
        # a minus outside parentheses negates the whole power to its right
        assert mp.almosteq(parse_real(expr), value)

    @pytest.mark.parametrize("expr", ["(e^2)^3", "(2", "2)"])
    def test_parens_that_could_change_the_value_rejected(self, expr):
        # dropping the parentheses of (e^2)^3 would read e^8
        with pytest.raises(DomainError, match=re.escape(repr(expr))):
            parse_real(expr)

    @pytest.mark.parametrize("expr", ["inf", "-inf", "nan", "(-2)^0.5", "e^e^e^e^40"])
    def test_only_finite_reals(self, expr):
        with pytest.raises(DomainError, match="finite real|too large"):
            parse_real(expr)


class TestPaperRegime:
    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            union_bounds(log_n=mp.mpf("0.5"))
        with mp.workdps(50):
            assert regime(mp.exp(5)).num_layers == 0  # below the regime

    def test_e_to_e40(self):
        with mp.workdps(50):
            r = regime(mp.exp(40))
            assert r.num_layers == 4
            assert mp.almosteq(r.epsilon, mp.exp(-20))
            # log|B_i| = (1 - 20^i eps) e^40
            for i, lb in enumerate(r.log_layer_sizes, start=1):
                expect = (1 - mp.power(20, i) * mp.exp(-20)) * mp.exp(40)
                assert mp.almosteq(lb, expect)
        # sizes shrink with i
        assert all(
            a > b for a, b in zip(r.log_layer_sizes, r.log_layer_sizes[1:])
        )

    def test_boundary_snap(self):
        # a 53-bit float for e^10 sits just below the C = 1 boundary;
        # the snap must still give C = 1
        import math

        with mp.workdps(50):
            assert regime(math.exp(10)).num_layers == 1


class TestRegChain:
    def test_holds_in_regime(self):
        for i in (2, 3):
            for x in (1, 10, 100):
                rep = reg_chain(log_n=LOG_N_40, i=i, x=x)
                assert rep.all_hold, (i, x, rep.first_failure)
                assert len(rep.steps) == 6

    def test_identity_step_is_tight(self):
        rep = reg_chain(log_n=LOG_N_40, i=2, x=10)
        s = rep.steps[4]
        assert s.is_identity
        assert abs(s.left - s.right) <= abs(s.left) * mp.mpf(10) ** -40

    def test_neg_inf_when_count_vanishes(self):
        # x^2/2 < m makes the second binomial an empty count at tiny scales;
        # engineered via x = 1, m = 2: binom(1/2, 2) has factor <= 0
        rep = reg_chain(log_n=LOG_N_40, i=2, x=1)
        assert rep.steps[0].left == NEG_INF
        assert rep.steps[0].holds

    def test_below_regime_reports_failure_honestly(self):
        rep = reg_chain(log_n=mp.exp(10), i=2, x=100)
        assert not rep.all_hold
        assert rep.steps[rep.first_failure].label == "x_at_most_1000Bi"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_chain(log_n=LOG_N_40, i=1, x=10)  # i must be >= 2
        with pytest.raises(DomainError):
            reg_chain(log_n=LOG_N_40, i=7, x=10)  # i > C+1
        with pytest.raises(DomainError):
            reg_chain(log_n=LOG_N_40, i=2, x=0)

    def test_monotone_along_the_chain(self):
        # the displayed quantities are a chain: each step's right side is the
        # next step's left side
        rep = reg_chain(log_n=LOG_N_40, i=3, x=10)
        for a, b in zip(rep.steps, rep.steps[1:]):
            assert a.right == b.left


class TestFracChain:
    def test_holds_in_regime(self):
        for i in (1, 2, 3, 4):
            for p_i in ("0.4", "0.7", "1"):
                rep = frac_chain(log_n=LOG_N_40, i=i, p_i=mp.mpf(p_i))
                assert rep.all_hold, (i, p_i, rep.first_failure)
                assert len(rep.steps) == 6

    def test_boundary_p_accepted(self):
        # C = 4 here, so the floor is (log 4)/4; a float sitting on it (or a
        # hair below, from rounding) must be accepted
        lo = mp.log(mp.mpf(4)) / 4
        rep = frac_chain(log_n=LOG_N_40, i=2, p_i=float(lo))
        assert rep.all_hold

    def test_p_below_floor_rejected(self):
        with pytest.raises(DomainError):
            frac_chain(log_n=LOG_N_40, i=1, p_i=mp.mpf("0.01"))

    def test_p_above_one_rejected(self):
        with pytest.raises(DomainError):
            frac_chain(log_n=LOG_N_40, i=1, p_i=mp.mpf("1.5"))

    def test_i_out_of_range(self):
        with pytest.raises(DomainError):
            frac_chain(log_n=LOG_N_40, i=5, p_i=mp.mpf("0.5"))

    def test_p_equal_one_uses_neg_inf(self):
        rep = frac_chain(log_n=LOG_N_40, i=1, p_i=mp.mpf(1))
        assert rep.steps[0].left == NEG_INF and rep.steps[0].holds

    def test_nan_p_rejected(self):
        # used to slip past the range check and report a first step that holds
        with pytest.raises(DomainError):
            frac_chain(log_n=LOG_N_40, i=1, p_i="nan")


class TestUnionBounds:
    def test_closes_in_regime(self):
        rep = union_bounds(log_n=LOG_N_40)
        assert rep.all_hold
        with mp.workdps(50):
            expect = mp.exp(-mp.sqrt(LOG_N_40) / 2)
            assert mp.almosteq(rep.r, expect, rel_eps=mp.mpf(10) ** -40)
        assert len(rep.per_layer) == 4

    def test_geometric_partial_matches_closed_form(self):
        rep = union_bounds(log_n=mp.mpf(30_000))
        assert rep.partial_matches
        assert abs(rep.geometric_partial - rep.geometric_closed) <= abs(
            rep.geometric_closed
        ) * mp.mpf(10) ** -40

    def test_doubling(self):
        rep = union_bounds(log_n=mp.mpf(30_000))
        assert rep.geometric_closed <= rep.doubling_bound

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            union_bounds(log_n=mp.mpf("1.5"))  # C <= 1

    @pytest.mark.parametrize("n", ["-5", "0", "2", "e", "inf", "nan"])
    def test_n_outside_the_domain_rejected(self, n):
        # the domain is e < n < inf, checked as n is read
        with pytest.raises(DomainError):
            union_bounds(log_n=read_log_n(n))


class TestPrecisionContract:
    def test_custom_dps_respected(self):
        rep = reg_chain(log_n=LOG_N_40, i=2, x=10, dps=30)
        assert rep.dps == 30

    def test_integer_n_read_at_recheck_precision(self):
        with mp.workdps(100):
            log_n = mp.log(10**10000)
        read = read_log_n("10^10000")
        assert read == log_n
        assert reg_chain(log_n=read, i=2, x=10) == reg_chain(log_n=log_n, i=2, x=10)

    @pytest.mark.parametrize("dps", [0, 5, 19])
    def test_precision_floor(self, dps, monkeypatch):
        # the step tolerance is 10 digits below dps, so at 5 digits this
        # chain, which fails at step 3, would hold throughout
        log_n = mp.exp(11)
        with pytest.raises(DomainError):
            reg_chain(log_n=log_n, i=2, x=10, dps=dps)
        monkeypatch.setenv("REGFREE_PRECISION", str(dps))
        with pytest.raises(DomainError):
            reg_chain(log_n=log_n, i=2, x=10)
        assert reg_chain(log_n=log_n, i=2, x=10, dps=20).first_failure == 3

    def test_verdicts_stable_at_higher_dps(self):
        a = reg_chain(log_n=LOG_N_40, i=2, x=10, dps=30)
        b = reg_chain(log_n=LOG_N_40, i=2, x=10, dps=120)
        assert [s.holds for s in a.steps] == [s.holds for s in b.steps]
