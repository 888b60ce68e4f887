"""The stdlib sampler against numpy: the same draws, probabilities and estimate.

`_pcg64.multinomial` must return numpy's exact counts, the Monte Carlo
layer's outcome probabilities and `estimate_S` must round as the numpy code
they replaced, which this file keeps as their reference.  numpy's Generator
is the oracle where it is 2.0 or later; the goldens were recorded with numpy
2.4.6 and pin the stream whatever numpy is installed.

Hypothesis runs derandomized with a fixed example budget, so the examples
are the same on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamch import montecarlo
from oamch._pcg64 import Generator, multinomial, pcg64
from oamch.azimuthal import StepIndex
from oamch.coincidence import ChSettings, canonical_settings, ch_from_probabilities
from oamch.montecarlo import (
    RUN_LABELS,
    CountRecord,
    InsufficientStatisticsError,
    McConfig,
    estimate_S,
    frequency,
    simulate_ch_runs,
)

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# numpy 1.x may draw binomials otherwise (its inversion is not confirmed to
# take log1p); PCG64 and SeedSequence are the same in every numpy >= 1.17
numpy_2 = pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                             reason="numpy's binomial stream is pinned from numpy 2.0 on")

SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((0, 2**32 - 1, 2**32, 2**64 - 1)))
# past three words the entropy outgrows SeedSequence's pool of four
STREAMS = st.one_of(st.integers(0, 3), st.integers(0, 2**96))
TRIALS = st.one_of(
    st.just(1),
    st.integers(1, 100),
    st.integers(1, 10**7),
    st.integers(1, 2**63 - 1),
    st.sampled_from((2**53 + 1, 2**62, 2**63 - 1)),
)
WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-18.0, 0.0).map(lambda e: 10.0**e))
EFFICIENCIES = st.one_of(st.just(1.0), st.floats(1e-9, 1.0))


def _numpy_probabilities(p, eta):
    """The outcome probabilities as the numpy-based sampler formed them."""
    p = np.array(p, dtype=float)
    coinc = eta * (p.ravel() / p.sum())
    probs = np.append(coinc, max(0.0, 1.0 - coinc.sum()))
    return probs / probs.sum()


@st.composite
def _probabilities(draw):
    weights = draw(st.lists(WEIGHTS, min_size=4, max_size=4).filter(any))
    return _numpy_probabilities((weights[:2], weights[2:]), draw(EFFICIENCIES)).tolist()


# (seed, stream, trials, pvals, counts) from numpy 2.4.6's
# default_rng([seed, stream]).multinomial(trials, pvals)
GOLDEN_DRAWS = [
    # a conditional probability rounded past 1: numpy gives the whole remainder
    (17485029721327973432, 3, 2**63 - 1,
     [3.88880847736947e-17, 0.7545087375737521, 0.24549126242624789, 0.0, 0.0],
     [350, 6959114792910001313, 2264257243944774144, 0, 0]),
    # inversion takes exp(n * log1p(-p)), not q**n
    (11436021740626463882, 1, 8012422204230114940,
     [2.1950838228339525e-35, 0.0, 3.684669702523248e-18, 0.0, 1.0],
     [0, 0, 24, 0, 8012422204230114916]),
    # BTPE's -k * k wraps as int64
    (7421068913780442693, 1, 2**63 - 1,
     [4.1395325113672e-16, 5.8638072985372955e-16, 0.0, 0.6307528888002745, 0.36924711119972453],
     [3796, 5406, 0, 5817668560214035981, 3405703476640730624]),
    # BTPE's n + 1 wraps as int64 at 2**63 - 1 trials
    (12556037837860680705, 3, 2**63 - 1,
     [4.502531479845765e-18, 0.13810167717165808, 0.0, 0.21561623433483906, 0.6462820884935029],
     [40, 1273763147462086656, 0, 1988708746737896960, 5960900142654792151]),
    # BTPE forms n + 1 - m and n - y + 1 in doubles
    (516393135904317180, 1, 7618406674266636045,
     [0.6451164927362981, 0.004964038844720289, 0.3499194684189758, 5.728534124489136e-15, 0.0],
     [4914759793061233933, 37818067130009464, 2665828814075348790, 43490, 368]),
    (6311591607956956800, 3, 1258657786054507748,
     [6.0755145276073e-14, 1.7019380742063144e-30, 0.0, 4.978672298850934e-24, 0.9999999999999393],
     [75988, 0, 0, 0, 1258657786054431760]),
    (3, 0, 1, [0.5, 0.0, 0.0, 0.5, 0.0], [0, 0, 0, 1, 0]),
]

# (settings, McConfig, the four runs' counts and no-coincidence counts, s_hat,
# stderr) from `simulate_ch_runs` and `estimate_S` on numpy 2.4.6
GOLDEN_RUNS = [
    (canonical_settings(0.0), McConfig(trials=1_000_000, seed=12345),
     [([[426760, 73327], [73540, 426373]], 0), ([[73464, 426575], [426707, 73254]], 0),
      ([[427098, 73513], [72819, 426570]], 0), ([[426836, 73293], [73100, 426771]], 0)],
     0.2067515000000001, 0.0005356909293946931),
    (ChSettings(0.3, 1.2, 0.5, 2.9, alpha=0.4, beta=2.0, step_index=StepIndex(1.7321)),
     McConfig(trials=50_000, efficiency_a=0.8, efficiency_b=0.6, seed=11),
     [([[511, 4917], [1476, 17108]], 25988), ([[3714, 1498], [13877, 4845]], 26066),
      ([[500, 3512], [1563, 18332]], 26093), ([[2792, 1086], [14586, 5484]], 26052)],
     -0.2455506727487187, 0.0031898767793317193),
    (canonical_settings(0.0), McConfig(trials=2**63 - 1, seed=2**64 - 1),
     [([[3936320237560937472, 675365779533434624], [675365780995433344, 3936320238764970367]], 0),
      ([[675365780462326144, 3936320238527858176], [3936320238378088319, 675365779486503168]], 0),
      ([[3936320238043417600, 675365780867932672], [675365780849686656, 3936320237093738879]], 0),
      ([[3936320238820247040, 675365780193099008], [675365781371714432, 3936320236469715327]], 0)],
     0.2071067814073113, 1.7627960064663463e-10),
    (ChSettings(0.3, 1.2, 0.5, 2.9, alpha=0.4, beta=2.0, step_index=StepIndex(2.5)),
     McConfig(trials=1, seed=7),
     [([[0, 1], [0, 0]], 0), ([[0, 0], [1, 0]], 0), ([[0, 0], [1, 0]], 0), ([[1, 0], [0, 0]], 0)],
     0.0, 0.0),
]


@pytest.mark.parametrize("seed, stream, trials, pvals, counts", GOLDEN_DRAWS)
def test_multinomial_golden_draws(seed, stream, trials, pvals, counts):
    assert multinomial((seed, stream), trials, pvals) == counts


@pytest.mark.parametrize("cfg, mc, runs, s_hat, stderr", GOLDEN_RUNS)
def test_simulated_runs_golden(cfg, mc, runs, s_hat, stderr):
    got = simulate_ch_runs(cfg, mc)
    assert [(r.n, r.no_coincidence) for r in got] == [
        (tuple(map(tuple, n)), none) for n, none in runs
    ]
    est = estimate_S(got)
    assert (est.s_hat, est.stderr) == (s_hat, stderr)


@PROFILE
@given(SEEDS, STREAMS)
def test_doubles_are_pcg64s(seed, stream):
    entropy = [seed, stream]
    rng = Generator(pcg64(entropy))
    assert [rng.random() for _ in range(4)] == np.random.default_rng(entropy).random(4).tolist()


# one call each: ("uniform", low, high) or ("integers", low, high)
_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("uniform"), st.floats(-10.0, 0.0), st.floats(0.0, 10.0)),
        st.tuples(st.just("integers"), st.integers(-5, 5),
                  # past 2**31 about half of the 32-bit words are redrawn
                  st.one_of(st.integers(1, 8), st.integers(1, 2**32 - 1), st.just(2**31 + 1))),
    ),
    max_size=12,
)


@PROFILE
@given(SEEDS, _DRAWS)
def test_interleaved_draws_are_numpys(seed, draws):
    ours, theirs = Generator(pcg64([seed])), np.random.default_rng(seed)
    for name, low, span in draws:
        high = low + span if name == "integers" else span
        want = np.asarray(getattr(theirs, name)(low, high)).tolist()
        got = getattr(ours, name)(low, high)
        assert got == want and type(got) is type(want)


def test_integers_redraws_below_the_threshold_and_keeps_the_other_half():
    # for a range of 3 Lemire redraws a 32-bit word w with (3 * w) mod 2**32 < 2**32 mod 3 = 1,
    # that is w = 0; numpy's next_uint32 hands out an output's low half, then its high half
    outputs = iter([
        0xC0000000 << 32 | 0,  # 0 is redrawn; the high half gives 3 * 0xC0000000 >> 32 = 2
        0xFFFFFFFF << 32 | 0x55555556,  # low half: 1, with a leftover of 2 >= 1; high half: 2
        2**63,  # uniform takes a whole output: 1 + 2 * 0.5
    ])
    rng = Generator(outputs.__next__)
    assert rng.integers(0, 3) == 2
    assert rng.integers(0, 1) == 0  # a range of one draws nothing
    assert rng.integers(10, 13) == 11
    assert rng.uniform(1.0, 3.0) == 2.0
    assert rng.integers(0, 3) == 2  # the high half kept across the uniform draw
    assert next(outputs, None) is None


@numpy_2
@PROFILE
@given(SEEDS, STREAMS, TRIALS, _probabilities())
@example(*GOLDEN_DRAWS[0][:4])
@example(*GOLDEN_DRAWS[1][:4])
@example(*GOLDEN_DRAWS[2][:4])
@example(*GOLDEN_DRAWS[3][:4])
@example(*GOLDEN_DRAWS[4][:4])
@example(0, 0, 1, [0.25, 0.25, 0.25, 0.25, 0.0])
def test_multinomial_is_numpys(seed, stream, trials, pvals):
    want = np.random.default_rng([seed, stream]).multinomial(trials, pvals).tolist()
    assert multinomial([seed, stream], trials, pvals) == want


@PROFILE
@given(st.lists(WEIGHTS, min_size=4, max_size=4).filter(any), EFFICIENCIES)
def test_outcome_probabilities_round_as_numpy(weights, eta):
    p = (weights[:2], weights[2:])
    assert montecarlo._outcome_probabilities(p, eta) == _numpy_probabilities(p, eta).tolist()


def _numpy_estimate(runs):
    """`estimate_S` as it was written with numpy: (s_hat, stderr, terms)."""
    trials = runs[0].trials
    n = [np.asarray(r.n, dtype=np.int64) for r in runs]
    f = [x / trials for x in n]
    terms = {
        "p_ab": float(f[0][0, 0]),
        "p_ab_prime": float(f[1][0, 0]),
        "p_a_prime_b": float(f[2][0, 0]),
        "p_a_prime_b_prime": float(f[3][0, 0]),
        "p_a_prime_inf": float((f[2][0, 0] + f[2][0, 1] + f[3][0, 0] + f[3][0, 1]) / 2.0),
        "p_inf_b": float((f[0][0, 0] + f[0][1, 0] + f[2][0, 0] + f[2][1, 0]) / 2.0),
        "p_inf_inf": float(sum(fr.sum() for fr in f) / 4.0),
    }
    s_hat = ch_from_probabilities(*terms.values())
    pooled = sum(int(x.sum()) for x in n) / 4.0
    var = 0.0
    for w, x, rec in zip(montecarlo._NUMERATOR_WEIGHTS, n, runs):
        u = np.append(np.array(w) - s_hat / 4.0, 0.0)
        phat = np.append(x.ravel(), rec.no_coincidence) / trials
        var += trials * (float(np.sum(u * u * phat)) - float(np.sum(u * phat)) ** 2)
    return s_hat, math.sqrt(max(0.0, var)) / pooled, terms


@st.composite
def _runs(draw):
    """Four runs of one trial count; the cuts split each run's trials into five cells."""
    trials = draw(TRIALS)
    runs = []
    for label in RUN_LABELS:
        cuts = sorted(draw(st.lists(st.integers(0, trials), min_size=4, max_size=4)))
        cells = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], cuts[3] - cuts[2]]
        runs.append(CountRecord(label, (cells[:2], cells[2:]), trials, trials - cuts[3]))
    return runs


@PROFILE
@given(_runs())
def test_estimate_is_the_numpy_formula_bit_for_bit(runs):
    for rec in runs:
        assert frequency(rec) == tuple(map(tuple, (np.asarray(rec.n) / rec.trials).tolist()))
    if not any(sum(row) for rec in runs for row in rec.n):
        with pytest.raises(InsufficientStatisticsError):
            estimate_S(runs)
        return
    est = estimate_S(runs)
    s_hat, stderr, terms = _numpy_estimate(runs)
    assert (est.s_hat, est.stderr, est.terms) == (s_hat, stderr, terms)
    assert all(type(v) is float for v in (est.s_hat, est.stderr, *est.terms.values()))
