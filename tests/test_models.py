import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailfields.cli import NAMED_MODELS
from tailfields.extremal import level_u, theta_classical_empirical
from tailfields.lattice import centered_box, corner_point, pos_block

from tailfields.models import (
    AdditiveFBM,
    BrownResnick,
    CounterexampleField,
    CustomVariogram,
    GeneralMaxMovingAverage,
    IIDFrechet,
    MaxLinear,
    MaxMovingAverage,
    MMA_OFFSETS,
    MODEL_VARIANTS,
    Mixture,
    Model,
    check_level,
    factorial_rank,
    model_digest,
    model_from_config,
    model_tag,
)
from tailfields.rng import RngStream
from tailfields.simulate import (
    block_max_batch,
    conditional_field_batch,
    field_batch,
    field_roots,
    frechet_of,
)
from tailfields.tailfield import estimate_tail_field

MMA = MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1))
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def fresh_mma(alpha: float = 1.0) -> MaxLinear:
    """``MMA`` (at ``alpha``) as a new instance, with an empty memo."""
    return MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1), alpha=alpha)


def test_validation_errors():
    with pytest.raises(ValueError):
        IIDFrechet(alpha=0.0)
    with pytest.raises(ValueError):
        MaxMovingAverage(a=(1.3, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        AdditiveFBM(hurst=(0.5, 1.0))
    with pytest.raises(ValueError):
        Mixture(components=((0.5, MMA), (0.4, MMA)))
    with pytest.raises(ValueError):
        GeneralMaxMovingAverage(stencil=(((0, 0), 0.5),))


@pytest.mark.parametrize(
    "first, second, message",
    [
        (IIDFrechet(1.0), IIDFrechet(2.0), "tail index"),
        (MMA, BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5, 0.5))), "dimension"),
    ],
    ids=["alpha", "dim"],
)
def test_mixture_components_must_agree(first, second, message):
    with pytest.raises(ValueError, match=f"disagree on {message}"):
        Mixture(components=((0.5, first), (0.5, second)))


def test_dims_and_indices():
    assert MMA.dim == 2
    assert IIDFrechet(2.0).dim is None
    assert BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5, 0.5))).dim == 3
    assert MMA.alpha == 1.0
    assert IIDFrechet(2.5).alpha == 2.5
    assert CounterexampleField(alpha=1.5).alpha == 1.5
    assert MMA.radius == 1
    assert GeneralMaxMovingAverage(stencil=(((2, 0, 1), 0.3),)).radius == 2
    assert MMA.stencil == (((-1, -1), 0.1), ((-1, 1), 0.7), ((1, 1), 0.6), ((1, -1), 0.1))


def test_marginals_closed_form():
    assert IIDFrechet(1.0).exceed_prob(1.0) == pytest.approx(1 - math.exp(-1))
    # weighted max over five independent Frechet sites
    assert MMA.exceed_prob(10.0) == pytest.approx(1 - math.exp(-0.25))
    assert BrownResnick(variogram=AdditiveFBM(hurst=(0.5,))).exceed_prob(2.0) == pytest.approx(1 - math.exp(-0.5))
    assert CounterexampleField(alpha=2.0).exceed_prob(4.0) == pytest.approx(1 / 16)
    mix = Mixture(components=((0.5, IIDFrechet(1.0)), (0.5, MMA)))
    assert mix.exceed_prob(5.0) == pytest.approx(
        0.5 * IIDFrechet(1.0).exceed_prob(5.0) + 0.5 * MMA.exceed_prob(5.0)
    )


ROUND_TRIP_CASES = [
    IIDFrechet(alpha=2.5),
    MMA,
    GeneralMaxMovingAverage(stencil=(((1, 0), 0.25), ((0, -2), 0.75))),
    BrownResnick(variogram=AdditiveFBM(hurst=(0.3, 0.8))),
    CounterexampleField(alpha=1.5),
    Mixture(components=((0.5, MMA), (0.5, MaxMovingAverage(a=(0.6, 0.2, 0.6, 0.1))))),
]


@pytest.mark.parametrize("spec", ROUND_TRIP_CASES, ids=lambda s: s.to_config()["variant"])
def test_config_round_trip(spec):
    assert model_from_config(spec.to_config()) == spec


def test_round_trip_cases_cover_every_variant():
    assert {s.to_config()["variant"] for s in ROUND_TRIP_CASES} == set(MODEL_VARIANTS)


@given(st.tuples(*[st.integers(0, 100)] * 4))
@settings(max_examples=50, deadline=None)
def test_mma_round_trip_hypothesis(raw):
    spec = MaxMovingAverage(a=tuple(x / 100 for x in raw))
    assert model_from_config(spec.to_config()) == spec


def test_brown_resnick_config_ignores_old_tolerance_key():
    cfg = BrownResnick(variogram=AdditiveFBM(hurst=(0.3, 0.8))).to_config()
    assert model_from_config({**cfg, "accuracy": 1e-3}) == model_from_config(cfg)


def test_digest_stable_and_distinct():
    assert model_digest(MMA) == model_digest(MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1)))
    assert model_digest(MMA) != model_digest(IIDFrechet(1.0))


# the tags of every named model and of both configs under scripts/, which
# name the outputs of the verify campaigns
PINNED_TAGS = {
    "iid": "IIDFrechet:2714522ec4ae",
    "mma-default": "MaxMovingAverage:2ecc62dff707",
    "mma2": "MaxMovingAverage:5a5a679e73bf",
    "mixture": "Mixture:cd713a292e4b",
    "br-fbm": "BrownResnick:bb48dcdb9a62",
    "counterexample": "CounterexampleField:51b05edfed0a",
    "stencil-1d.json": "GeneralMaxMovingAverage:8d8524f06d3b",
    "mixture-unequal.json": "Mixture:912ae8736b51",
}


@pytest.mark.parametrize("name", PINNED_TAGS)
def test_tags_and_digests_are_pinned(name):
    if name.endswith(".json"):
        spec = model_from_config(json.loads((SCRIPTS / name).read_text()))
    else:
        spec = NAMED_MODELS[name]()
    assert model_tag(spec) == PINNED_TAGS[name]
    assert model_digest(spec) == PINNED_TAGS[name].split(":")[1]


@pytest.mark.parametrize(
    "spec, variant",
    [
        (IIDFrechet(alpha=2.5), "IIDFrechet"),
        (MaxLinear(), "IIDFrechet"),
        (MMA, "MaxMovingAverage"),
        (MaxLinear(tuple(zip(MMA_OFFSETS, (0.1, 0.7, 0.6, 0.1)))), "MaxMovingAverage"),
        (GeneralMaxMovingAverage(stencil=(((1, 0), 0.25), ((0, -2), 0.75))),
         "GeneralMaxMovingAverage"),
        # the diagonals in another order are a general stencil
        (MaxLinear(tuple(zip(MMA_OFFSETS[::-1], (0.1, 0.7, 0.6, 0.1)))),
         "GeneralMaxMovingAverage"),
    ],
    ids=["iid", "iid-empty-stencil", "mma", "mma-offsets", "general", "general-diagonals"],
)
def test_stencil_formats_round_trip(spec, variant):
    cfg = spec.to_config()
    assert type(spec) is MaxLinear and cfg["variant"] == variant
    back = model_from_config(json.loads(json.dumps(cfg)))
    assert type(back) is MaxLinear and back == spec
    assert model_digest(back) == model_digest(spec)


def test_stencil_alpha_is_not_dropped():
    # at alpha != 1 the stencil formats write an "alpha" key, so the config
    # is not written as (and digested like) the alpha = 1 model's
    spec = MaxLinear(MMA.stencil, alpha=1.5)
    assert spec != MMA
    assert spec.exact_indices()["classical"] == pytest.approx(0.4731117413, rel=1e-9)
    assert spec.to_config() == {**MMA.to_config(), "alpha": 1.5}
    assert model_digest(spec) != model_digest(MMA)
    assert "alpha" not in MMA.to_config()


@pytest.mark.parametrize(
    "spec, variant",
    [
        (MaxMovingAverage(a=(0.1, 0.7, 0.6, 0.1), alpha=1.5), "MaxMovingAverage"),
        (GeneralMaxMovingAverage(stencil=(((1,), 0.5), ((-2,), 0.8)), alpha=2.0),
         "GeneralMaxMovingAverage"),
    ],
    ids=["mma", "general"],
)
def test_stencil_alpha_round_trips(spec, variant):
    cfg = spec.to_config()
    assert cfg["variant"] == variant and cfg["alpha"] == spec.alpha != 1
    back = model_from_config(json.loads(json.dumps(cfg)))
    assert back == spec and back.alpha == spec.alpha
    assert model_tag(back) == model_tag(spec)


def test_iid_alpha_kept_as_given():
    assert IIDFrechet(1).to_config() == {"variant": "IIDFrechet", "alpha": 1}
    assert model_digest(IIDFrechet(1)) != model_digest(IIDFrechet(1.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IIDFrechet(alpha=0.0), "alpha must be positive"),
        (lambda: MaxLinear(MMA.stencil, alpha=-1.0), "alpha must be positive"),
        (lambda: IIDFrechet(alpha=math.nan), "alpha must be positive and finite, got nan"),
        (lambda: MaxLinear(MMA.stencil, alpha=math.inf),
         "alpha must be positive and finite, got inf"),
        (lambda: CounterexampleField(alpha=math.nan), "alpha must be positive and finite"),
        (lambda: Mixture(((math.nan, MMA), (0.5, MMA))),
         "component weights must be nonnegative and finite"),
        (lambda: MaxMovingAverage(a=(0.1, 0.7, 0.6)), "need exactly four weights"),
        (lambda: MaxMovingAverage(a=(1.3, 0.0, 0.0, 0.0)),
         r"stencil weight 1.3 at offset \(-1, -1\) outside \[0,1\]"),
        (lambda: GeneralMaxMovingAverage(stencil=()), "stencil must be nonempty"),
        (lambda: GeneralMaxMovingAverage(stencil=(((0, 0), 0.5),)),
         "offset 0 is implicit with weight 1"),
        (lambda: GeneralMaxMovingAverage(stencil=(((1, 0), 0.5), ((1,), 0.5))),
         "stencil offsets must share a dimension"),
        (lambda: GeneralMaxMovingAverage(stencil=(((1,), -0.5),)),
         r"stencil weight -0.5 at offset \(1,\) outside \[0,1\]"),
    ],
    ids=["iid-alpha", "max-linear-alpha", "iid-alpha-nan", "max-linear-alpha-inf",
         "counterexample-alpha-nan", "mixture-weight-nan", "three-weights", "mma-weight", "empty",
         "zero-offset", "mixed-dims", "general-weight"],
)
def test_constructors_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_custom_variogram_not_serializable():
    spec = BrownResnick(
        variogram=CustomVariogram(dim=2, gamma=lambda t: 1.0, sigma2=lambda t: 1.0)
    )
    with pytest.raises(ValueError):
        spec.to_config()


class ScaledFrechet(Model):
    """Twice IID Frechet(1) noise, defining only the members a model must."""

    alpha = 1.0

    def exceed_prob(self, u):
        return -math.expm1(-2.0 / u)

    def fields(self, window, count, gen):
        return 2.0 * frechet_of(gen.random((count, *window.shape)), 1.0)


def test_minimal_model_runs_through_the_package():
    spec = ScaledFrechet()
    window = centered_box(2, 2)

    def gen():
        return RngStream(3).generator()

    x = field_batch(spec, window, 50, gen())
    assert np.array_equal(x, 2.0 * field_batch(IIDFrechet(1.0), window, 50, gen()))
    assert np.array_equal(block_max_batch(spec, window, 50, gen()), x.reshape(50, -1).max(axis=1))
    assert block_max_batch(spec, window, 0, gen()).shape == (0,)
    roots, rows = field_roots(spec, window, (1, -1), 50, gen())
    assert np.array_equal(roots, x[:, 3, 1])
    assert np.array_equal(rows([4, 7]), x[[4, 7]])
    with pytest.raises(TypeError, match="ScaledFrechet"):
        conditional_field_batch(spec, window, (0, 0), 1.0, 5, gen())
    u = level_u(spec, (10, 10), 1.0)
    assert 100 * spec.exceed_prob(u) == pytest.approx(1.0)
    tails = estimate_tail_field(spec, window, 20_000, RngStream(4), q=0.99)
    assert tails.alpha == 1.0 and 150 <= len(tails) <= 250
    # the root norm of x^-1 X given X(0) > x is Pareto(1): half of it above 2
    assert np.mean(tails.root_norm > 2.0) == pytest.approx(0.5, abs=0.15)


@pytest.mark.parametrize("count", [5, 5000])
def test_mixture_asks_every_component_for_conditional_fields(count):
    # at count 5 no replicate picks the counterexample component; it is
    # asked for its 0 rows all the same, so the call fails at any count
    spec = Mixture(((0.999, IIDFrechet(1.0)), (0.001, CounterexampleField(1.0))))
    with pytest.raises(TypeError, match="CounterexampleField"):
        conditional_field_batch(spec, pos_block((3, 3)), (0, 0), 10.0, count,
                                RngStream(1).generator())


# -- the per-instance memo of MaxLinear ----------------------------------------

@pytest.mark.parametrize(
    "spec, r",
    [
        (fresh_mma(), (20, 20)),
        (IIDFrechet(2.0), (4, 3)),
        (model_from_config(json.loads((SCRIPTS / "stencil-1d.json").read_text())), (50,)),
        (fresh_mma(alpha=1.5), (20, 20)),
    ],
    ids=["mma", "iid-alpha-2", "stencil-1d", "mma-alpha-1.5"],
)
def test_memoised_exponent_is_the_direct_expression(spec, r):
    w = pos_block(r)
    direct = float((spec._reach(w) ** spec.alpha).sum())
    assert spec.exponent(w) == direct
    assert w in spec._exponents
    assert spec.exponent(pos_block(r)) == direct  # an equal window hits the memo


def _count_reach(monkeypatch) -> list:
    """Patch ``MaxLinear._reach`` to record the window shape of each call."""
    calls, reach = [], MaxLinear._reach

    def counted(self, window, mask=None):
        calls.append(window.shape)
        return reach(self, window, mask)

    monkeypatch.setattr(MaxLinear, "_reach", counted)
    return calls


def test_masked_exponent_is_never_memoised(monkeypatch):
    spec, w = fresh_mma(), pos_block((20, 20))
    mask = np.ones(w.shape, dtype=bool)
    mask[w.index(corner_point((1, 0), (20, 20)))] = False
    full = spec.exponent(w)
    calls = _count_reach(monkeypatch)
    masked = spec.exponent(w, mask)
    assert spec.exponent(w, mask) == masked != full
    assert len(calls) == 2
    assert masked == fresh_mma().exponent(w, mask)
    assert spec._exponents == {w: full}


def test_memo_leaves_equality_hash_and_digest():
    one, two = fresh_mma(), fresh_mma()
    digest = model_digest(two)
    one.exponent(pos_block((30, 30)))
    assert one.exceed_prob(10.0) == two.exceed_prob(10.0)
    assert one._exponents and not two._exponents
    assert one == two and hash(one) == hash(two)
    assert model_digest(one) == model_digest(two) == digest
    assert Mixture(((0.5, one), (0.5, MMA))) == Mixture(((0.5, two), (0.5, MMA)))


def test_classical_chunks_share_one_exponent(monkeypatch):
    calls = _count_reach(monkeypatch)
    args = ((200, 200), 1.0, 400, RngStream(5))
    est = theta_classical_empirical(fresh_mma(), *args)
    assert calls == [(200, 200)]  # 13 chunks of 32, one exponent
    # the memo lives on the instance: a fresh model computes again
    assert theta_classical_empirical(fresh_mma(), *args) == est
    assert calls == [(200, 200)] * 2


def test_classical_threads_keep_the_value():
    args = ((200, 200), 1.0, 400, RngStream(6))
    one = theta_classical_empirical(fresh_mma(), *args)
    two = theta_classical_empirical(fresh_mma(), *args, threads=2)
    assert two == one


# -- the counterexample's pairs ------------------------------------------------

class TestCounterexamplePair:
    def test_factorial_rank(self):
        assert list(factorial_rank(np.array([1.0, 1.5, 2.0, 5.9, 6.0, 25.0]))) == [
            1, 1, 2, 2, 3, 4,
        ]

    def test_standard_pareto_marginal(self):
        pairs = CounterexampleField(1.0).pairs(400_000, RngStream(10).generator())
        assert (pairs[:, 0] > 2).mean() == pytest.approx(0.5, abs=5e-3)
        ks = stats.kstest(pairs[:, 1], lambda y: 1 - np.maximum(y, 1.0) ** -1.0)
        assert ks.statistic < 0.01

    def test_exchangeable(self):
        pairs = CounterexampleField(1.0).pairs(200_000, RngStream(11).generator())
        p = stats.ks_2samp(pairs[:, 0], pairs[:, 1]).pvalue
        assert p > 0.01

    def test_first_block_is_diagonal(self):
        # Z in [1, 2) = [a_1, a_2) forces Z1 = Z2
        pairs = CounterexampleField(1.0).pairs(100_000, RngStream(12).generator())
        low = pairs[pairs[:, 0] < 2.0]
        assert len(low) > 0
        assert np.array_equal(low[:, 0], low[:, 1])

    def test_single_pair_api(self):
        ((z1, z2),) = CounterexampleField(1.0).pairs(1, RngStream(13).generator())
        assert z1 >= 1.0 and z2 >= 1.0


# -- the spectral atoms behind exact_indices -----------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def stencil_1d():
    return model_from_config(json.loads((SCRIPTS / "stencil-1d.json").read_text()))


def change_of_time_limits(spec, s):
    """Both sides of the shift identity with g = 1, from the atoms m_k:
    P(Theta(-s) != 0) = sum of m_k(0) over the atoms with m_k(-s) > 0, and
    E|Theta(s)|^alpha = sum of the m_k(s), each over the sum of the m_k(0)."""
    dim = len(s)
    atoms, zero = spec._spectral_atoms(dim), (0,) * dim
    minus = tuple(-x for x in s)
    total = sum(m[zero] for m in atoms)
    left = sum(m[zero] for m in atoms if m.get(minus, 0) > 0) / total
    return left, sum(m.get(s, 0) for m in atoms) / total


# the campaign's shifts: the unit vectors and the diagonal (ROADMAP known
# defect 5: only the diagonal has a nonzero limit)
@pytest.mark.parametrize(
    "spec, limits",
    [(MMA, {(1, 0): 0, (0, 1): 0, (1, 1): Fraction(11, 25)}),
     (NAMED_MODELS["mma2"](), {(1, 0): 0, (0, 1): 0, (1, 1): Fraction(16, 25)}),
     (IIDFrechet(2.0), {(1, 0): 0, (0, 1): 0, (1, 1): 0}),
     (stencil_1d(), {(1,): Fraction(10, 23)})],  # 1 / (1 + 0.5 + 0.8)
    ids=["mma-default", "mma2", "iid-alpha2", "stencil-1d"],
)
def test_change_of_time_limits_agree_in_fractions(spec, limits):
    for s in dict.fromkeys([*limits, *(o for o, _ in spec.stencil)]):
        left, right = change_of_time_limits(spec, s)
        assert isinstance(left, Fraction) and isinstance(right, Fraction), s
        assert left == right == limits.get(s, left), s


def test_max_linear_atoms_are_its_stencil_rows():
    atoms = MMA._spectral_atoms(2)
    assert len(atoms) == 5 and all(isinstance(v, Fraction) for m in atoms for v in m.values())
    assert sum(m[(0, 0)] for m in atoms) == Fraction(5, 2)  # 1 + 0.1 + 0.7 + 0.6 + 0.1
    assert atoms[0] == {(1, 1): Fraction(1, 10), (1, -1): Fraction(7, 10),
                        (-1, -1): Fraction(3, 5), (-1, 1): Fraction(1, 10), (0, 0): 1}


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_mixture_atoms_are_component_atoms_times_weights(alpha):
    one, two = MaxLinear(MMA.stencil, alpha), MaxLinear(NAMED_MODELS["mma2"]().stencil, alpha)
    mix = Mixture(((0.3, one), (0.7, two)))
    want = [{t: w * v for t, v in m.items()}
            for w, spec in ((Fraction(3, 10), one), (Fraction(7, 10), two))
            for m in spec._spectral_atoms(2)]
    assert mix._spectral_atoms(2) == want


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("zero_first", [True, False])
def test_zero_weight_component_leaves_the_table(alpha, zero_first):
    spec, other = MaxLinear(MMA.stencil, alpha), MaxLinear(NAMED_MODELS["mma2"]().stencil, alpha)
    comps = ((0.0, other), (1.0, spec))
    table = Mixture(comps if zero_first else comps[::-1]).exact_indices()
    assert table == spec.exact_indices()
    assert [float(v).hex() for v in table.values()] == [
        float(v).hex() for v in spec.exact_indices().values()]


# the named mixtures at alpha = 1.5 as their tables read before the mixture
# weights came from the atoms (w_i / theta_i then, w_i S_i now): the new
# weights are exact, so a value may move by rounding, by at most one ulp
MIXTURES_ALPHA15 = {
    "mixture": {
        "classical": "0x1.ebce3b54f39b9p-2", (0, 0): "0x1.3a05cf65a86cdp-1",
        (1, 1): "0x1.04c4a324823e1p-1", (0, 1): "0x1.5231a1b869b50p-1",
        (1, 0): "0x1.95aaa26dec5a2p-1"},
    "mixture-unequal": {
        "classical": "0x1.3c08bac65b11cp-1", (0, 0): "0x1.9394ed5778683p-1",
        (1, 1): "0x1.4f23953ee886ep-1", (0, 1): "0x1.3c08bac65b11cp-1",
        (1, 0): "0x1.807a12deeaf31p-1"},
}


@pytest.mark.parametrize("name", sorted(MIXTURES_ALPHA15))
def test_alpha15_mixture_tables_stay_within_one_ulp(name):
    spec = (NAMED_MODELS["mixture"]() if name == "mixture" else
            model_from_config(json.loads((SCRIPTS / "mixture-unequal.json").read_text())))
    spec = Mixture(tuple((w, MaxLinear(m.stencil, 1.5)) for w, m in spec.components))
    table = spec.exact_indices()
    assert list(table) == list(MIXTURES_ALPHA15[name])
    for key, old in MIXTURES_ALPHA15[name].items():
        old = float.fromhex(old)
        assert abs(table[key] - old) <= math.ulp(old), key


# -- the level check -------------------------------------------------------------

BAD_LEVELS = [0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("u", BAD_LEVELS)
@pytest.mark.parametrize(
    "spec",
    [MMA, IIDFrechet(2.0), BrownResnick(variogram=AdditiveFBM(hurst=(0.5, 0.5))),
     CounterexampleField(1.0), Mixture(((0.5, MMA), (0.5, CounterexampleField(1.0))))],
    ids=["mma", "iid", "brown-resnick", "counterexample", "mixture"],
)
def test_exceed_prob_rejects_a_bad_level(spec, u):
    with pytest.raises(ValueError, match="must be positive and finite"):
        spec.exceed_prob(u)


@pytest.mark.parametrize("u", BAD_LEVELS)
def test_run_index_rejects_a_bad_level(u):
    with pytest.raises(ValueError, match="must be positive and finite"):
        MMA.run_index(pos_block((5, 5)), (0, 0), u)


def test_check_level_passes_a_good_level_through():
    assert check_level(2.5) == 2.5 and check_level(5e-324) == 5e-324
    assert MMA.exceed_prob(1e300) > 0 and CounterexampleField(1.0).exceed_prob(0.5) == 1.0
