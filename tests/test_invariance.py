"""Metamorphic checks: symmetries of the problem that need no oracle.

Threshold NL-means on an integer image commutes with transposing the
image and with flipping it upside down, in both threshold modes.  The
threshold map is symmetric under both bit for bit, and the squared patch
distances are exact integers, so every selection, hence every count, is
the same.  The denoised values are the same sums taken in another order:
the box sums run along the other axis, and the offsets accumulate in
another order.

Detection, under either background model, commutes with transposing the
image (and the anchor), with a circular shift of the image and the anchor,
and with a gray-level map ``a u + b``.  These exercise the code that is
not symmetric: the cumulant engine's orbit sum runs over x-triples and its
Hankel view over y, ``as_map`` wraps anchors, and the model scales with
the gray levels.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redlab.background import from_exemplar, white_noise
from redlab.denoise import DenoiseConfig, nlmeans_threshold
from redlab.detect import autosim_detection
from redlab.grid import PatchDomain

# The largest float sums are the prefix sums of one weight map: at most 24²
# anchors of weight at most 1, over at most 48 steps, then times pixels of
# at most 255.  Reordering them moves a value by about 24² * 48 * 255 * 2^-53
# = 8e-10 at worst; 600 random cases of this strategy's kind differed by at
# most 9.4e-12.
DENOISED_ATOL = 1e-9

TRANSFORMS = {
    "transpose": lambda a: a.T,
    "vertical-flip": lambda a: a[::-1],
}


def denoise_case(rng, h: int, w: int, c: int):
    """An integer image of side ``h x w`` and a threshold config of search
    radius ``c``, the rest drawn from ``rng``."""
    p = int(rng.integers(1, min(h, w, 5) + 1))
    mode = ("constant-mean", "per-offset")[rng.integers(2)]
    sigma = float(rng.choice([3.0, 10.0, 30.0]))
    u = np.clip(np.round(128.0 + 50.0 * rng.standard_normal((h, w))), 0, 255)
    u[:, :: rng.integers(2, 6)] += 40.0  # structure, so selections differ
    nfa = min(4.41, (2 * c + 1) ** 2)
    return u, DenoiseConfig(sigma=sigma, patch_side=p, search_radius=c, nfa_max=nfa,
                            threshold_mode=mode)


# The whole case comes from one generator, so hypothesis's preference for
# small draws does not pile the cases onto c = 0 (the origin alone, where
# every selection is the same) or the smallest image; those two edges are
# explicit examples.
@st.composite
def denoise_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w, c = (int(v) for v in rng.integers((8, 8, 1), (25, 25, 5)))
    return denoise_case(rng, h, w, c)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(denoise_cases(), st.sampled_from(sorted(TRANSFORMS)))
@example(denoise_case(np.random.default_rng(0), 13, 10, 0), "transpose")
@example(denoise_case(np.random.default_rng(1), 8, 8, 2), "vertical-flip")
def test_threshold_denoising_commutes_with_transpose_and_flip(case, name):
    u, cfg = case
    move = TRANSFORMS[name]
    base = nlmeans_threshold(u, cfg)
    moved = nlmeans_threshold(np.ascontiguousarray(move(u)), cfg)
    assert np.array_equal(moved.selected_counts, move(base.selected_counts))
    np.testing.assert_allclose(moved.denoised, move(base.denoised), rtol=0, atol=DENOISED_ATOL)


# P_map is a CDF in [0, 1] at laws and statistics that agree to rounding:
# the FFTs, the autocorrelation and the engine's sums run in another order.
# Over 400 cases of this strategy the worst differences were 4.4e-13
# (shift), 3.0e-13 (gray map) and 7e-14 (transpose), all under the
# exemplar model.  They rest on as_map centering the image: its FFT sums
# round relative to the image's energy, and with the mean of about 100
# left in, near repeats moved P_map by up to 1e-11.
P_ATOL = 1e-12


def _transpose(u, x, y):
    return u.T, y, x, lambda m: m.T


def _shift(u, x, y):
    h, w = u.shape
    sy, sx = (h * 2) // 5, (w * 3) // 7
    return np.roll(u, (sy, sx), axis=(0, 1)), x + sx, y + sy, lambda m: m


def _gray_map(u, x, y):
    return -2.5 * u + 40.0, x, y, lambda m: m


DETECT_MOVES = {"transpose": _transpose, "shift": _shift, "gray-map": _gray_map}
MODELS = {
    "exemplar": from_exemplar,
    "white": lambda u: white_noise(u.shape, std=float(u.std())),
}


@st.composite
def detect_cases(draw):
    h, w = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    p = draw(st.integers(2, min(h, w) // 2))
    x, y = draw(st.integers(-5, w - 1)), draw(st.integers(-5, h - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ty, tx = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    tile = np.tile(rng.standard_normal((ty, tx)), (h // ty + 1, w // tx + 1))[:h, :w]
    u = 100.0 + 20.0 * tile + draw(st.sampled_from([1.0, 5.0, 20.0])) * rng.standard_normal((h, w))
    return u, x, y, p, draw(st.sampled_from([1.0, 10.0]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(detect_cases(), st.sampled_from(sorted(DETECT_MOVES)), st.sampled_from(sorted(MODELS)))
def test_detection_commutes_with_transpose_shift_and_gray_map(case, name, model):
    u, x, y, p, nfa = case
    moved_u, mx, my, move = DETECT_MOVES[name](u, x, y)
    base = autosim_detection(u, PatchDomain(anchor=(x, y), side=p), MODELS[model](u), nfa)
    moved = autosim_detection(
        moved_u, PatchDomain(anchor=(mx, my), side=p), MODELS[model](moved_u), nfa
    )
    want_p = move(base.p_map)
    np.testing.assert_allclose(moved.p_map, want_p, rtol=0, atol=P_ATOL)
    near_q = np.abs(want_p - nfa / u.size) <= P_ATOL
    assert np.array_equal(moved.d_map[~near_q], move(base.d_map)[~near_q])
