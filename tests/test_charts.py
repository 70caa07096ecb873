"""Differential tests: the vectorised cycle-chart build, the per-point arrays
derived from a listing, and the chart carried through conjugation, against
the per-point loop they replaced.

``chart_loop`` is the per-point loop that ``CycleChart.of`` replaced, kept
as a test-only oracle.  The permutations are generated: random permutations, rotations,
products of disjoint cycles on shuffled points, permutations with many fixed
points, and the one-point space.  A chart is its listing (``order`` and
``cycle_len``): ``pos`` and ``cycle_of`` are derived from it on first read,
and a factor built from listings reads its generators off them.  A carried
chart must equal a fresh chart of the conjugate, and the closed-form charts
of the shift templates (rotations and grid shifts) must equal
``CycleChart.of`` of their generators.  A corrupted listing, carried or
written by a template, must fail these differential checks, and
``CycleChart.follows``, the oracle that checks a listing against a forward
array, must reject it.  No run or verify calls ``follows``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z
from test_golden import CONFIGS, GOLDEN

from orbitrewire import AbelianGroupSpec, FactorAction, FiniteSpace, Permutation, generate
from orbitrewire.actions import CycleChart
from orbitrewire.config import RunConfig
from orbitrewire.generate import generate_factor
from orbitrewire.runner import execute, verify_report_file, write_report_files

SETTINGS = settings(max_examples=150, deadline=None)
FIELDS = ("order", "pos", "cycle_of", "cycle_start", "cycle_len")


# ---------------------------------------------------------------------------
# oracle: the per-point loop
# ---------------------------------------------------------------------------

def chart_loop(forward) -> dict[str, np.ndarray]:
    n = forward.shape[0]
    order = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    cycle_of = np.empty(n, dtype=np.int64)
    starts: list[int] = []
    lens: list[int] = []
    visited = np.zeros(n, dtype=bool)
    cursor = 0
    cyc = 0
    for x0 in range(n):
        if visited[x0]:
            continue
        starts.append(cursor)
        x = x0
        length = 0
        while not visited[x]:
            visited[x] = True
            order[cursor] = x
            pos[x] = length
            cycle_of[x] = cyc
            cursor += 1
            length += 1
            x = int(forward[x])
        lens.append(length)
        cyc += 1
    return {"order": order, "pos": pos, "cycle_of": cycle_of,
            "cycle_start": np.array(starts, dtype=np.int64),
            "cycle_len": np.array(lens, dtype=np.int64)}


def assert_same_chart(chart: CycleChart, ref: dict[str, np.ndarray]) -> None:
    for name in FIELDS:
        got = getattr(chart, name)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, ref[name], err_msg=name)


def chart_of_segments(segments: list[list[int]]) -> CycleChart:
    """A chart listing exactly these cycles in this order, canonical or not."""
    return CycleChart(np.array([x for seg in segments for x in seg], dtype=np.int64),
                      np.array([len(seg) for seg in segments], dtype=np.int64))


def segments(chart: CycleChart) -> list[list[int]]:
    return [chart.order[s:s + l].tolist() for s, l in zip(chart.cycle_start, chart.cycle_len)]


# ---------------------------------------------------------------------------
# generated permutations
# ---------------------------------------------------------------------------

@st.composite
def forwards(draw, min_n: int = 1) -> np.ndarray:
    kind = draw(st.sampled_from(("random", "rotation", "cycles", "fixed")))
    n = draw(st.integers(min_n, 120))
    if kind == "random":
        return np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    if kind == "rotation":
        return (np.arange(n, dtype=np.int64) + draw(st.integers(0, n - 1))) % n
    points = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    forward = np.arange(n, dtype=np.int64)
    if kind == "cycles":
        # a product of disjoint cycles of drawn lengths on shuffled points
        cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=8)))
        for cyc in np.split(points, [c for c in cuts if c < n]):
            forward[cyc] = np.roll(cyc, -1)
    else:
        # a random permutation of a few points; every other point is fixed
        moved = points[:draw(st.integers(0, min(n, 6)))]
        forward[moved] = moved[np.asarray(draw(st.permutations(range(len(moved)))),
                                          dtype=np.int64)]
    return forward


def perm(forward: np.ndarray) -> Permutation:
    return Permutation(FiniteSpace(len(forward)), forward)


def random_perm(data, n: int) -> Permutation:
    return perm(np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64))


# ---------------------------------------------------------------------------
# the build
# ---------------------------------------------------------------------------

@SETTINGS
@given(forwards())
def test_chart_matches_loop(forward):
    chart = CycleChart.of(forward)
    assert_same_chart(chart, chart_loop(forward))
    assert chart.follows(forward)


@pytest.mark.parametrize("kind", ["rotation", "random", "identity"])
def test_chart_matches_loop_on_long_cycles(kind):
    # thousands of points: many doubling and list-ranking rounds
    n = 4999
    rng = np.random.default_rng(7)
    forward = {"rotation": (np.arange(n) + 1234) % n, "random": rng.permutation(n),
               "identity": np.arange(n)}[kind].astype(np.int64)
    chart = CycleChart.of(forward)
    assert_same_chart(chart, chart_loop(forward))
    assert chart.n_cycles == {"rotation": 1, "identity": n}.get(kind, chart.n_cycles)


def test_chart_of_one_point():
    assert_same_chart(CycleChart.of(np.zeros(1, dtype=np.int64)), chart_loop(np.zeros(1)))


def check_listing(forward: np.ndarray) -> None:
    """A chart made from the loop's listing alone derives the loop's ``pos``
    and ``cycle_of`` and reads ``forward`` off the listing; so does
    ``CycleChart.of``, whose per-point arrays come from pointer doubling."""
    ref = chart_loop(forward)
    listed = CycleChart(ref["order"], ref["cycle_len"])
    assert_same_chart(listed, ref)
    np.testing.assert_array_equal(listed.forward_array(), forward)
    doubled = CycleChart.of(forward)
    assert_same_chart(listed, {name: getattr(doubled, name) for name in FIELDS})
    np.testing.assert_array_equal(doubled.forward_array(), forward)


@SETTINGS
@given(forwards())
def test_listing_derives_the_per_point_arrays_and_the_forward_array(forward):
    check_listing(forward)


@pytest.mark.parametrize("forward", [
    np.zeros(1, dtype=np.int64),
    np.arange(4999, dtype=np.int64),
    (np.arange(4999, dtype=np.int64) + 1234) % 4999,
], ids=["one-point", "fixed-points", "one-long-cycle"])
def test_listing_cases(forward):
    check_listing(forward)


# ---------------------------------------------------------------------------
# the carry through conjugation
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_conjugated_matches_fresh_chart(data):
    p = perm(data.draw(forwards()))
    r = random_perm(data, p.space.n_points)
    q = p.conjugate(r)
    carried = CycleChart.of(p.forward).conjugated(r)
    assert_same_chart(carried, chart_loop(q.forward))
    assert carried.follows(q.forward)


@SETTINGS
@given(st.data())
def test_factor_conjugate_carries_the_charts(data):
    a, b = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 8))
    i, j = np.divmod(np.arange(a * b), b)
    sp = FiniteSpace(a * b)
    gens = (Permutation(sp, ((i + 1) % a) * b + j), Permutation(sp, i * b + (j + 1) % b))
    spec = data.draw(st.sampled_from((AbelianGroupSpec(2), AbelianGroupSpec(1, (b,)))))
    f = FactorAction(spec, sp, gens)
    r = random_perm(data, sp.n_points)
    g = f.conjugate(r)
    for d, p in enumerate(g.gens):
        assert p == f.gens[d].conjugate(r)
        assert_same_chart(g.charts[d], chart_loop(p.forward))
    assert carry_matches(f, r, g)


def carry_matches(f: FactorAction, r: Permutation, g: FactorAction) -> bool:
    """The differential check of ``g = f.conjugate(r)``: its generators are
    the conjugated ones and its charts are the loop's charts of them."""
    for p, q, chart in zip(f.gens, g.gens, g.charts, strict=True):
        want = p.conjugate(r)
        ref = chart_loop(want.forward)
        if q != want or any(not np.array_equal(getattr(chart, name), ref[name])
                            for name in FIELDS):
            return False
    return True


# ---------------------------------------------------------------------------
# corrupted listings
# ---------------------------------------------------------------------------

# a chart is its listing, so these corrupt ``order`` or ``cycle_len``; the
# per-point arrays ``pos`` and ``cycle_of`` are derived from the listing and
# cannot be wrong apart from it
CORRUPTIONS = ("order", "rotated", "unsorted", "reversed", "cycle_len")


def corrupt(chart: CycleChart, how: str) -> CycleChart:
    """A copy of the chart that is wrong in one way; None if ``how`` cannot apply."""
    segs = segments(chart)
    longest = max(range(len(segs)), key=lambda c: len(segs[c]))
    if how == "order" and chart.n > 1:
        # two listed points swapped
        flat = chart.order.tolist()
        flat[0], flat[-1] = flat[-1], flat[0]
        return chart_of_segments([flat[s:s + l] for s, l in
                                           zip(chart.cycle_start, chart.cycle_len)])
    if how == "rotated" and len(segs[longest]) > 1:
        # a true cycle that does not start at its minimum
        segs[longest] = segs[longest][1:] + segs[longest][:1]
        return chart_of_segments(segs)
    if how == "unsorted" and len(segs) > 1:
        # true cycles, not listed by increasing minimum
        segs[0], segs[1] = segs[1], segs[0]
        return chart_of_segments(segs)
    if how == "reversed" and len(segs[longest]) > 2:
        # a cycle of the inverse: canonical in form, but not following g
        segs[longest] = segs[longest][:1] + segs[longest][:0:-1]
        return chart_of_segments(segs)
    if how == "cycle_len" and len(segs[longest]) > 1:
        # the same points in the same order, the longest cycle split in two
        segs[longest:longest + 1] = [segs[longest][:1], segs[longest][1:]]
        return chart_of_segments(segs)
    return None


@SETTINGS
@given(st.data(), st.sampled_from(CORRUPTIONS))
def test_corrupted_carried_chart_fails_the_check(data, how):
    p = perm(data.draw(forwards(min_n=2)))
    r = random_perm(data, p.space.n_points)
    q = p.conjugate(r)
    carried = CycleChart.of(p.forward).conjugated(r)
    # the same cycles rebuilt by the helper pass, so only the corruption can fail
    assert chart_of_segments(segments(carried)).follows(q.forward)
    bad = corrupt(carried, how)
    if bad is not None:
        assert not bad.follows(q.forward)


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_factor_conjugate_rejects_a_corrupted_carry(monkeypatch, how):
    sp = FiniteSpace(12)
    f = FactorAction(Z, sp, (Permutation(sp, np.array([1, 2, 0, 4, 5, 6, 3, 7, 9, 10, 11, 8])),))
    r = Permutation(sp, np.random.default_rng(3).permutation(12))
    assert carry_matches(f, r, f.conjugate(r))
    carry = CycleChart.conjugated

    def corrupted(c, r):
        bad = corrupt(carry(c, r), how)
        assert bad is not None
        return bad

    monkeypatch.setattr(CycleChart, "conjugated", corrupted)
    assert not carry_matches(f, r, f.conjugate(r))


# ---------------------------------------------------------------------------
# closed-form charts of the shift templates
# ---------------------------------------------------------------------------

def shift_forward(dims: list[int], d: int, step: int) -> np.ndarray:
    """The grid shift of coordinate d by step, point by point."""
    coords = list(np.unravel_index(np.arange(int(np.prod(dims))), dims))
    coords[d] = (coords[d] + step) % dims[d]
    return np.ravel_multi_index(coords, dims).astype(np.int64)


def check_template(template: dict) -> None:
    grid = template["name"] == "grid_shift"
    n = int(np.prod(template["dims"])) if grid else template["n"]
    f = generate_factor(FiniteSpace(n), template)
    steps = template["steps"] if grid else [template["step"]]
    for d, (p, chart) in enumerate(zip(f.gens, f.charts, strict=True)):
        want = (shift_forward(template["dims"], d, steps[d]) if grid
                else (np.arange(n, dtype=np.int64) + steps[d]) % n)
        np.testing.assert_array_equal(p.forward, want)
        ref = CycleChart.of(p.forward)
        assert_same_chart(chart, {name: getattr(ref, name) for name in FIELDS})


@st.composite
def shift_templates(draw) -> dict:
    if draw(st.booleans()):
        n = draw(st.integers(1, 120))
        # negative steps, steps >= N and step 0 included; the space size
        # rides along in "n", which generate_factor ignores
        return {"name": "rotation", "n": n, "step": draw(st.integers(-3 * n, 3 * n))}
    dims = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3))
    steps = [draw(st.integers(-2 * m, 2 * m)) for m in dims]
    return {"name": "grid_shift", "dims": dims, "steps": steps}


@SETTINGS
@given(shift_templates())
def test_closed_form_chart_matches_doubling(template):
    check_template(template)


@pytest.mark.parametrize("template", [
    {"name": "rotation", "n": 1, "step": 0},
    {"name": "rotation", "n": 1, "step": -4},
    {"name": "rotation", "n": 12, "step": 0},
    {"name": "rotation", "n": 12, "step": 8},
    {"name": "rotation", "n": 12, "step": -9},
    {"name": "rotation", "n": 12, "step": 29},
    {"name": "rotation", "n": 4999, "step": 1234},
    {"name": "rotation", "n": 5000, "step": 1234},
    {"name": "grid_shift", "dims": [6, 4], "steps": [4, 2]},
    {"name": "grid_shift", "dims": [6, 4], "steps": [-3, 6]},
    {"name": "grid_shift", "dims": [4, 6, 3], "steps": [2, 3, -3]},
    {"name": "grid_shift", "dims": [4, 6, 3], "steps": [0, 9, 1]},
], ids=lambda t: "_".join(str(v) for k, v in t.items() if k != "name"))
def test_closed_form_chart_cases(template):
    check_template(template)


# every chart here has several cycles of length 3 or 4, so each corruption applies
@pytest.mark.parametrize("template", [
    {"name": "rotation", "n": 12, "step": 4},
    {"name": "grid_shift", "dims": [3, 4], "steps": [1, 1]},
], ids=["rotation", "grid_shift"])
@pytest.mark.parametrize("how", CORRUPTIONS)
def test_corrupted_template_chart_is_rejected(monkeypatch, template, how):
    check_template(template)
    shift = generate._shift

    def corrupted(n, stride, m, step):
        bad = corrupt(shift(n, stride, m, step), how)
        assert bad is not None
        return bad

    monkeypatch.setattr(generate, "_shift", corrupted)
    # an array comparison fails, not the guard that the corruption applies
    with pytest.raises(AssertionError, match="Arrays are not equal"):
        check_template(template)


# ---------------------------------------------------------------------------
# no run or verify checks a chart against its generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_run_and_verify_never_call_follows(monkeypatch, tmp_path, name, seed):
    def refuse(chart, forward):
        raise AssertionError("CycleChart.follows called on the run or verify path")

    monkeypatch.setattr(CycleChart, "follows", refuse)
    _, report = execute(RunConfig.from_dict({**CONFIGS[name], "seed": seed}))
    json_path, _ = write_report_files(report, tmp_path)
    assert verify_report_file(json_path)
