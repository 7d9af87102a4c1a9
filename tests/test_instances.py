import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from delgraphs import instances
from delgraphs.instances import (Instance, ParseError, emit_instance,
                                 generate_bounded_instance, generate_instance,
                                 parse_instance, parse_rational, sample_witness_search,
                                 sampled_edges, translation_window)
from delgraphs.rng import SplitMix64, derive_seed
from delgraphs.builder import PointSet
from delgraphs.geometry import point
from delgraphs.region import feasible
from delgraphs.shape import HOMOTHET, MODES, TRANSLATE, contains, shape_from_rows

F = Fraction

MINIMAL = """\
# minimal two-point instance
mode translate
shape 1
0 1 5/2 closed
points 2
0 0
1/2 -3
"""


def test_parse_minimal_and_reemit():
    inst = parse_instance(MINIMAL)
    assert inst.mode == TRANSLATE and inst.seed is None
    assert len(inst.points) == 2 and len(inst.shape.halfplanes) == 1
    text = emit_instance(inst)
    assert parse_instance(text) == inst
    assert emit_instance(parse_instance(text)) == text  # normalized fixed point


def test_round_trip_generated_instances():
    for seed in range(30):
        inst = generate_instance(seed, 6, 5, HOMOTHET, F(1, 4))
        assert parse_instance(emit_instance(inst)) == inst


def test_round_trip_preserves_seed_line():
    inst = generate_instance(987654321, 3, 3, TRANSLATE, F(0))
    assert inst.seed == 987654321
    assert "seed 987654321" in emit_instance(inst)
    assert parse_instance(emit_instance(inst)).seed == 987654321


@pytest.mark.parametrize("bad,fragment", [
    ("mode translate\nshape 1\n1 0 1/0 closed\npoints 1\n0 0\n", "zero denominator"),
    ("mode translate\nshape 1\n1 0 1 closed\npoints 2\n0 0\n0 0\n", "duplicate point"),
    ("mode translate\nshape 1\n0 0 1 closed\npoints 1\n0 0\n", "nonzero"),
    ("mode sideways\nshape 0\npoints 1\n0 0\n", "unknown mode"),
    ("mode translate\nshape 1\n1 0 1 open\npoints 1\n0 0\n", "strict|closed"),
    ("mode translate\nshape 1\n1 0 1.5 closed\npoints 1\n0 0\n", "malformed rational"),
    ("mode translate\nshape 1\n1 0 one closed\npoints 1\n0 0\n", "malformed rational"),
    ("mode translate\nshape 2\n1 0 1 closed\npoints 1\n0 0\n", "half-plane"),
    ("mode translate\nshape 1\n1 0 1 closed\npoints 1\n0 0\nextra\n", "trailing"),
    ("", "unexpected end"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_instance("mode translate\nshape 1\n1 0 1/0 closed\npoints 1\n0 0\n")
    assert err.value.line_no == 3


# every break of str.splitlines() that text-mode open() keeps in a line
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", SPLITLINES_ONLY, ids=lambda c: f"U+{ord(c):04X}")
def test_only_line_breaks_end_a_line(char):
    """A comment may hold any other character: it stays one line, and an
    error reports the file's own line number."""
    inst = parse_instance(MINIMAL)
    assert parse_instance(MINIMAL.replace("\n", f" # note {char} more\n", 2)) == inst
    assert parse_instance(MINIMAL.replace("\n", f" # {char}\n")) == inst
    bad = MINIMAL.replace("0 0\n", "0 0 0\n")  # line 6
    for text in (bad, bad.replace("\n", f" # {char}\n")):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line_no == 6


def test_crlf_and_cr_line_breaks_parse():
    inst = parse_instance(MINIMAL)
    assert parse_instance(MINIMAL.replace("\n", "\r\n")) == inst
    assert parse_instance(MINIMAL.replace("\n", "\r")) == inst
    with pytest.raises(ParseError) as err:
        parse_instance(MINIMAL.replace("0 0\n", "0 0 0\n").replace("\n", "\r\n"))
    assert err.value.line_no == 6


LONG_DIGITS = "1" * 5000  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("bad,line_no", [
    ("mode translate\nshape \u00b2\npoints 0\n", 2),
    ("mode translate\nshape 0\npoints \u00b3\n", 3),
    ("mode translate\nseed \u00b2\nshape 0\npoints 0\n", 2),
    (f"mode translate\nseed {LONG_DIGITS}\nshape 0\npoints 0\n", 2),
    (f"mode translate\nshape 1\n1 0 {LONG_DIGITS} closed\npoints 0\n", 3),
    ("mode translate\nshape \u0661\n1 0 \u0661/\u0662 closed\npoints 0\n", 2),
    ("mode translate\nshape 1\n1 0 \u0661/\u0662 closed\npoints 0\n", 3),
    ("mode translate\nshape 1\n\uff11 0 1 closed\npoints 0\n", 3),
    ("mode translate\nshape 0\npoints \u0967\n", 3),
    ("mode translate\nshape 0\npoints 1\n0 -\u0663\n", 4),
    ("mode translate\nseed \u0663\nshape 0\npoints 0\n", 2),
], ids=["shape-superscript", "points-superscript", "seed-superscript",
        "seed-too-long", "rational-too-long", "shape-arabic-indic",
        "rational-arabic-indic", "coefficient-fullwidth", "points-devanagari",
        "point-arabic-indic", "seed-arabic-indic"])
def test_parse_error_on_tokens_int_rejects(bad, line_no):
    # str.isdigit() accepts superscripts that int() rejects; int() reads
    # other scripts' digits, which emit_instance would write back as
    # ASCII, so accepting them would break the byte-exact round trip
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert err.value.line_no == line_no


ODD_TOKENS = ["\u00b2", "\u00b3", "\u0663", "\u0661/\u0662", "1/0", "1e3",
              str(2 ** 64), "-1", "1.5", "", LONG_DIGITS, f"1/{LONG_DIGITS}"]


@st.composite
def mutated_instance_texts(draw):
    """A valid generated instance with one token replaced by a drawn one."""
    inst = generate_instance(draw(st.integers(0, 2 ** 64 - 1)),
                             draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                             draw(st.sampled_from(MODES)), F(1, 2))
    lines = [line.split() for line in emit_instance(inst).splitlines()]
    row = draw(st.integers(0, len(lines) - 1))
    col = draw(st.integers(0, len(lines[row]) - 1))
    lines[row][col] = draw(st.one_of(
        st.sampled_from(ODD_TOKENS),
        st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=3),
        st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@settings(deadline=None)
@given(text=mutated_instance_texts())
@example(text="mode translate\nshape \u00b2\npoints 0\n")
@example(text="mode translate\nshape 0\npoints \u00b3\n")
@example(text="mode translate\nseed \u00b2\nshape 0\npoints 0\n")
def test_parse_instance_raises_only_parse_error(text):
    try:
        parse_instance(text)
    except ParseError:
        pass


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("-6/4") == F(-3, 2)
    with pytest.raises(ParseError):
        parse_rational("4/")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_generator_deterministic():
    a = generate_instance(1, 4, 4, TRANSLATE, F(1, 4))
    b = generate_instance(1, 4, 4, TRANSLATE, F(1, 4))
    assert a == b
    c = generate_instance(2, 4, 4, TRANSLATE, F(1, 4))
    assert c != a


def test_generator_open_fraction_extremes():
    closed = generate_instance(10, 3, 6, TRANSLATE, F(0))
    assert all(not h.strict for h in closed.shape.halfplanes)
    open_ = generate_instance(10, 3, 6, TRANSLATE, F(1))
    assert all(h.strict for h in open_.shape.halfplanes)


def test_generator_unbounded_fraction():
    lean = sum(1 for s in range(300)
               if len(generate_instance(s, 2, 6, TRANSLATE, F(0)).shape.halfplanes) <= 2)
    # ~10% of seeds force k <= 2 (plus dedup collisions on normal seeds)
    assert lean >= 20


def test_generator_points_in_window_and_distinct():
    inst = generate_instance(3, 10, 4, TRANSLATE, F(1, 2))
    pts = inst.points.points
    assert len(set(pts)) == 10
    for p in pts:
        assert -8 <= p.x <= 8 and -8 <= p.y <= 8
        assert p.x.denominator <= 8 and p.y.denominator <= 8


def test_generator_validates_arguments():
    with pytest.raises(ValueError):
        generate_instance(1, 0, 4, TRANSLATE, F(0))
    with pytest.raises(ValueError):
        generate_instance(1, 4, 0, TRANSLATE, F(0))
    with pytest.raises(ValueError):
        generate_instance(1, 4, 4, TRANSLATE, F(3, 2))
    with pytest.raises(ValueError):
        generate_bounded_instance(1, 4, 2, HOMOTHET)


def test_generators_take_the_seeds_their_files_carry():
    """A seed line holds an unsigned 64-bit integer, so the generators
    reject any other seed, and the largest one round-trips."""
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            generate_instance(seed, 3, 3, TRANSLATE, F(0))
        with pytest.raises(ValueError):
            generate_bounded_instance(seed, 3, 3, HOMOTHET)
    top = (1 << 64) - 1
    for inst in (generate_instance(top, 3, 3, TRANSLATE, F(0)),
                 generate_bounded_instance(top, 3, 3, HOMOTHET)):
        assert inst.seed == top and parse_instance(emit_instance(inst)) == inst


def test_bounded_generator_is_bounded_closed_nonempty():
    from delgraphs.region import constraint
    for seed in range(40):
        inst = generate_bounded_instance(seed, 4, 5, HOMOTHET)
        assert all(not h.strict for h in inst.shape.halfplanes)
        # nonempty with interior: the origin satisfies all constraints strictly
        assert all(h.b > 0 for h in inst.shape.halfplanes)
        # bounded iff the recession cone {x : a_i . x <= 0 for all i} is {0}:
        # no unit step in any probe direction may stay inside the cone
        rec = tuple(
            constraint(h.a, 0) for h in inst.shape.halfplanes)
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1)):
            probe = rec + (constraint((-d[0], -d[1]), -1),)
            assert feasible(2, probe) is None


def test_sample_witness_search_finds_easy_pair():
    inst = parse_instance(MINIMAL)
    w = sample_witness_search(inst, 0, 1, 1000, seed=5)
    assert w is not None
    assert contains(inst.shape, w, inst.points[0])
    assert contains(inst.shape, w, inst.points[1])


def test_sample_witness_search_blocked_collinear():
    sq = shape_from_rows([(1, 0, 1, False), (-1, 0, 0, False),
                          (0, 1, 1, False), (0, -1, 0, False)])
    inst = Instance(PointSet((point(0, 0), point(F(1, 2), 0), point(1, 0))),
                    sq, TRANSLATE)
    assert sample_witness_search(inst, 0, 2, 20_000, seed=1) is None


def test_sample_witness_search_respects_mode():
    sq = shape_from_rows([(1, 0, 1, False), (-1, 0, 0, False),
                          (0, 1, 1, False), (0, -1, 0, False)])
    pts = PointSet((point(0, 0), point(2, 0), point(0, 2), point(2, 2)))
    t_inst = Instance(pts, sq, TRANSLATE)
    h_inst = Instance(pts, sq, HOMOTHET)
    # side pair needs lam ~ 2: impossible in translate mode
    assert sample_witness_search(t_inst, 0, 1, 20_000, seed=3) is None
    w = sample_witness_search(h_inst, 0, 1, 20_000, seed=3)
    assert w is not None and w.scale != 1


def test_translation_window():
    pts = PointSet((point(F(-1, 2), 0), point(3, F(7, 2))))
    lox, hix, loy, hiy = translation_window(pts)
    assert lox <= -1 and hix >= 3 and loy <= 0 and hiy >= 4
    assert hix - lox >= 2 * 4 and hiy - loy >= 2 * 4


def test_below_draws_further_words_only_beyond_2_64():
    """Up to n = 2**64 a draw is one word, ``next_u64() % n`` as it always
    was, so the streams stay put; beyond it the draws reach the whole
    range, as the window of the points (0, 0) and (10**18, 1) times a
    ``t_den`` of 32 needs."""
    for n in (1, 7, 32, 2**63 + 1, 2**64 - 1, 2**64):
        gen, ref = SplitMix64(5), SplitMix64(5)
        assert [gen.below(n) for _ in range(200)] == [ref.next_u64() % n for _ in range(200)]
    lox, hix, _, _ = translation_window(PointSet((point(0, 0), point(10**18, 1))))
    n = (hix - lox) * 32 + 1
    assert n > 5 * 2**64
    gen = SplitMix64(5)
    draws = [gen.below(n) for _ in range(1000)]
    assert max(draws) < n and sum(d >= 2**64 for d in draws) > 700


def test_sample_search_argument_validation():
    inst = parse_instance(MINIMAL)
    with pytest.raises(ValueError):
        sample_witness_search(inst, 0, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_witness_search(inst, 0, 1, 0, seed=0)
    for i, j in ((0, 99), (-1, 0), (0, 2), (-2, 1)):
        with pytest.raises(ValueError):
            sample_witness_search(inst, i, j, 10, seed=0)


def test_sampled_edges_makes_its_integer_forms_once(monkeypatch):
    """One shape clearing, one point grid and one window per call, not one
    per pair; the edges are those of ``sample_witness_search`` pair by pair."""
    inst = generate_instance(11, 5, 5, HOMOTHET, F(1, 4))
    names = ("integer_rows", "scale_to_integers", "translation_window")
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _f=getattr(instances, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(instances, name, counted)
    found = sampled_edges(inst, 300, 7)
    assert calls == dict.fromkeys(names, 1)
    pairs = enumerate(combinations(range(len(inst.points)), 2))
    assert found == {(a, b) for k, (a, b) in pairs
                     if sample_witness_search(inst, a, b, 300, derive_seed(7, k))}
    assert len(found) == 4
    with pytest.raises(ValueError):
        sampled_edges(inst, 0, 7)


def test_sampled_edges_rejects_zero_trials_at_every_n():
    for n in (1, 2):
        with pytest.raises(ValueError):
            sampled_edges(generate_instance(11, n, 5, HOMOTHET, F(1, 4)), 0, 7)


def test_sample_witness_search_answers_are_pinned():
    """Every ordered pair of unbounded, strict and bounded instances in
    both modes; the digest pins the drawn placements and the misses."""
    insts = [generate_instance(s, 5, 4, m, F(1, 2)) for s in range(6) for m in MODES]
    insts += [generate_bounded_instance(s, 5, 4, m) for s in range(3) for m in MODES]
    assert any(len(inst.shape.halfplanes) <= 2 for inst in insts)
    assert any(h.strict for inst in insts for h in inst.shape.halfplanes)
    out = []
    for s, inst in enumerate(insts):
        n = len(inst.points)
        for i in range(n):
            for j in range(n):
                if i != j:
                    w = sample_witness_search(inst, i, j, 60, seed=s * 100 + i * n + j)
                    out.append("-" if w is None else
                               f"{w.translation[0]} {w.translation[1]} {w.scale}")
    assert len(out) - out.count("-") == 48
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
        "847149766c996b12a9d58cc0ad25d6d76ae686080ebf16550a46f773865cf719")
