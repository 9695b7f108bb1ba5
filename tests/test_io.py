import io
import math

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    Labeling,
    NBestList,
    PosteriorMatrix,
    Segment,
    ValidationError,
    Vocabulary,
    trivial_cn,
)
from softctc.io import (
    read_cn,
    read_nbest,
    read_posteriors,
    write_cn,
    write_gradient,
    write_nbest,
    write_posteriors,
)
from softctc.oracle import reference_read_cn

V = Vocabulary.from_characters("ab ")


def roundtrip_cn(cn, v, meta=None):
    buf = io.StringIO()
    write_cn(buf, cn, v, meta)
    buf.seek(0)
    return read_cn(buf, v)


def assert_writes_nothing(write, tmp_path, match):
    """``write(out)`` raises, leaving no file at a path and nothing in a stream."""
    path, buf = tmp_path / "out", io.StringIO()
    for out in (path, buf):
        with pytest.raises(ValidationError, match=match):
            write(out)
    assert not path.exists()
    assert buf.getvalue() == ""


class TestPosteriorRoundTrip:
    def test_values_survive_bit_for_bit(self):
        rng = np.random.default_rng(101)
        y = rng.dirichlet(np.full(4, 0.5), size=7)
        buf = io.StringIO()
        write_posteriors(buf, PosteriorMatrix(y), V)
        buf.seek(0)
        back, v2 = read_posteriors(buf)
        assert np.array_equal(back.frames, y)
        # the blank display is canonicalized; letters and index must survive
        assert v2.blank == V.blank
        assert [s for i, s in enumerate(v2.symbols) if i != v2.blank] == [
            s for i, s in enumerate(V.symbols) if i != V.blank
        ]

    def test_space_symbol_uses_reserved_token(self):
        buf = io.StringIO()
        write_posteriors(buf, PosteriorMatrix(np.full((1, 4), 0.25)), V)
        text = buf.getvalue()
        assert "<space>" in text.splitlines()[1]
        buf.seek(0)
        _, v2 = read_posteriors(buf)
        assert " " in v2.symbols

    def test_serialization_is_deterministic(self):
        y = PosteriorMatrix(np.random.default_rng(0).dirichlet([1, 1, 1, 1], size=3))
        a, b = io.StringIO(), io.StringIO()
        write_posteriors(a, y, V)
        write_posteriors(b, y, V)
        assert a.getvalue() == b.getvalue()

    def test_gradient_dump_keeps_negative_values(self):
        g = np.array([[-0.5, 0.0, 0.25, -1.0]])
        buf = io.StringIO()
        write_gradient(buf, g, V)
        assert "-0.5" in buf.getvalue()

    def test_rejects_wrong_header(self):
        with pytest.raises(ValidationError):
            read_posteriors(io.StringIO("# nbest v1\n"))

    def test_rejects_ragged_rows(self):
        text = "# posteriors v1\na b <space> <blank>\n0.25 0.25 0.5\n"
        with pytest.raises(ValidationError):
            read_posteriors(io.StringIO(text))

    def test_rejects_missing_blank_token(self):
        text = "# posteriors v1\na b c d\n0.25 0.25 0.25 0.25\n"
        with pytest.raises(ValidationError):
            read_posteriors(io.StringIO(text))

    def test_rejects_empty_body(self):
        with pytest.raises(ValidationError):
            read_posteriors(io.StringIO("# posteriors v1\na <blank>\n"))

    def test_rejects_a_file_with_no_header_row(self):
        with pytest.raises(ValidationError, match="posterior file has no header row"):
            read_posteriors(io.StringIO("# posteriors v1\n# a comment\n"))

    def test_rejects_a_value_that_is_not_a_number(self):
        text = "# posteriors v1\na <blank>\n0.5 0.5\n0.5 half\n"
        with pytest.raises(ValidationError, match="row 2: could not convert string to float: 'half'"):
            read_posteriors(io.StringIO(text))

    @pytest.mark.parametrize("width", [2, 5])
    def test_write_rejects_a_width_other_than_the_vocabulary(self, width, tmp_path):
        m = PosteriorMatrix(np.full((2, width), 1 / width))
        assert_writes_nothing(lambda out: write_posteriors(out, m, V), tmp_path,
                              "matrix width does not match vocabulary")

    def test_rejects_the_null_token_in_the_header(self):
        # no writer takes such a vocabulary, and a network naming it could not
        # be told from null mass
        text = "# posteriors v1\na <null> <blank>\n0.2 0.3 0.5\n"
        with pytest.raises(ValidationError, match="<null>"):
            read_posteriors(io.StringIO(text))


class TestCnRoundTrip:
    def test_normalized_network_round_trips(self):
        cn = ConfusionNetwork(
            (
                ConfusionSet({0: 0.6, 1: 0.3}, 0.1),
                ConfusionSet({2: 1.0}),
            ),
            normalized=True,
        )
        back, v2, meta = roundtrip_cn(cn, V)
        assert back.normalized
        assert back.sets == cn.sets
        assert meta == {}

    def test_raw_network_keeps_total_score(self):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.3}, 0.4),), normalized=False, total_score=0.7
        )
        back, _, _ = roundtrip_cn(cn, V)
        assert not back.normalized
        assert back.total_score == 0.7
        assert back.sets == cn.sets

    def test_metadata_round_trips(self):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True)
        back, _, meta = roundtrip_cn(cn, V, meta={"line": "17", "source": "beam"})
        assert meta == {"line": "17", "source": "beam"}
        assert back.sets == cn.sets

    @pytest.mark.parametrize("gap", ["\t", "  ", " \t "])
    def test_keys_end_at_the_first_run_of_whitespace(self, gap):
        text = (f"# confusion-network v1\nnormalized{gap}true\nsource{gap}page  7\n"
                f"sets{gap}2\nset{gap}a 1.0\nset b 1.0\n")
        for reader in (read_cn, reference_read_cn):
            cn, _, meta = reader(io.StringIO(text), V)
            assert [s.alternatives for s in cn.sets] == [{0: 1.0}, {1: 1.0}]
            assert meta == {"source": "page  7"}

    def test_set_count_after_a_tab_is_checked(self):
        text = "# confusion-network v1\nsets\t2\nset a 1.0\n"
        for reader in (read_cn, reference_read_cn):
            with pytest.raises(ValidationError, match="expected 2 sets, found 1"):
                reader(io.StringIO(text), V)

    def test_metadata_values_keep_inner_spaces_and_read_back_as_text(self):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True)
        _, _, meta = roundtrip_cn(cn, V, meta={"note": "two  words", "merged": 2})
        assert meta == {"merged": "2", "note": "two  words"}

    @pytest.mark.parametrize("meta", [
        {"normalized": "false"}, {"total": "2.0"}, {"sets": "1"}, {"set": "a 1.0"},
        {"": "x"}, {"two words": "x"}, {"tab\tkey": "x"}, {"#note": "x"},
        {"note": "two\nlines"}, {"note": "two\rlines"}, {"note": " padded"}, {"note": "x\t"},
    ])
    def test_write_rejects_metadata_that_would_not_read_back(self, meta, tmp_path):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True)
        assert_writes_nothing(lambda out: write_cn(out, cn, V, {"line": "17", **meta}), tmp_path, "metadata")

    def test_without_vocabulary_symbols_come_from_the_file(self):
        cn = ConfusionNetwork((ConfusionSet({0: 0.5, 2: 0.5}),), normalized=True)
        buf = io.StringIO()
        write_cn(buf, cn, V)
        buf.seek(0)
        back, v2, _ = read_cn(buf)
        # first appearance order: "a" then "<space>", blank appended last
        assert v2.symbols == ("a", " ", "<blank>")
        assert back.sets[0].alternatives == {0: 0.5, 1: 0.5}

    def test_without_vocabulary_reads_a_network_with_no_sets(self):
        buf = io.StringIO()
        write_cn(buf, trivial_cn(Labeling(())), V)
        assert buf.getvalue().endswith("sets 0\n")
        buf.seek(0)
        back, v2, _ = read_cn(buf)
        assert len(back) == 0 and back.normalized
        assert v2.symbols == ("<unused>", "<blank>")
        out = io.StringIO()
        write_cn(out, back, v2)
        assert out.getvalue() == buf.getvalue()

    def test_values_survive_bit_for_bit(self):
        rng = np.random.default_rng(103)
        raw = rng.dirichlet([1.0, 1.0, 1.0])
        cn = ConfusionNetwork(
            (ConfusionSet({0: raw[0], 1: raw[1]}, raw[2]),), normalized=True
        )
        back, _, _ = roundtrip_cn(cn, V)
        assert back.sets[0].alternatives[0] == raw[0]
        assert back.sets[0].alternatives[1] == raw[1]
        assert back.sets[0].null == raw[2]

    def test_serialization_is_byte_stable(self):
        cn = ConfusionNetwork(
            (ConfusionSet({1: 0.25, 0: 0.7}, 0.05),), normalized=True
        )
        a, b = io.StringIO(), io.StringIO()
        write_cn(a, cn, V)
        write_cn(b, cn, V)
        assert a.getvalue() == b.getvalue()

    def test_rejects_blank_in_a_set(self):
        text = "# confusion-network v1\nsets 1\nset <blank> 1.0\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    def test_rejects_unknown_symbol_against_vocabulary(self):
        text = "# confusion-network v1\nsets 1\nset z 1.0\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    def test_rejects_set_count_mismatch(self):
        text = "# confusion-network v1\nsets 2\nset a 1.0\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    def test_rejects_odd_token_count(self):
        text = "# confusion-network v1\nsets 1\nset a 0.5 b\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    def test_rejects_junk_normalized_flag(self):
        text = "# confusion-network v1\nnormalized yes\nsets 1\nset a 1.0\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    def test_rejects_bad_value(self):
        for header, line, message in (
            ("sets 1", "set a one", "bad value 'one'"),
            ("sets x", "set a 1.0", "bad sets count 'x'"),
            ("sets", "set a 1.0", "bad sets count ''"),
            ("total abc", "set a 1.0", "bad total 'abc'"),
            ("total", "set a 1.0", "bad total ''"),
        ):
            text = f"# confusion-network v1\n{header}\n{line}\n"
            with pytest.raises(ValidationError, match=message):
                read_cn(io.StringIO(text), V)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_value(self, value):
        # float() parses both; a NaN score also passes the normalized check
        text = f"# confusion-network v1\nsets 1\nset a {value} b 0.5\n"
        with pytest.raises(ValidationError):
            read_cn(io.StringIO(text), V)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_total(self, value):
        text = f"# confusion-network v1\nnormalized false\ntotal {value}\nsets 1\nset a 0.5\n"
        with pytest.raises(ValidationError, match=f"positive and finite, got {value}"):
            read_cn(io.StringIO(text), V)

    @pytest.mark.parametrize(
        "line, token", [("set a 0.3 a 0.2 <null> 0.5", "a"), ("set a 0.5 <null> 0.2 <null> 0.3", "<null>")]
    )
    def test_rejects_repeated_token_in_a_set(self, line, token):
        # a repeat used to be summed: "a 0.3 a 0.2" read as "a 0.5"
        text = f"# confusion-network v1\nsets 2\nset b 1.0\n{line}\n"
        with pytest.raises(ValidationError, match=f"set line 2: repeated '{token}'"):
            read_cn(io.StringIO(text), V)

    @pytest.mark.parametrize(
        "line, message",
        [("set <null> 1.0", "at least one alternative"), ("set a 1.5 <null> -0.5", "null score")],
    )
    def test_rejects_bad_set_with_its_own_message(self, line, message):
        text = f"# confusion-network v1\nsets 2\nset b 1.0\n{line}\n"
        with pytest.raises(ValidationError, match=message):
            read_cn(io.StringIO(text), V)

    def test_reads_symbols_into_ascending_order(self):
        text = "# confusion-network v1\nsets 1\nset <space> 0.25 <null> 0.25 a 0.5\n"
        cn, _, _ = read_cn(io.StringIO(text), V)
        assert cn.symbols.tolist() == [0, 2] and cn.scores.tolist() == [0.5, 0.25]
        assert cn.nulls.tolist() == [0.25]

    @pytest.mark.parametrize("reader", [read_cn, reference_read_cn])
    def test_rejects_normalized_network_of_another_total(self, reader):
        text = "# confusion-network v1\nnormalized true\ntotal 7.5\nsets 1\nset a 1.0\n"
        with pytest.raises(ValidationError, match="a normalized network totals 1.0, got 7.5"):
            reader(io.StringIO(text), V)

    # the blank is "<blank>" in a vocabulary read_cn makes and "#" in V
    @pytest.mark.parametrize("reader", [read_cn, reference_read_cn])
    @pytest.mark.parametrize("token, v", [("<blank>", None), ("#", V)], ids=["no vocabulary", "vocabulary"])
    def test_rejects_the_blank_naming_its_line(self, reader, token, v):
        text = f"# confusion-network v1\nset a 1.0\nset b 0.5 {token} 0.5\n"
        with pytest.raises(ValidationError, match="^set line 2: confusion sets may not contain the blank$"):
            reader(io.StringIO(text), v)

    # V's blank is 3; 4 and 9 are out of range, and -1 would index from the end
    @pytest.mark.parametrize("symbol", [3, 4, 9, -1])
    def test_write_rejects_a_symbol_read_cn_would_not_take(self, symbol, tmp_path):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}), ConfusionSet({1: 0.5, symbol: 0.25}, 0.25)))
        assert_writes_nothing(
            lambda out: write_cn(out, cn, V), tmp_path, f"set 1 contains an invalid symbol {symbol}"
        )

    def test_rejects_raw_set_that_misses_the_total(self):
        text = "# confusion-network v1\nnormalized false\ntotal 0.5\nsets 1\nset a 3.0\n"
        with pytest.raises(ValidationError, match="sums to 3.0, expected 0.5"):
            read_cn(io.StringIO(text), V)


VP = Vocabulary(("a", "b", " ", "c", "#", "dd"), blank_index=4)
SYMBOL_TOKENS = ["a", "b", "<space>", "c", "dd"]
# the faults rand_cn_text injects, and the message each raises against VP
FAULTS = {
    "unpaired": "must hold symbol/value pairs",  # the last token dropped
    "bad value": "bad value",  # a value float() rejects
    "unknown": "not in vocabulary",  # without a vocabulary, a new symbol
    "blank": "may not contain the blank",  # without one, a symbol or a clash
    "repeated": "repeated",  # a token named twice
    "bad score": "and finite",  # a value float() parses that a set rejects
}


def rand_cn_text(rng, fault_lines, faults_per_line):
    """A network text of 1-6 set lines of VP symbols and ``<null>`` in any
    order, with ``faults_per_line`` distinct faults on each of ``fault_lines``
    lines.  Values come in assorted float spellings, and every set of a raw
    network totals its ``total``.
    """
    normalized = bool(rng.integers(0, 2))
    total = 1.0 if normalized else float(rng.uniform(0.1, 2.0))
    lines = []
    for _ in range(int(rng.integers(max(fault_lines, 1), 7))):
        tokens = [str(t) for t in rng.permutation(SYMBOL_TOKENS)[: int(rng.integers(1, 5))]]
        if rng.random() < 0.5:
            tokens.insert(int(rng.integers(0, len(tokens) + 1)), "<null>")
        raw = rng.uniform(0.05, 1.0, size=len(tokens)).tolist()
        scale = total / math.fsum(raw)
        spell = rng.choice([repr, lambda x: f"{x:.17e}", lambda x: f"{x:.17E}"])
        lines.append([[tok, spell(scale * x)] for tok, x in zip(tokens, raw)])
    unpaired = set()
    for line in rng.choice(len(lines), size=fault_lines, replace=False).tolist():
        pairs = lines[line]
        for fault in rng.choice(list(FAULTS), size=faults_per_line, replace=False).tolist():
            at = int(rng.integers(0, len(pairs)))
            if fault == "unpaired":
                unpaired.add(line)
            elif fault == "bad value":
                pairs[at][1] = str(rng.choice(["x", "1..5", "0,5", "--1", "<null>"]))
            elif fault == "unknown":
                pairs[at][0] = "zz"
            elif fault == "blank":
                pairs[at][0] = str(rng.choice(["#", "<blank>"]))
            elif fault == "repeated":
                pairs.insert(int(rng.integers(0, len(pairs) + 1)), [pairs[at][0], "0.5"])
            else:
                pairs[at][1] = str(rng.choice(["-0.5", "nan", "0", "inf", "-inf"]))
    body = []
    for k, pairs in enumerate(lines):
        tokens = [tok for pair in pairs for tok in pair]
        body.append(" ".join(["set"] + tokens[: -1 if k in unpaired else None]))
    head = [f"normalized {'true' if normalized else 'false'}", f"total {total!r}"]
    if rng.random() < 0.5:
        head.append("source page-7")
    if rng.random() < 0.5:
        head.append(f"sets {len(lines)}")
    return "\n".join(["# confusion-network v1"] + head + body) + "\n"


def read_outcome(reader, text, v):
    """Every bit of what ``reader`` returns, or its exception type and text."""
    try:
        cn, vocab, meta = reader(io.StringIO(text), v)
    except Exception as exc:
        return type(exc), str(exc)
    bits = [cn.offsets.tolist(), cn.symbols.tolist(), [x.hex() for x in cn.scores.tolist()]]
    return bits + [[x.hex() for x in cn.nulls.tolist()], cn.normalized, cn.total_score.hex(), vocab, meta]


class TestReadCnMatchesReference:
    """The bulk parser against the line-by-line one in the oracle."""

    @pytest.mark.parametrize("v", [VP, None], ids=["vocabulary", "no vocabulary"])
    def test_valid_texts(self, v):
        rng = np.random.default_rng(61)
        for _ in range(300):
            text = rand_cn_text(rng, 0, 0)
            got = read_outcome(read_cn, text, v)
            assert got == read_outcome(reference_read_cn, text, v)
            assert isinstance(got[0], list), got

    @pytest.mark.parametrize("v", [VP, None], ids=["vocabulary", "no vocabulary"])
    @pytest.mark.parametrize("fault_lines, faults_per_line", [(2, 1), (1, 2), (2, 2)])
    def test_malformed_texts(self, v, fault_lines, faults_per_line):
        rng = np.random.default_rng(67 + 3 * fault_lines + faults_per_line)
        raised = dict.fromkeys(FAULTS, 0)
        # a bad score shows only when no line fails to parse, so without a
        # vocabulary, where it is checked, three times as many texts are read
        for _ in range(300 if v is not None else 900):
            text = rand_cn_text(rng, fault_lines, faults_per_line)
            got = read_outcome(read_cn, text, v)
            assert got == read_outcome(reference_read_cn, text, v), text
            for fault, message in FAULTS.items():
                raised[fault] += not isinstance(got[0], list) and message in got[1]
        # against VP few texts parse far enough to show a bad score; without
        # a vocabulary, unknown symbols and "#" are symbols like any other
        if v is not None:
            expected = ["unpaired", "bad value", "unknown", "blank", "repeated"]
        else:
            expected = ["unpaired", "bad value", "blank", "repeated", "bad score"]
        assert min(raised[fault] for fault in expected) >= 10, raised
        assert sum(raised.values()) >= 200, raised

    @pytest.mark.parametrize("v", [VP, None], ids=["vocabulary", "no vocabulary"])
    @pytest.mark.parametrize("text, message", [
        ("", "missing '# confusion-network v1' header"),
        ("set a 1.0\n", "missing '# confusion-network v1' header"),
        ("# confusion-network v1\nsets two\nset a 1.0\n", "bad sets count 'two'"),
        ("# confusion-network v1\nsets 2\nset a 1.0\n", "expected 2 sets, found 1"),
        ("# confusion-network v1\nnormalized yes\nset a 1.0\n",
         "normalized must be true or false, got 'yes'"),
        ("# confusion-network v1\nnormalized false\ntotal x\nset a 1.0\n", "bad total 'x'"),
        ("# confusion-network v1\nnormalized false\ntotal 2.0\ntotal 1.0\nset a 1.0\n",
         "repeated 'total' line"),
        ("# confusion-network v1\nnormalized true\nset a 1.0\nnormalized false\n",
         "repeated 'normalized' line"),
        ("# confusion-network v1\nsets 1\nsets 2\nset a 1.0\nset b 1.0\n", "repeated 'sets' line"),
        ("# confusion-network v1\nsets x\nsets 1\nset a 1.0\n", "bad sets count 'x'"),
        ("# confusion-network v1\nsource p1\nset a 1.0\nsource p2\n", "repeated 'source' line"),
    ], ids=["empty", "no magic", "sets not a number", "sets miscounted", "normalized", "total",
            "total twice", "normalized twice", "sets twice", "bad sets count first", "metadata twice"])
    def test_header_faults(self, v, text, message):
        got = read_outcome(read_cn, text, v)
        assert got[0] is ValidationError and message in got[1]
        assert read_outcome(reference_read_cn, text, v) == got

    @pytest.mark.parametrize("v", [VP, None], ids=["vocabulary", "no vocabulary"])
    def test_reads_a_path(self, v, tmp_path):
        path = tmp_path / "line.cn"
        text = "# confusion-network v1\nsets 2\nset a 0.75 <null> 0.25\nset b 1.0\n"
        path.write_text(text, encoding="utf-8")

        def outcome(reader):
            return read_outcome(lambda _, vocab: reader(path, vocab), text, v)

        assert outcome(read_cn) == outcome(reference_read_cn) == read_outcome(read_cn, text, v)


class TestNbestRoundTrip:
    def test_segment_groups_round_trip(self):
        groups = [
            (
                Segment(0, 3, confident=False),
                NBestList(((Labeling((0,)), 0.6), (Labeling((0, 1)), 0.4))),
            ),
            (
                Segment(3, 5, confident=True),
                NBestList(((Labeling((2,)), 1.0),)),
            ),
        ]
        buf = io.StringIO()
        write_nbest(buf, groups, V)
        buf.seek(0)
        back = read_nbest(buf, V)
        assert len(back) == 2
        for (seg, nbest), (seg2, nbest2) in zip(groups, back):
            assert seg2 == seg
            assert tuple(nbest2) == tuple(nbest)

    def test_headerless_single_list(self):
        text = "# nbest v1\n0.75 a b\n0.25 a\n"
        back = read_nbest(io.StringIO(text), V)
        assert len(back) == 1
        seg, nbest = back[0]
        assert seg is None
        assert nbest.entries[0] == (Labeling((0, 1)), 0.75)

    @pytest.mark.parametrize("text", [
        "# nbest v1\n0.75 a b\n0.25 a\n",
        "# nbest v1\n1.0 a\nsegment 1 3 unconfident\n0.5 b\n0.25 <space>\n",
    ])
    def test_headerless_group_writes_back_as_read(self, text):
        buf = io.StringIO()
        write_nbest(buf, read_nbest(io.StringIO(text), V), V)
        assert buf.getvalue() == text

    def test_write_rejects_a_later_group_without_a_segment(self, tmp_path):
        # read_nbest would fold its entries into the group before it
        nbest = NBestList(((Labeling((0,)), 1.0),))
        groups = [(Segment(0, 2, confident=True), nbest), (None, nbest)]
        assert_writes_nothing(lambda out: write_nbest(out, groups, V), tmp_path, "n-best group 1 has no segment")

    def test_write_rejects_no_groups(self, tmp_path):
        # read_nbest rejects a file with no entries
        assert_writes_nothing(lambda out: write_nbest(out, [], V), tmp_path, "no n-best groups")

    # V's blank is 3; 4 and 9 are out of range
    @pytest.mark.parametrize("symbol", [3, 4, 9])
    def test_write_rejects_a_symbol_read_nbest_would_not_take(self, symbol, tmp_path):
        groups = [
            (Segment(0, 2, confident=True), NBestList(((Labeling((0,)), 1.0),))),
            (Segment(2, 5, confident=False),
             NBestList(((Labeling((1,)), 0.5), (Labeling((0, symbol)), 0.25)))),
        ]
        assert_writes_nothing(
            lambda out: write_nbest(out, groups, V), tmp_path, f"group 1 variant 1 contains an invalid symbol {symbol}"
        )

    def test_empty_labeling_entry(self):
        text = "# nbest v1\n1.0\n"
        (_, nbest), = read_nbest(io.StringIO(text), V)
        assert nbest.entries[0][0].symbols == ()

    def test_rejects_empty_group(self):
        text = "# nbest v1\nsegment 0 2 confident\n"
        with pytest.raises(ValidationError):
            read_nbest(io.StringIO(text), V)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValidationError):
            read_nbest(io.StringIO("# nbest v1\nheavy a\n"), V)

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValidationError):
            read_nbest(io.StringIO("# nbest v1\n1.0 z\n"), V)

    @pytest.mark.parametrize("line", ["segment 0 3", "segment 0 3 sure", "segment 0 3 confident extra"])
    def test_rejects_a_bad_segment_line(self, line):
        text = f"# nbest v1\n{line}\n1.0 a\n"
        with pytest.raises(ValidationError, match=f"bad segment line '{line}'"):
            read_nbest(io.StringIO(text), V)

    @pytest.mark.parametrize("text", ["# nbest v1\n", "# nbest v1\n# only a comment\n\n"])
    def test_rejects_a_file_with_no_entries(self, text):
        with pytest.raises(ValidationError, match="n-best file has no entries"):
            read_nbest(io.StringIO(text), V)

    @pytest.mark.parametrize("bounds", ["a 3", "0 3.5", "0 x"])
    def test_rejects_malformed_segment_bounds(self, bounds):
        text = f"# nbest v1\nsegment {bounds} unconfident\n1.0 a\n"
        start, end = bounds.split()
        with pytest.raises(ValidationError, match=f"bad segment bounds '{start}' '{end}'"):
            read_nbest(io.StringIO(text), V)


# each writer on one frame or one line that uses symbol 1
WRITERS = {
    "posteriors": lambda out, v: write_posteriors(out, PosteriorMatrix(np.full((1, 3), 1 / 3)), v),
    "gradient": lambda out, v: write_gradient(out, np.zeros((1, 3)), v),
    "nbest": lambda out, v: write_nbest(out, [(None, NBestList(((Labeling((0, 1)), 1.0),)))], v),
    "cn": lambda out, v: write_cn(out, trivial_cn(Labeling((0, 1))), v),
}


@pytest.mark.parametrize("symbol", ["b c", "<null>"])
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_refuse_a_symbol_no_reader_takes_back(writer, symbol, tmp_path):
    v = Vocabulary(("a", symbol, "<blank>"), blank_index=2)
    assert_writes_nothing(lambda out: WRITERS[writer](out, v), tmp_path, repr(symbol))
