import io
import math
from dataclasses import fields

import numpy as np
import pytest

from softctc import (
    ConfusionNetwork,
    ConfusionSet,
    DecodeConfig,
    Labeling,
    NBestList,
    PosteriorMatrix,
    Segment,
    ValidationError,
    Vocabulary,
    compile_cn,
    compile_nbest,
    ctc_loss,
    decode_line,
    greedy_decode,
    merge_cns,
    multi_ctc,
    prune,
    smooth,
    soft_ctc_loss,
    trivial_cn,
)
from softctc import io as formats
from softctc.bench import BenchConfig, BenchReport, BenchRow, synthetic_vocabulary
from softctc.cli import build_parser, main

V = Vocabulary.from_characters("ab")

AMBIGUOUS_LINE = np.array(
    [
        [0.0025, 0.0025, 0.995],
        [0.995, 0.0025, 0.0025],
        [0.0025, 0.0025, 0.995],
        [0.5, 0.5, 0.0],
        [0.0025, 0.0025, 0.995],
    ]
)


# argmax path b, a collapses to "ba"; a beam of one keeps only "b", so the
# listing must carry the greedy fallback entry the network was built with
GREEDY_PRUNED_LINE = np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])


@pytest.fixture
def posterior_file(tmp_path):
    path = tmp_path / "line.post"
    formats.write_posteriors(path, PosteriorMatrix(AMBIGUOUS_LINE), V)
    return str(path)


def write_cn_file(tmp_path, name, cn, v=V):
    path = tmp_path / name
    formats.write_cn(path, cn, v)
    return str(path)


def parsed_loss(capsys):
    lines = capsys.readouterr().out.splitlines()
    values = {}
    for ln in lines:
        key, _, rest = ln.partition(" ")
        if key in ("loss", "log_likelihood"):
            values[key] = float(rest)
    return values


class TestDecodeCommand:
    def test_writes_cn_and_nbest(self, posterior_file, tmp_path, capsys):
        out_cn = str(tmp_path / "line.cn")
        out_nbest = str(tmp_path / "line.nbest")
        rc = main(
            ["decode", posterior_file, "--out-cn", out_cn, "--out-nbest", out_nbest]
        )
        assert rc == 0
        cn, _, meta = formats.read_cn(out_cn, V)
        assert len(cn.sets) == 2
        assert cn.sets[0].alternatives == {0: 1.0}
        assert cn.sets[1].alternatives == {0: 0.5, 1: 0.5}
        assert meta["strategy"] == "partial"
        groups = formats.read_nbest(out_nbest, V)
        assert [seg.confident for seg, _ in groups] == [True, False, True]

    def test_default_output_paths(self, posterior_file, capsys):
        rc = main(["decode", posterior_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert posterior_file + ".cn" in out
        formats.read_cn(posterior_file + ".cn", V)
        formats.read_nbest(posterior_file + ".nbest", V)

    def test_full_strategy_and_raw_scores(self, posterior_file, tmp_path):
        out_cn = str(tmp_path / "raw.cn")
        rc = main(
            [
                "decode",
                posterior_file,
                "--strategy",
                "full",
                "--beam",
                "128",
                "--raw",
                "--out-cn",
                out_cn,
                "--out-nbest",
                str(tmp_path / "raw.nbest"),
            ]
        )
        assert rc == 0
        cn, _, _ = formats.read_cn(out_cn, V)
        assert not cn.normalized

    @pytest.mark.parametrize("strategy", ["partial", "full"])
    @pytest.mark.parametrize("frames, beam", [(AMBIGUOUS_LINE, 16), (GREEDY_PRUNED_LINE, 1)])
    def test_nbest_listing_is_the_networks_source(self, tmp_path, frames, beam, strategy):
        y = PosteriorMatrix(frames)
        path = str(tmp_path / "line.post")
        formats.write_posteriors(path, y, V)
        out_cn = str(tmp_path / "line.cn")
        out_nbest = str(tmp_path / "line.nbest")
        rc = main(
            ["decode", path, "--beam", str(beam), "--strategy", strategy,
             "--out-cn", out_cn, "--out-nbest", out_nbest]
        )
        assert rc == 0
        decoded = decode_line(y, V, DecodeConfig(beam_size=beam, strategy=strategy))
        groups = formats.read_nbest(out_nbest, V)
        assert tuple(seg for seg, _ in groups) == decoded.segments
        assert tuple(nbest for _, nbest in groups) == decoded.nbests
        for seg, nbest in groups:
            greedy = greedy_decode(PosteriorMatrix(frames[seg.start : seg.end]), V)
            assert greedy in [lab for lab, _ in nbest]
        cn, _, _ = formats.read_cn(out_cn, V)
        assert cn.sets == decoded.network.sets

    def test_missing_input_is_io_error(self, tmp_path):
        assert main(["decode", str(tmp_path / "absent.post")]) == 3

    def test_bad_beam_is_validation_error(self, posterior_file):
        assert main(["decode", posterior_file, "--beam", "0"]) == 1


class TestLossCommand:
    def test_transcript_target_matches_ctc(self, posterior_file, capsys):
        rc = main(["loss", posterior_file, "--transcript", "a"])
        assert rc == 0
        got = parsed_loss(capsys)
        expected = ctc_loss(PosteriorMatrix(AMBIGUOUS_LINE), V.encode("a"), V)
        assert got["loss"] == pytest.approx(expected.loss, rel=1e-12)

    def test_cn_target_matches_library_loss(self, posterior_file, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 1.0}), ConfusionSet({0: 0.5, 1: 0.5})),
            normalized=True,
        )
        cn_path = write_cn_file(tmp_path, "target.cn", cn)
        rc = main(["loss", posterior_file, "--cn", cn_path])
        assert rc == 0
        got = parsed_loss(capsys)
        expected = soft_ctc_loss(PosteriorMatrix(AMBIGUOUS_LINE), compile_cn(cn, V))
        assert got["loss"] == pytest.approx(expected.loss, rel=1e-12)

    def test_nbest_compiled_agrees_with_naive(self, posterior_file, tmp_path, capsys):
        nbest = NBestList(
            ((Labeling((0, 0)), 0.5), (Labeling((0, 1)), 0.3), (Labeling((0,)), 0.2))
        )
        path = str(tmp_path / "target.nbest")
        formats.write_nbest(path, [(Segment(0, 5, confident=False), nbest)], V)

        rc = main(["loss", posterior_file, "--nbest", str(path)])
        assert rc == 0
        compiled = parsed_loss(capsys)

        rc = main(["loss", posterior_file, "--nbest", str(path), "--naive"])
        assert rc == 0
        naive = parsed_loss(capsys)
        assert abs(compiled["log_likelihood"] - naive["log_likelihood"]) < 1e-8

        y = PosteriorMatrix(AMBIGUOUS_LINE)
        assert naive["loss"] == pytest.approx(multi_ctc(y, nbest, V).loss, rel=1e-12)
        assert compiled["loss"] == pytest.approx(
            soft_ctc_loss(y, compile_nbest(nbest, V)).loss, rel=1e-12
        )

    def test_gradient_dump(self, posterior_file, tmp_path, capsys):
        grad_path = str(tmp_path / "grad.txt")
        rc = main(["loss", posterior_file, "--transcript", "a", "--grad", grad_path])
        assert rc == 0
        with open(grad_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# gradient v1"
        assert len(lines) == 2 + AMBIGUOUS_LINE.shape[0]

    def test_multi_group_nbest_file_is_validation_error(self, posterior_file, tmp_path, capsys):
        path = str(tmp_path / "target.nbest")
        nbest = NBestList(((Labeling((0,)), 1.0),))
        formats.write_nbest(path, [(Segment(0, 2, confident=True), nbest),
                                   (Segment(2, 5, confident=False), nbest)], V)
        assert main(["loss", posterior_file, "--nbest", path]) == 1
        assert "loss expects a single n-best group" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path):
        path = tmp_path / "short.post"
        formats.write_posteriors(
            path, PosteriorMatrix(np.full((2, 3), 1.0 / 3.0)), V
        )
        assert main(["loss", str(path), "--transcript", "aa"]) == 2

    def test_unknown_symbol_is_validation_error(self, posterior_file):
        assert main(["loss", posterior_file, "--transcript", "axe"]) == 1

    def test_nan_network_score_is_validation_error(self, posterior_file, tmp_path, capsys):
        path = tmp_path / "nan.cn"
        path.write_text("# confusion-network v1\nsets 1\nset a nan b 0.5\n")
        assert main(["loss", posterior_file, "--cn", str(path)]) == 1
        assert "alternative scores must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_network_total_is_validation_error(
        self, posterior_file, tmp_path, capsys, value
    ):
        path = tmp_path / "total.cn"
        path.write_text(
            f"# confusion-network v1\nnormalized false\ntotal {value}\nsets 1\nset a 0.5\n"
        )
        assert main(["loss", posterior_file, "--cn", str(path)]) == 1
        assert "total score must be positive and finite" in capsys.readouterr().err

    def test_naive_requires_nbest(self, posterior_file):
        assert main(["loss", posterior_file, "--transcript", "a", "--naive"]) == 1

    def test_nan_posterior_is_validation_error(self, tmp_path, capsys):
        frames = AMBIGUOUS_LINE.copy()
        frames[3, 0] = float("nan")
        path = tmp_path / "nan.post"
        formats.write_posteriors(path, PosteriorMatrix(frames), V)
        assert main(["loss", str(path), "--transcript", "a"]) == 1
        assert "non-finite posterior nan at frame 3, symbol 0" in capsys.readouterr().err


class TestTransformCommand:
    def make_raw(self, tmp_path):
        a = ConfusionNetwork(
            (ConfusionSet({0: 0.5}, 0.2), ConfusionSet({1: 0.7})),
            normalized=False,
            total_score=0.7,
        )
        b = ConfusionNetwork(
            (ConfusionSet({0: 0.25},), ConfusionSet({1: 0.2}, 0.05)),
            normalized=False,
            total_score=0.25,
        )
        return (
            write_cn_file(tmp_path, "a.cn", a),
            write_cn_file(tmp_path, "b.cn", b),
            a,
            b,
        )

    def test_pipeline_merge_then_prune_then_smooth(self, tmp_path, capsys):
        path_a, path_b, a, b = self.make_raw(tmp_path)
        out = str(tmp_path / "merged.cn")
        rc = main(
            [
                "transform",
                path_a,
                "--merge",
                path_b,
                "--prune",
                "0.01",
                "--smooth",
                "2",
                "-o",
                out,
            ]
        )
        assert rc == 0
        got, _, meta = formats.read_cn(out, V)
        expected = smooth(prune(merge_cns([a, b]), 0.01), 2.0)
        assert got.normalized
        assert len(got.sets) == len(expected.sets)
        for gs, es in zip(got.sets, expected.sets):
            assert gs.alternatives == pytest.approx(es.alternatives)
            assert gs.null == pytest.approx(es.null)
        assert meta["merged"] == "2"

    @pytest.mark.parametrize("text", ["two", "2x", ""])
    def test_bad_smoothing_text_is_validation_error(self, tmp_path, capsys, text):
        path_a, _, _, _ = self.make_raw(tmp_path)
        rc = main(["transform", path_a, "--smooth", text, "-o", str(tmp_path / "out.cn")])
        assert rc == 1
        assert f"bad smoothing exponent {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "out.cn").exists()

    def test_merge_accepts_disjoint_symbol_sets(self, tmp_path):
        a = ConfusionNetwork(
            (ConfusionSet({0: 0.8}),), normalized=False, total_score=0.8
        )
        b = ConfusionNetwork(
            (ConfusionSet({1: 0.5}),), normalized=False, total_score=0.5
        )
        path_a = write_cn_file(tmp_path, "only-a.cn", a)
        path_b = write_cn_file(tmp_path, "only-b.cn", b)
        out = str(tmp_path / "union.cn")
        rc = main(["transform", path_a, "--merge", path_b, "-o", out])
        assert rc == 0
        got, v, _ = formats.read_cn(out)
        merged_symbols = set()
        for s in got.sets:
            merged_symbols.update(v.symbols[k] for k in s.alternatives)
        assert merged_symbols == {"a", "b"}

    def test_malformed_header_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad-total.cn"
        path.write_text("# confusion-network v1\nnormalized false\ntotal abc\nsets 1\nset a 1.0\n")
        assert main(["transform", str(path)]) == 1
        assert capsys.readouterr().err == "error: bad total 'abc'\n"

    def test_repeated_symbol_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "repeat.cn"
        path.write_text("# confusion-network v1\nsets 1\nset a 0.3 a 0.2 <null> 0.5\n")
        assert main(["transform", str(path)]) == 1
        assert capsys.readouterr().err == "error: set line 1: repeated 'a'\n"

    def test_network_with_no_sets_passes_through(self, tmp_path, capsys):
        path = tmp_path / "empty.cn"
        formats.write_cn(path, trivial_cn(Labeling(())), V)
        assert main(["transform", str(path)]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_merge_rejects_normalized_inputs(self, tmp_path):
        cn = ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True)
        path_a = write_cn_file(tmp_path, "n1.cn", cn)
        path_b = write_cn_file(tmp_path, "n2.cn", cn)
        assert main(["transform", path_a, "--merge", path_b]) == 1

    def test_smooth_inf_gives_uniform_sets(self, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.9, 1: 0.1}),), normalized=True
        )
        path = write_cn_file(tmp_path, "peaky.cn", cn)
        rc = main(["transform", path, "--smooth", "inf"])
        assert rc == 0
        got, _, _ = formats.read_cn(io.StringIO(capsys.readouterr().out), V)
        assert got.sets[0].alternatives == {0: 0.5, 1: 0.5}

    def test_prune_drops_rare_alternatives(self, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.994, 1: 0.006}),), normalized=True
        )
        path = write_cn_file(tmp_path, "noisy.cn", cn)
        rc = main(["transform", path, "--prune", "0.01"])
        assert rc == 0
        got, _, _ = formats.read_cn(io.StringIO(capsys.readouterr().out), V)
        assert got.sets[0].alternatives == {0: 1.0}

    def test_plain_pass_normalizes_raw_input(self, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.4}, 0.4),), normalized=False, total_score=0.8
        )
        path = write_cn_file(tmp_path, "raw.cn", cn)
        rc = main(["transform", path])
        assert rc == 0
        got, _, _ = formats.read_cn(io.StringIO(capsys.readouterr().out), V)
        assert got.normalized
        assert got.sets[0].alternatives == {0: 0.5}
        assert got.sets[0].null == 0.5


class TestFilterCommand:
    def write_corpus(self, tmp_path):
        # spread of outlier metrics: wider sets score higher
        networks = {
            "clean1.cn": ConfusionNetwork((ConfusionSet({0: 1.0}),), normalized=True),
            "clean2.cn": ConfusionNetwork(
                (ConfusionSet({0: 1.0}), ConfusionSet({1: 1.0})), normalized=True
            ),
            "mid.cn": ConfusionNetwork(
                (ConfusionSet({0: 0.7, 1: 0.3}),), normalized=True
            ),
            "wild.cn": ConfusionNetwork(
                (ConfusionSet({0: 0.4, 1: 0.3}, 0.3), ConfusionSet({0: 0.5, 1: 0.5})),
                normalized=True,
            ),
        }
        return [write_cn_file(tmp_path, name, cn) for name, cn in networks.items()]

    def test_drop_fraction_zero_keeps_all(self, tmp_path, capsys):
        files = self.write_corpus(tmp_path)
        rc = main(["filter", *files, "--drop-frac", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(ln.startswith("keep\t") for ln in lines)

    def test_drops_highest_metric_half(self, tmp_path, capsys):
        files = self.write_corpus(tmp_path)
        rc = main(["filter", *files, "--drop-frac", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = [ln.split("\t")[0] for ln in lines]
        assert verdicts == ["keep", "keep", "drop", "drop"]
        metrics = [float(ln.split("\t")[1]) for ln in lines]
        assert metrics == sorted(metrics)

    def test_identical_metrics_tie_break_by_name(self, tmp_path, capsys):
        cn = ConfusionNetwork((ConfusionSet({0: 0.6, 1: 0.4}),), normalized=True)
        files = [
            write_cn_file(tmp_path, name, cn)
            for name in ("d.cn", "b.cn", "c.cn", "a.cn")
        ]
        rc = main(["filter", *files, "--drop-frac", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        order = [ln.split("\t")[2] for ln in lines]
        assert order == sorted(files)
        assert [ln.split("\t")[0] for ln in lines] == ["keep", "keep", "drop", "drop"]

    def test_rejects_full_drop(self, tmp_path):
        files = self.write_corpus(tmp_path)
        assert main(["filter", *files, "--drop-frac", "1.0"]) == 1


class TestBenchCommand:
    def test_small_run_emits_rows_and_ratios(self, capsys):
        rc = main(
            [
                "bench",
                "--batch",
                "2",
                "--frames",
                "32",
                "--vocab",
                "12",
                "--beam",
                "4",
                "--repeats",
                "2",
                "--warmup",
                "0",
                "--seed",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "# batch=2 " in out
        for method in ("ctc", "softctc", "compile"):
            assert f"row method={method} " in out
        assert "ratio softctc/(beam*ctc)" in out

    def test_flags_are_exactly_the_config_fields(self):
        # every BenchConfig knob has a flag and every flag feeds a knob, with
        # the same defaults on both sides
        args = vars(build_parser().parse_args(["bench"]))
        del args["command"]
        assert set(args) == {f.name for f in fields(BenchConfig)}
        assert BenchConfig(**args) == BenchConfig()

    def test_rejects_tiny_dimensions(self):
        assert main(["bench", "--frames", "4"]) == 1

    @pytest.mark.parametrize("changed, match", [
        ({"batch": 0}, "batch size must be positive"),
        ({"batch": -2}, "batch size must be positive"),
        ({"repeats": 0}, "bad repeat counts"),
        ({"repeats": -1}, "bad repeat counts"),
        ({"warmup": -1}, "bad repeat counts"),
    ])
    def test_config_rejects_bad_counts(self, changed, match):
        with pytest.raises(ValidationError, match=match):
            BenchConfig(**changed)

    @pytest.mark.parametrize("field", [f.name for f in fields(BenchConfig)])
    def test_config_rejects_a_field_that_is_not_an_integer(self, field):
        for value in (8.5, True, "9"):
            with pytest.raises(ValidationError, match=f"{field} must be an integer"):
                BenchConfig(**{field: value})
        assert getattr(BenchConfig(**{field: np.int64(9)}), field) == 9

    def test_report_row_rejects_an_unknown_method(self):
        report = BenchReport(BenchConfig(), (BenchRow("ctc", 1.0, 0.0, 0.5),), 0.1, 2.0, 1.0)
        assert report.row("ctc").per_line_ms == 0.5
        with pytest.raises(KeyError, match="softctc"):
            report.row("softctc")

    def test_generator_vocabulary_needs_two_letters(self):
        assert len(synthetic_vocabulary(3)) == 3
        with pytest.raises(ValidationError, match="vocabulary too small for the generator"):
            synthetic_vocabulary(2)


class TestOracleCommand:
    def test_ctc_probability(self, tmp_path, capsys):
        path = tmp_path / "tiny.post"
        y = np.array([[0.6, 0.1, 0.3], [0.2, 0.3, 0.5]])
        formats.write_posteriors(path, PosteriorMatrix(y), V)
        rc = main(["oracle", "ctc", str(path), "--transcript", "a"])
        assert rc == 0
        value = float(capsys.readouterr().out.split()[1])
        # paths: a., .a, aa with . the blank
        assert value == pytest.approx(0.6 * 0.5 + 0.3 * 0.2 + 0.6 * 0.2, rel=1e-12)

    def test_strings_weights_sum_to_one(self, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 0.6, 1: 0.3}, 0.1), ConfusionSet({0: 1.0})),
            normalized=True,
        )
        path = write_cn_file(tmp_path, "pair.cn", cn)
        rc = main(["oracle", "strings", path])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert math.fsum(float(ln.split()[0]) for ln in lines) == pytest.approx(1.0)

    def test_softctc_matches_loss_command(self, posterior_file, tmp_path, capsys):
        cn = ConfusionNetwork(
            (ConfusionSet({0: 1.0}), ConfusionSet({0: 0.5, 1: 0.5})),
            normalized=True,
        )
        cn_path = write_cn_file(tmp_path, "target.cn", cn)
        assert main(["oracle", "softctc", posterior_file, "--cn", cn_path]) == 0
        oracle_value = float(capsys.readouterr().out.split()[1])
        assert main(["loss", posterior_file, "--cn", cn_path]) == 0
        got = parsed_loss(capsys)
        assert oracle_value == pytest.approx(
            math.exp(got["log_likelihood"]), rel=1e-9
        )


def test_unknown_command_is_validation_error():
    assert main(["bogus"]) == 1


def test_missing_required_flag_is_validation_error(posterior_file):
    assert main(["loss", posterior_file]) == 1
