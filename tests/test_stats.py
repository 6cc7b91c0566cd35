from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sggkit
from sggkit.ingest import Dataset, graph_to_obj
from sggkit.model import Triplet, Vocabulary, categorical_triplets
from sggkit.stats import (
    TripletFrequencyTable,
    build_frequency_table,
    marginal_distributions,
    predicate_frequencies,
    shot_subsets,
    triplet_set_from_json_obj,
)

from .conftest import (
    ABOVE, CAT, DOG, ON, PERSON, SURFBOARD, WAVE, dataset_of, make_graph, write_jsonl, write_vocab,
)


def toy_corpus(vocab):
    graphs = [
        make_graph("a", [PERSON, SURFBOARD, WAVE], [(0, ON, 1), (2, ABOVE, 0)]),
        make_graph("b", [PERSON, SURFBOARD], [(0, ON, 1), (0, ON, 1)]),
        make_graph("c", [DOG, CAT], [(0, 2, 1)]),
        make_graph("d", [DOG, SURFBOARD, CAT], [(0, ON, 1), (2, ABOVE, 0)]),
        make_graph("e", [PERSON], []),
    ]
    return dataset_of(vocab, *graphs)


class TestFrequencyTable:
    def test_counts_match_brute_force(self, vocab):
        corpus = toy_corpus(vocab)
        table = build_frequency_table(corpus)
        brute = Counter()
        for graph in corpus.graphs:
            for edge in graph.edges:
                brute[
                    (graph.nodes[edge.subject].category, edge.predicate,
                     graph.nodes[edge.object].category)
                ] += 1
        assert {tuple(t): c for t, c in table.counts.items()} == dict(brute)
        assert table.total_triplets == sum(brute.values())
        assert table.distinct_triplets == len(brute)

    def test_shared_composition_counted_across_graphs(self, vocab):
        ds = dataset_of(
            vocab,
            make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)]),
            make_graph("b", [PERSON, SURFBOARD], [(0, ON, 1)]),
        )
        assert build_frequency_table(ds).count(Triplet(PERSON, ON, SURFBOARD)) == 2

    def test_empty_edges_everywhere(self, vocab):
        ds = dataset_of(vocab, make_graph("a", [PERSON], []), make_graph("b", [DOG], []))
        assert build_frequency_table(ds).counts == {}

    def test_graph_order_invariance(self, vocab):
        corpus = toy_corpus(vocab)
        reversed_ds = Dataset(vocab, tuple(reversed(corpus.graphs)))
        assert build_frequency_table(corpus).counts == build_frequency_table(reversed_ds).counts

    def test_json_round_trip(self, vocab):
        table = build_frequency_table(toy_corpus(vocab))
        again = TripletFrequencyTable.from_json_obj(table.to_json_obj())
        assert again.counts == table.counts


def brute_first_repeat(rows):
    seen = set()
    for i, row in enumerate(rows):
        key = (row["s"], row["p"], row["o"])
        if key in seen:
            return i
        seen.add(key)
    return None


id_values = st.sampled_from([0, 1, 2, 2**31, 2**40, 2**62])


class TestTableColumns:
    """`from_json_obj` reads rows straight into columns; the dict form is
    derived on demand and equals the one the row-by-row reader built."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(id_values, id_values, id_values, st.integers(1, 2**62)),
                    max_size=12))
    def test_rows_read_like_a_dict_of_rows(self, spocs):
        rows = [{"s": s, "p": p, "o": o, "count": c} for s, p, o, c in spocs]
        repeat = brute_first_repeat(rows)
        if repeat is not None:
            r = rows[repeat]
            with pytest.raises(ValueError, match=rf"duplicate triplet Triplet\(subject_category="
                                                 rf"{r['s']}, predicate={r['p']}, "
                                                 rf"object_category={r['o']}\)"):
                TripletFrequencyTable.from_json_obj(rows)
            return
        table = TripletFrequencyTable.from_json_obj(rows)
        expected = {Triplet(r["s"], r["p"], r["o"]): r["count"] for r in rows}
        assert table.distinct_triplets == len(rows)
        assert table.total_triplets == sum(expected.values())
        assert list(table.counts.items()) == list(expected.items())
        assert table.to_json_obj() == TripletFrequencyTable(expected).to_json_obj()
        for got, want in zip(table._columns, TripletFrequencyTable(expected)._columns):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_loaded_table_builds_no_dict_for_graphn(self, vocab):
        from sggkit.ingest import EmbeddingTable
        from sggkit.perturb import PerturbationConfig, PerturbationResources, perturb_dataset

        corpus = toy_corpus(vocab)
        table = TripletFrequencyTable.from_json_obj(build_frequency_table(corpus).to_json_obj())
        table.check_vocabulary(vocab)
        assert table.distinct_triplets == 5
        embeddings = EmbeddingTable(np.random.default_rng(0).normal(size=(vocab.num_objects, 4)))
        resources = PerturbationResources(embeddings, table)
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=2, alpha=0)
        _, records = perturb_dataset(corpus, cfg, resources)
        assert any(r.replacements for r in records)
        assert "counts" not in vars(table)
        assert table.count(Triplet(PERSON, ON, SURFBOARD)) == 3
        assert "counts" in vars(table)

    def test_dataset_table_builds_only_what_it_reads(self, vocab):
        """`stats` and `subsets` read the dict alone; graphn builds the columns and
        both indexes, and reads them."""
        from sggkit.ingest import EmbeddingTable
        from sggkit.perturb import PerturbationConfig, PerturbationResources, perturb_dataset

        corpus = toy_corpus(vocab)
        table = build_frequency_table(corpus)
        table.to_json_obj(), table.total_triplets, table.distinct_triplets
        shot_subsets(corpus, table)
        assert set(vars(table)) == {"counts"}
        embeddings = EmbeddingTable(np.random.default_rng(0).normal(size=(vocab.num_objects, 4)))
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=2, alpha=0)
        perturb_dataset(corpus, cfg, PerturbationResources(embeddings, table))
        assert {"_columns", "by_predicate_object", "by_subject_predicate"} <= set(vars(table))

    @pytest.mark.parametrize("rows, message", [
        ([{"s": 0, "p": 0, "o": 1, "count": 0}], "non-positive count 0"),
        ([{"s": 0, "p": -1, "o": 1, "count": 2}], "negative category or predicate id"),
        ([{"s": 0, "p": 0, "o": 2**63, "count": 2}], "does not fit in 64 bits"),
        ([{"s": 0, "p": 0, "o": 1, "count": 2}, {"s": 0, "p": 0, "o": 1, "count": 2}],
         "duplicate triplet"),
    ])
    def test_bad_rows_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            TripletFrequencyTable.from_json_obj(rows)

    @pytest.mark.parametrize("value", [1.9, 2.0, True, "2", None])
    @pytest.mark.parametrize("key", ["s", "p", "o", "count"])
    def test_values_must_be_json_integers(self, key, value):
        rows = [{"s": 0, "p": 0, "o": 1, "count": 2}, {"s": 1, "p": 0, "o": 1, "count": 2}]
        rows[1][key] = value
        with pytest.raises(TypeError, match=rf"row 1 '{key}': expected an integer"):
            TripletFrequencyTable.from_json_obj(rows)
        if key != "count":
            with pytest.raises(TypeError, match=rf"row 1 '{key}': expected an integer"):
                triplet_set_from_json_obj(rows)


def groups(table, name):
    """A grouping of `table` as {key: (members, counts)}."""
    keys, bounds, members, counts = getattr(table, name)
    return {(a, b): (members[bounds[k]:bounds[k + 1]].tolist(),
                     counts[bounds[k]:bounds[k + 1]].tolist())
            for a, row in keys.items() for b, k in row.items()}


def test_groups_keep_keys_apart_for_any_int64_ids():
    """A combined key a * (max b + 1) + b wraps past 2**63 here and merged the first
    two groups into (0, 2**24): ([5, 6], [3, 4])."""
    table = TripletFrequencyTable(
        {Triplet(5, 0, 2**24): 3, Triplet(6, 2**24, 0): 4, Triplet(7, 1, 2**40): 2})
    assert groups(table, "by_predicate_object") == {
        (0, 2**24): ([5], [3]), (1, 2**40): ([7], [2]), (2**24, 0): ([6], [4])}
    assert groups(table, "by_subject_predicate") == {
        (5, 0): ([2**24], [3]), (6, 2**24): ([0], [4]), (7, 1): ([2**40], [2])}


def read_both_ways(text):
    """(the `perturb --stats` reader's outcome, `from_json_obj`'s outcome) on `text`:
    a table, or the type and message of the error raised."""
    outcomes = []
    for read in (TripletFrequencyTable.from_stats_json,
                 lambda f: TripletFrequencyTable.from_json_obj(json.load(f)["triplets"])):
        try:
            outcomes.append(read(io.StringIO(text)))
        except (KeyError, TypeError, ValueError) as e:
            outcomes.append((type(e), str(e)))
    return outcomes


def assert_same_table(got, want):
    for a, b in zip(got._columns, want._columns):
        assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
    assert list(got.counts.items()) == list(want.counts.items())
    for name in ("by_predicate_object", "by_subject_predicate"):
        assert list(groups(got, name).items()) == list(groups(want, name).items())


LAYOUTS = ["compact", "indent", "shuffled", "extra_row_keys", "extra_top_key"]


def stats_text(rows, layout, draw):
    """`rows` as a stats file in `layout`: compact, `indent=2` with sorted keys (as
    `stats` writes it), each row's keys in a drawn order, rows with keys beyond the
    four (a nested row among them), or row-shaped objects under a second top-level key."""
    extra = [{"s": 1, "p": 2, "o": 3, "count": 4}]
    if layout == "shuffled":
        rows = [dict(draw(st.permutations(list(r.items())))) for r in rows]
    elif layout == "extra_row_keys":
        rows = [{**r, "id": k, "nested": extra} if k % 2 else r for k, r in enumerate(rows)]
    payload = {"triplets": rows, "predicate_freq": [0.5, 0.5]}
    if layout == "extra_top_key":
        before = draw(st.booleans())
        payload = {"a": extra, **payload} if before else {**payload, "z": extra * 2}
    if layout == "indent":
        return json.dumps(payload, indent=2, sort_keys=True)
    return json.dumps(payload, separators=(",", ":"))


class TestStatsFileReader:
    """`from_stats_json`, the `perturb --stats` reader, decodes straight into columns
    and gives what `from_json_obj` gives on the decoded rows, tables and errors alike."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(id_values, id_values, id_values,
                              st.sampled_from([1, 2, 3, 2**40, 2**63 - 1])), max_size=10),
           st.sampled_from(LAYOUTS), st.data())
    def test_reads_like_from_json_obj(self, spocs, layout, data):
        rows = [{"s": s, "p": p, "o": o, "count": c} for s, p, o, c in spocs]
        got, want = read_both_ways(stats_text(rows, layout, data.draw))
        if isinstance(want, tuple):
            assert got == want and brute_first_repeat(rows) is not None
        else:
            assert_same_table(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0, 1, -1, 2**63, 1.5, True, None, "1"]),
                              st.sampled_from(["s", "p", "o", "count"])), max_size=3),
           st.integers(0, 5), st.sampled_from(LAYOUTS), st.data())
    def test_rejects_like_from_json_obj(self, edits, bad_at, layout, data):
        rows = [{"s": k, "p": 0, "o": 1, "count": 2} for k in range(5)]
        for value, key in edits:
            rows[min(bad_at, 4)][key] = value
        got, want = read_both_ways(stats_text(rows, layout, data.draw))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_table(got, want)

    @pytest.mark.parametrize("text", [
        '{"triplets": [7]}',
        '{"triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}, 7]}',
        '{"triplets": [{"s": {"s": 0, "p": 0, "o": 1, "count": 2}, "p": 0, "o": 1, "count": 2}]}',
        '{"triplets": [{"s": [{"s": 0, "p": 0, "o": 1, "count": 2}], "p": 0, "o": 1, "count": 2}]}',
        '{"triplets": {"s": 0, "p": 0, "o": 1, "count": 2}}',
        '{"triplets": {}}',
        '{"triplets": ""}',
        '{"s": 0, "p": 0, "o": 1, "count": 2}',
        '{"s": 0, "p": 0, "o": 1, "count": 2, "triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}]}',
        '[{"s": 0, "p": 0, "o": 1, "count": 2}]',
        '{"triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}], '
        '"triplets": [{"s": 1, "p": 0, "o": 1, "count": 3}]}',
        '{"triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}, {"s": 0, "p": 0, "o": 1}]}',
        '{"triplets": [{"s": {"count": 2, "o": 1, "p": 0, "s": 0}, "p": 0, "o": 1, "count": 2}]}',
    ], ids=["int-row", "int-after-row", "row-valued-id", "list-of-row-id", "row-not-list",
            "empty-object", "empty-string", "bare-row", "row-shaped-top", "top-level-list",
            "repeated-key", "missing-key-after-row", "row-valued-id-in-file-order"])
    def test_odd_files_read_like_from_json_obj(self, text):
        got, want = read_both_ways(text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_table(got, want)


def compact(payload) -> str:
    """`payload` as `perfbench/gen.py` writes a stats file (rows keyed count, o, p, s)."""
    return json.dumps(payload, separators=(",", ":"))


def indented(payload) -> str:
    """`payload` as `sggkit stats` writes it."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sorted_rows(*spocs):
    return [{"count": c, "o": o, "p": p, "s": s} for s, p, o, c in spocs]


ROWS = sorted_rows((0, 0, 1, 2), (1, 0, 1, 3))
FIXED_LAYOUTS = {"compact": compact, "indent": indented}


def counted_read(text, monkeypatch):
    """`from_stats_json` on `text`, and its calls into the reference: each text
    `json.loads` was given, and None for each `from_json_obj` call."""
    loads, calls, read = json.loads, [], TripletFrequencyTable.from_json_obj.__func__
    monkeypatch.setattr(json, "loads", lambda s, **kw: calls.append(s) or loads(s, **kw))
    monkeypatch.setattr(TripletFrequencyTable, "from_json_obj",
                        classmethod(lambda cls, rows: calls.append(None) or read(cls, rows)))
    table = TripletFrequencyTable.from_stats_json(io.StringIO(text))
    monkeypatch.undo()
    return table, calls


def reached_reference(calls) -> bool:
    """Whether the rows went through `from_json_obj` or `json.loads`."""
    return any(c is None or '"count"' in c for c in calls)


def assert_reads_alike(text):
    """Both readers give the same table, or the same error, on `text`; returns the
    reference's outcome."""
    got, want = read_both_ways(text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_table(got, want)
    return want


class TestStatsFileText:
    """The layouts this repository writes are read from the text; every other file goes
    to `from_json_obj(json.load(f)["triplets"])` and gives what it gives."""

    def test_written_stats_files_never_reach_json_or_from_json_obj(self, vocab, tmp_path,
                                                                    monkeypatch):
        """A silent fallback would lose the text path's time and fail no other test."""
        from sggkit.cli import main

        write_vocab(tmp_path / "vocab.json", vocab.object_names, vocab.predicate_names)
        write_jsonl(tmp_path / "train.jsonl", [graph_to_obj(g) for g in toy_corpus(vocab).graphs])
        assert main(["stats", "--train", str(tmp_path / "train.jsonl"), "--vocab",
                     str(tmp_path / "vocab.json"), "--out", str(tmp_path / "stats.json")]) == 0
        written = (tmp_path / "stats.json").read_text(encoding="utf-8")
        payload = json.loads(written)
        rows = sorted_rows(*((r["s"], r["p"], r["o"], r["count"]) for r in payload["triplets"]))
        for text in (written, compact({**payload, "triplets": rows})):
            table, calls = counted_read(text, monkeypatch)
            assert not reached_reference(calls), calls
            assert_same_table(table, TripletFrequencyTable.from_json_obj(payload["triplets"]))
        assert table.distinct_triplets == 5

    @pytest.mark.parametrize("layout", FIXED_LAYOUTS)
    def test_text_read_warns_nothing(self, layout, monkeypatch):
        """Any warning is an error here, so one from the integer parse (numpy's
        binary-mode `fromstring` already warns) fails this test."""
        text = FIXED_LAYOUTS[layout]({"triplets": ROWS + sorted_rows((2, 1, 0, 2**40))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, calls = counted_read(text, monkeypatch)
        assert not reached_reference(calls)
        assert_same_table(table, TripletFrequencyTable.from_json_obj(json.loads(text)["triplets"]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(id_values, id_values, id_values,
                              st.sampled_from([0, 1, 2, 10**18 - 1, 2**62])), max_size=10),
           st.sampled_from(list(FIXED_LAYOUTS)), st.booleans())
    def test_fixed_layouts_read_like_from_json_obj(self, spocs, layout, more_keys):
        payload = {"triplets": sorted_rows(*spocs)}
        if more_keys:
            payload = {"a": [1, {"s": 0}], **payload, "z": {"count": 1, "o": 0, "p": 0, "s": 0}}
        assert_reads_alike(FIXED_LAYOUTS[layout](payload))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(list(FIXED_LAYOUTS)),
           st.lists(st.tuples(st.sampled_from(["move-digit", "insert", "delete"]),
                              st.floats(0, 1), st.floats(0, 1),
                              st.sampled_from('0123456789 ,:{}"\n-.')), min_size=1, max_size=3))
    def test_edited_files_read_like_from_json_obj(self, layout, edits):
        """A digit moved, or a character put in or taken out, anywhere in a written file."""
        text = FIXED_LAYOUTS[layout]({"triplets": ROWS + sorted_rows((2, 11, 0, 345))})
        for kind, a, b, char in edits:
            digits = [i for i, c in enumerate(text) if c.isdigit()]
            i = min(int(a * len(text)), len(text) - 1)
            if kind == "move-digit":
                i = digits[min(int(a * len(digits)), len(digits) - 1)]
                char, text = text[i], text[:i] + text[i + 1:]
            elif kind == "delete":
                text = text[:i] + text[i + 1:]
                continue
            j = int(b * len(text))
            text = text[:j] + char + text[j:]
        assert_reads_alike(text)

    @pytest.mark.parametrize("layout", FIXED_LAYOUTS)
    @pytest.mark.parametrize("key", ["count", "s"])
    @pytest.mark.parametrize("number", ["007", "00", "-0", "-3", "1.0", "1e2", "1E2",
                                        "999999999999999999", "1000000000000000000",
                                        "9223372036854775807", "9223372036854775808",
                                        "123456789012345678901234567890", "0", ""])
    def test_numbers_read_like_from_json_obj(self, number, key, layout):
        rows = sorted_rows((0, 0, 1, 2), (1, 0, 1, 3))
        rows[1][key] = 123454321
        assert_reads_alike(FIXED_LAYOUTS[layout]({"triplets": rows}).replace("123454321", number))

    @pytest.mark.parametrize("text", [
        compact({"x": {"triplets": ROWS}}),
        compact({"x": {"triplets": ROWS}}).replace('{"x"', '{"tr\\u0069plets":[],"x"'),
        compact({"triplets": ROWS}).replace('"triplets"', '"tr\\u0069plets"'),
        indented({"triplets": ROWS}).replace('"triplets"', '"tr\\u0069plets"'),
        '{"a\\"triplets":' + compact(ROWS) + ',"tr\\u0069plets":[]}',
        compact({"name": "triplets", "triplets": ROWS}),
        compact({"name": "triplets", "rows": ROWS}),
        compact({"triplets": ROWS})[:-1] + ',"triplets":[]}',
        compact({"triplets": ROWS})[:-1] + ',"triplets":' + compact(ROWS[:1]) + "}",
        '{"triplets":[' + compact(ROWS[0]) + '],"x":[' + compact(ROWS[1]) + "]}",
        compact({"triplets": ROWS}).replace(",", ",\t"),
        compact({"triplets": ROWS}).replace(',"o"', ',\t"o"', 1),
        indented({"triplets": ROWS}).replace("\n", "\r\n"),
        indented({"triplets": ROWS}).replace('\n      "o"', '\r\n      "o"', 1),
        "\ufeff" + compact({"triplets": ROWS}),
        "\ufeff" + indented({"triplets": ROWS}),
        compact({"triplets": []}),
        indented({"triplets": []}),
        indented({"triplets": []}).replace("[]", "[\n  ]"),
        compact({"triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}]}),
        json.dumps({"triplets": [{"s": 0, "p": 0, "o": 1, "count": 2}]}, indent=2),
        compact({"triplets": ROWS, "z": [1, 2], "zz": {"a": ROWS}}),
        indented({"triplets": ROWS, "zz": [1, 2]}),
        compact({"triplets": ROWS}).replace("},{", "},", 1),
        compact({"triplets": ROWS}).replace("}]", "},]"),
        indented({"triplets": ROWS}).replace("}\n  ]", "},\n  ]"),
        compact({"triplets": ROWS}).replace("}]", "}]]"),
        compact({"triplets": ROWS}).replace('"s":1}', '"s":1,"s":4}'),
        compact({"triplets": ROWS}).replace('"count":2,"o":1', '"count":,"o":01'),
        compact({"triplets": ROWS}).replace('"count":2', '"c2ount":', 1),
        compact({"triplets": ROWS}).replace('[{"count":2', '[2{"count":'),
        compact({"triplets": ROWS}).replace('"s":0},{', '"s":},0{'),
        compact({"triplets": ROWS}).replace('"s":0},{', '"s":}0,{'),
        indented({"triplets": ROWS}).replace('"count": 2', '"c2ount": ', 1),
        indented({"triplets": ROWS}).replace('"s": 0\n    },', '"s": \n    },0', 1),
        indented({"triplets": ROWS}).replace('"s": 0\n', '"s": \n0', 1),
        indented({"triplets": ROWS}).replace('"count": 2', '"count":2 ', 1),
        compact({"triplets": ROWS + ROWS[:1]}),
        compact({"triplets": sorted_rows((0, 0, 1, 0))}),
        compact({"triplets": ROWS})[:-1],
        compact({"triplets": ROWS}) + "x",
        compact({"triplets": ROWS}) + "\n\n",
    ], ids=["nested-key", "nested-key-escaped-top", "escaped-key", "escaped-key-indent",
            "key-inside-a-string", "string-value-then-key", "string-value-only",
            "repeated-key-empty-last", "repeated-key", "rows-then-row-under-other-key", "tabs",
            "one-tab", "crlf", "one-crlf", "bom", "bom-indent", "empty", "empty-indent",
            "empty-indent-newline", "spoc-order", "spoc-order-indent", "keys-after",
            "keys-after-indent", "missing-brace", "trailing-comma", "trailing-comma-indent",
            "nested-array", "repeated-row-key", "empty-value-and-leading-zero",
            "digit-in-key", "digit-before-row", "digit-after-comma", "digit-before-comma",
            "digit-in-key-indent", "digit-after-comma-indent", "value-on-next-line-indent",
            "value-before-space-indent",
            "repeated-triplet", "zero-count", "truncated", "trailing-garbage",
            "trailing-newlines"])
    def test_adversarial_files_read_like_from_json_obj(self, text):
        assert_reads_alike(text)

    @pytest.mark.parametrize("layout", FIXED_LAYOUTS)
    @pytest.mark.parametrize("edit", [None, "leading-zero", "negative", "repeat", "comma"])
    def test_rows_across_chunks_read_like_from_json_obj(self, layout, edit, monkeypatch):
        """20,000 rows are several 256K-character chunks; a bad row late in the text
        reaches the reference, a clean file does not."""
        rows = sorted_rows(*((k % 150, k // 150, 7, 1 + k % 9) for k in range(20_000)))
        text = FIXED_LAYOUTS[layout]({"triplets": rows, "predicate_freq": [1.0]})
        if edit in ("leading-zero", "negative"):
            at = text.rfind('"count"' if edit == "leading-zero" else '"o"')
            at = next(i for i in range(at, len(text)) if text[i].isdigit())
            text = text[:at] + ("0" if edit == "leading-zero" else "-") + text[at:]
        elif edit == "repeat":
            rows[-1] = dict(rows[0])
            text = FIXED_LAYOUTS[layout]({"triplets": rows, "predicate_freq": [1.0]})
        elif edit == "comma":
            at = text.find("},", len(text) // 2)
            text = text[:at + 2] + "," + text[at + 2:]
        rejected = isinstance(assert_reads_alike(text), tuple)
        assert rejected == (edit is not None)
        if not rejected:
            assert not reached_reference(counted_read(text, monkeypatch)[1])


def read_binary_and_text(raw: bytes):
    """(`from_stats_json` on a binary file of `raw`, `from_json_obj` on the rows of the
    text that text-mode UTF-8 reading decodes from `raw`): a table, or the type and
    message of the error raised."""
    outcomes = []
    for read in (lambda: TripletFrequencyTable.from_stats_json(io.BytesIO(raw)),
                 lambda: TripletFrequencyTable.from_json_obj(json.load(
                     io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))["triplets"])):
        try:
            outcomes.append(read())
        except (KeyError, TypeError, ValueError) as e:
            outcomes.append((type(e), str(e)))
    return outcomes


class TestStatsFileBytes:
    """A binary stats file reads as its text-mode decoding does: the same table, or the
    same error, whatever its bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LAYOUTS), st.sampled_from([b"\n", b"\r\n", b"\r"]), st.booleans(),
           st.booleans(), st.sampled_from([b"", b"\xff", b"\xed\xa0\x80", b"\xc3", "\u00e9".encode(),
                                           b"\r", b"\r\n", "\ufeff".encode(), b" ", b"7"]),
           st.integers(0, 10**6), st.data())
    def test_reads_like_text_mode(self, layout, newline, bom, utf16, inserted, at, data):
        """Line ends, a BOM, UTF-16, and bytes inserted anywhere."""
        rows = [{"s": k, "p": k % 2, "o": 1, "count": 2 + k} for k in range(4)]
        raw = stats_text(rows, layout, data.draw).encode().replace(b"\n", newline)
        at %= len(raw) + 1
        raw = (b"\xef\xbb\xbf" if bom else b"") + raw[:at] + inserted + raw[at:]
        if utf16:
            raw = raw.decode(errors="replace").encode("utf-16")
        got, want = read_binary_and_text(raw)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_table(got, want)

    @pytest.mark.parametrize("raw, message", [
        (b'{"triplets": [], "x": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"),
        (b'\xef\xbb\xbf{"triplets": []}', "Unexpected UTF-8 BOM"),
    ], ids=["not-utf8", "bom"])
    def test_rejected_as_text_mode_rejects(self, raw, message):
        got, want = read_binary_and_text(raw)
        assert got == want and message in got[1]


# Reads a 120,000-row stats file after loading a 3,000-graph dataset, in a fresh
# interpreter that has imported numpy, as `perturb --method graphn` has through its
# embeddings: prints the traced peak per row and the number of full (generation-2)
# collections during the read.
READ_PROBE = """
import gc, sys, tracemalloc
import numpy
from sggkit import cli, ingest
vocab = ingest.load_vocabulary("vocab.json")
dataset = ingest.load_dataset("train.jsonl", vocab)
full = []
gc.callbacks.append(lambda phase, info: phase == "start" and info["generation"] == 2
                    and full.append(info))
traced = sys.argv[1] == "traced"
if traced:
    tracemalloc.start()
table = cli._frequency_table("stats.json", vocab)
peak = tracemalloc.get_traced_memory()[1] if traced else 0
print(table.distinct_triplets, peak / table.distinct_triplets, len(full))
"""


@pytest.fixture(scope="module", params=list(FIXED_LAYOUTS))
def read_probe(request, tmp_path_factory):
    """Runs READ_PROBE on a 120,000-row stats file, in each layout the text path
    reads, and a 3,000-graph dataset."""
    root = tmp_path_factory.mktemp("stats_read")
    write_vocab(root / "vocab.json", [f"o{i}" for i in range(150)], [f"p{i}" for i in range(51)])
    (root / "stats.json").write_text(FIXED_LAYOUTS[request.param]({"triplets": sorted_rows(*(
        (k // 7650, k // 150 % 51, k % 150, 1 + k * 7919 % 3000) for k in range(120_000)))}),
        encoding="utf-8")
    write_jsonl(root / "train.jsonl", [graph_to_obj(make_graph(
        f"g{i}", [(i + j) % 150 for j in range(10)], [(j, (i + j) % 51, j + 1) for j in range(9)]))
        for i in range(3000)])
    src = os.path.dirname(os.path.dirname(sggkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def probe(mode):
        out = subprocess.run([sys.executable, "-c", READ_PROBE, mode], cwd=root, env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert int(out[0]) == 120_000
        return float(out[1]), int(out[2])
    probe.layout = request.param
    return probe


def test_stats_read_after_a_dataset_load_starts_no_full_collection(read_probe):
    """Row dicts decoded first set off a full collection that scanned the dataset."""
    assert read_probe("untraced")[1] == 0


def test_stats_read_peak_per_row_is_bounded(read_probe):
    """About 78 (compact) and 118 (indented) bytes per row at the peak, each 10% under
    its bound. The file is read as bytes and never decoded, so the indented file's peak
    is its 77 bytes a row with the table's columns; read as text, its bytes and their
    decoded text at once made it 155."""
    assert read_probe("traced")[0] < {"compact": 86, "indent": 130}[read_probe.layout]


def test_table_memory_per_row_is_bounded(tmp_path):
    """graphn's table, read from a compact stats file of 120,000 distinct triplets over
    150 categories and 51 predicates (about 7,650 keys in each index, as in the
    benchmark's full-split table), holds about 73 bytes per row once both indexes are
    built and peaks at about 82 over the read and both indexes."""
    import tracemalloc

    rng = np.random.default_rng(5)
    spo = rng.choice(150 * 51 * 150, size=120_000, replace=False)
    rows = sorted_rows(*zip((spo // 7650).tolist(), (spo // 150 % 51).tolist(),
                            (spo % 150).tolist(), rng.integers(1, 3000, 120_000).tolist()))
    path = tmp_path / "stats.json"
    path.write_text(compact({"triplets": rows}), encoding="utf-8")
    del rows
    warm = TripletFrequencyTable.from_stats_json(io.StringIO(compact({"triplets": ROWS})))
    warm.by_predicate_object, warm.by_subject_predicate  # numpy's first calls allocate too
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as f:
            table = TripletFrequencyTable.from_stats_json(f)
        table.by_predicate_object, table.by_subject_predicate
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.distinct_triplets == 120_000
    assert held / 120_000 <= 80
    assert peak / 120_000 <= 95


class TestShotSubsets:
    def make_table(self, spec):
        return TripletFrequencyTable({Triplet(*t): c for t, c in spec.items()})

    def test_boundaries(self, vocab):
        # counts 0 / 10 / 11 / 100 / 101 land in zero / few10 / few100 / few100 / nowhere
        table = self.make_table(
            {
                (PERSON, ON, SURFBOARD): 10,
                (DOG, ON, SURFBOARD): 11,
                (WAVE, ABOVE, PERSON): 100,
                (CAT, ON, SURFBOARD): 101,
            }
        )
        test = dataset_of(
            vocab,
            make_graph("t1", [PERSON, SURFBOARD, DOG, CAT, WAVE],
                       [(0, ON, 1), (2, ON, 1), (3, ON, 1), (4, ABOVE, 0), (0, 2, 3)]),
        )
        subsets = shot_subsets(test, table)
        assert subsets.zero.triplets == {Triplet(PERSON, 2, CAT)}
        assert subsets.few10.triplets == {Triplet(PERSON, ON, SURFBOARD)}
        assert subsets.few100.triplets == {
            Triplet(DOG, ON, SURFBOARD),
            Triplet(WAVE, ABOVE, PERSON),
        }
        # >100 triplet is in no shipped bucket but still in the all-shot set
        assert Triplet(CAT, ON, SURFBOARD) in subsets.all_shot.triplets

    def test_edges_filtered_nodes_kept(self, vocab):
        table = self.make_table({(PERSON, ON, SURFBOARD): 3})
        test = dataset_of(
            vocab,
            make_graph("t1", [PERSON, SURFBOARD, DOG], [(0, ON, 1), (2, ON, 1)]),
        )
        subsets = shot_subsets(test, table)
        zs_graph = subsets.zero.dataset.graphs[0]
        assert zs_graph.num_nodes == 3  # full node list kept for object scoring
        assert [tuple(t) for t in categorical_triplets(zs_graph)] == [(DOG, ON, SURFBOARD)]
        few10_graph = subsets.few10.dataset.graphs[0]
        assert [tuple(t) for t in categorical_triplets(few10_graph)] == [(PERSON, ON, SURFBOARD)]

    def test_graphs_without_bucket_triplets_dropped(self, vocab):
        table = self.make_table({(PERSON, ON, SURFBOARD): 3})
        test = dataset_of(
            vocab,
            make_graph("seen", [PERSON, SURFBOARD], [(0, ON, 1)]),
            make_graph("unseen", [DOG, CAT], [(0, ON, 1)]),
        )
        subsets = shot_subsets(test, table)
        assert [g.image_id for g in subsets.zero.dataset.graphs] == ["unseen"]
        assert [g.image_id for g in subsets.few10.dataset.graphs] == ["seen"]
        assert len(subsets.all_shot.dataset) == 2

    def test_buckets_partition_test_triplets(self, vocab):
        rng = np.random.default_rng(7)
        train_graphs = [
            make_graph(
                f"tr{i}",
                rng.integers(0, 5, size=3).tolist(),
                [(0, int(rng.integers(0, 3)), 1), (1, int(rng.integers(0, 3)), 2)],
            )
            for i in range(30)
        ]
        test_graphs = [
            make_graph(
                f"te{i}",
                rng.integers(0, 5, size=3).tolist(),
                [(0, int(rng.integers(0, 3)), 1), (2, int(rng.integers(0, 3)), 0)],
            )
            for i in range(20)
        ]
        train = dataset_of(vocab, *train_graphs)
        test = dataset_of(vocab, *test_graphs)
        table = build_frequency_table(train)
        subsets = shot_subsets(test, table)
        for graph in test.graphs:
            for t in categorical_triplets(graph):
                memberships = [
                    t in subsets.zero.triplets,
                    t in subsets.few10.triplets,
                    t in subsets.few100.triplets,
                    table.count(t) > 100,
                ]
                assert sum(memberships) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 4), min_size=2, max_size=4),
                          st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                             st.integers(0, 3)), max_size=5)),
                min_size=1, max_size=6))
def test_stats_report_is_json_dumps_of_the_library_values(specs):
    """`sggkit stats` formats its triplet rows directly; the report is still `json.dumps`
    of the table's rows, the predicate frequencies and the object histogram."""
    from sggkit.stats import _tally

    vocab = Vocabulary(("person", "surfboard", "wave", "dog", "cat"), ("on", "above", "near"))
    graphs = [make_graph(f"g{i}", cats, [(s % len(cats), p, o % len(cats)) for s, p, o in edges
                                         if s % len(cats) != o % len(cats)])
              for i, (cats, edges) in enumerate(specs)]
    ds = dataset_of(vocab, *graphs)
    payload = {"triplets": build_frequency_table(ds).to_json_obj(), "object_hist":
               marginal_distributions(ds)[0].counts}
    tally = _tally(ds.graphs, vocab)
    if not payload["triplets"]:
        with pytest.raises(ValueError, match="dataset has no edges"):
            tally.stats_json()
        return
    payload["predicate_freq"] = predicate_frequencies(ds)
    assert tally.stats_json() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestPredicateFrequencies:
    def test_single_edge(self, vocab):
        ds = dataset_of(vocab, make_graph("a", [PERSON, DOG], [(0, ABOVE, 1)]))
        f = predicate_frequencies(ds)
        assert f == [0.0, 1.0, 0.0]

    def test_three_to_one(self, vocab):
        ds = dataset_of(
            vocab,
            make_graph("a", [PERSON, DOG], [(0, ON, 1), (1, ON, 0), (0, ON, 1), (0, ABOVE, 1)]),
        )
        f = predicate_frequencies(ds)
        assert f == [0.75, 0.25, 0.0]

    def test_matches_brute_force_and_sums_to_one(self, vocab):
        corpus = toy_corpus(vocab)
        f = predicate_frequencies(corpus)
        counts = Counter(e.predicate for g in corpus.graphs for e in g.edges)
        total = sum(counts.values())
        for p in range(vocab.num_predicates):
            assert f[p] == pytest.approx(counts.get(p, 0) / total)
        assert abs(sum(f) - 1.0) < 1e-12


class TestMarginals:
    def test_object_fractions(self, vocab):
        ds = dataset_of(vocab, make_graph("a", [PERSON, PERSON, PERSON, DOG], []))
        obj, _ = marginal_distributions(ds)
        assert obj.normalized()[PERSON] == pytest.approx(0.75)
        assert obj.normalized()[DOG] == pytest.approx(0.25)

    def test_empty_dataset(self, vocab):
        obj, pred = marginal_distributions(Dataset(vocab, ()))
        assert obj.total == 0 and pred.total == 0

    def test_zero_shot_subset_shares_top_categories_with_full_test(self):
        # Long-tailed synthetic corpus: the dominant categories also dominate
        # among unseen compositions, so top entries of both histograms agree.
        num_obj, num_pred = 12, 6
        vocab = Vocabulary(
            tuple(f"o{i}" for i in range(num_obj)),
            tuple(f"p{i}" for i in range(num_pred)),
        )
        rng = np.random.default_rng(0)
        obj_p = 1.0 / np.arange(1, num_obj + 1)
        obj_p /= obj_p.sum()
        pred_p = 1.0 / np.arange(1, num_pred + 1)
        pred_p /= pred_p.sum()

        def sample_graph(name):
            cats = rng.choice(num_obj, size=3, p=obj_p).tolist()
            edges = [
                (0, int(rng.choice(num_pred, p=pred_p)), 1),
                (1, int(rng.choice(num_pred, p=pred_p)), 2),
            ]
            return make_graph(name, cats, edges)

        train = dataset_of(vocab, *(sample_graph(f"tr{i}") for i in range(400)))
        test = dataset_of(vocab, *(sample_graph(f"te{i}") for i in range(400)))
        subsets = shot_subsets(test, build_frequency_table(train))
        assert len(subsets.zero.dataset) > 20

        obj_full, pred_full = marginal_distributions(test)
        obj_zs, pred_zs = marginal_distributions(subsets.zero.dataset)
        top = lambda h, k: {name for name, _, _ in h.top_k(k)}
        assert top(obj_full, 3) & top(obj_zs, 3)
        assert top(pred_full, 2) == top(pred_zs, 2)
