"""The augment commands stream: `stats`, `subsets`, `perturb` and `hit-rate` build one
scene graph at a time, and leave their outputs as they were unless they succeed:
`stats`, `subsets` and `perturb` write each through a temporary file that replaces it
on success, and `hit-rate` writes its report once every input is read. `plausibility`,
which also builds one graph at a time, is held to the same contract under mutated
inputs, and sends no query unless every input is read and checked."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import stat
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from sggkit import ingest, model, stats
from sggkit.cli import main
from sggkit.ingest import graph_to_obj
from sggkit.model import SceneGraph

from .conftest import make_graph, write_jsonl, write_vocab

OBJECTS = ["person", "surfboard", "wave", "dog", "cat"]
PREDICATES = ["on", "above", "near"]
METHODS = ("rand", "neigh", "graphn", "oracle_zs")


def run(argv) -> int:
    return main([str(a) for a in argv])


def write_inputs(root: Path) -> None:
    """A vocabulary, 12 train and 8 test graphs, embeddings, and what the pipeline makes
    of them: stats.json, the shot subsets' triplet sets, a graphn-perturbed dataset and
    its records."""
    rng = random.Random(3)

    def graphs(prefix, n):
        return [graph_to_obj(make_graph(f"{prefix}{i}", [rng.randrange(5) for _ in range(3)],
                                        [(0, rng.randrange(3), 1), (2, rng.randrange(3), 0)]))
                for i in range(n)]
    write_vocab(root / "vocab.json", OBJECTS, PREDICATES)
    write_jsonl(root / "train.jsonl", graphs("tr", 12))
    write_jsonl(root / "test.jsonl", graphs("te", 8))
    with open(root / "glove.txt", "w", encoding="utf-8") as f:
        for k, name in enumerate(OBJECTS):
            f.write(f"{name} {k % 2} {k // 2 % 2} {1 + k}\n")
    vocab = ["--vocab", root / "vocab.json"]
    assert run(["stats", "--train", root / "train.jsonl", *vocab, "--out", root / "stats.json"]) == 0
    assert run(["subsets", "--train", root / "train.jsonl", "--test", root / "test.jsonl", *vocab,
                "--out-dir", root / "subsets"]) == 0
    assert run(["perturb", "--method", "graphn", "--intensity", "0.5", "--top-k", "2",
                "--alpha", "0", "--seed", "3", "--dataset", root / "train.jsonl", *vocab,
                "--embeddings", root / "glove.txt", "--stats", root / "stats.json",
                "--out-dataset", root / "perturbed.jsonl",
                "--out-records", root / "records.jsonl"]) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("stream_inputs")
    write_inputs(root)
    return root


def command(name: str, i: Path, o: Path, endpoint: str = "", **paths) -> tuple[list, list[Path]]:
    """(argv, outputs) of the command `name` on the inputs in `i`, writing into `o`, with
    `plausibility` scored at `endpoint`; a keyword names an input file to read in place of
    the one in `i`."""
    file = {"vocab": i / "vocab.json", "train": i / "train.jsonl", "test": i / "test.jsonl",
            "stats": i / "stats.json", "zs": i / "subsets" / "zs_triplets.json",
            "few10": i / "subsets" / "few10_triplets.json", "records": i / "records.jsonl",
            "perturbed": i / "perturbed.jsonl", **paths}
    vocab = ["--vocab", file["vocab"]]
    if name == "stats":
        return ["stats", "--train", file["train"], *vocab, "--out", o / "stats.json"], [
            o / "stats.json"]
    if name == "subsets":
        return (["subsets", "--train", file["train"], "--test", file["test"], *vocab,
                 "--out-dir", o],
                [o / f"{b}{suffix}" for b in ("zs", "few10", "few100")
                 for suffix in (".jsonl", "_triplets.json")])
    if name == "hit-rate":
        return (["hit-rate", "--records", file["records"], "--perturbed", file["perturbed"],
                 *vocab, "--reference", f"zs={file['zs']}", "--reference",
                 f"few10={file['few10']}", "--out", o / "hits.json"], [o / "hits.json"])
    if name == "plausibility":
        return (["plausibility", "--dataset", file["perturbed"], *vocab, "--records",
                 file["records"], "--endpoint", endpoint, "--jobs", "2",
                 "--out", o / "plausibility.json"], [o / "plausibility.json"])
    method = name.removeprefix("perturb-").removesuffix("-counted")
    extra = {"rand": [], "neigh": ["--embeddings", i / "glove.txt"],
             "graphn": ["--embeddings", i / "glove.txt", "--stats", file["stats"]],
             "oracle_zs": ["--zs", file["zs"]]}[method]
    if name.endswith("-counted"):  # graphn counts the dataset's triplets in a first pass
        extra = extra[:2]
    outputs = [o / f"{method}.jsonl", o / f"{method}_records.jsonl"]
    return (["perturb", "--method", method, "--intensity", "0.5", "--top-k", "2", "--alpha",
             "0", "--seed", "3", "--dataset", file["train"], *vocab, *extra,
             "--out-dataset", outputs[0], "--out-records", outputs[1]], outputs)


COMMANDS = ["stats", "subsets", *(f"perturb-{m}" for m in METHODS), "perturb-graphn-counted",
            "hit-rate"]
# Each command with each JSON-Lines file it streams.
STREAMED = [("stats", "train"), ("subsets", "train"), ("subsets", "test"),
            *((f"perturb-{m}", "train") for m in METHODS), ("perturb-graphn-counted", "train"),
            ("hit-rate", "perturbed"), ("hit-rate", "records")]


def files_in(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class TestErrorsLeaveOutputsAsTheyWere:
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("name, streamed", STREAMED, ids=[f"{c}:{f}" for c, f in STREAMED])
    def test_bad_last_line_exit_2(self, inputs, tmp_path, capsys, name, streamed, existing):
        bad = tmp_path / f"{streamed}.jsonl"
        bad.write_bytes((inputs / f"{streamed}.jsonl").read_bytes() + b"{not json\n")
        out = tmp_path / "out"
        out.mkdir()
        argv, outputs = command(name, inputs, out, **{streamed: bad})
        if existing:
            for k, path in enumerate(outputs):
                path.write_bytes(f"an earlier output {k}\n".encode())
        before = files_in(out)
        assert run(argv) == 2
        assert f"error: {bad}:{len(bad.read_bytes().splitlines())}: invalid JSON" in (
            capsys.readouterr().err)
        assert files_in(out) == before

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_record_of_an_absent_image_exit_2_after_the_pass(self, inputs, tmp_path, capsys,
                                                             existing):
        records = tmp_path / "records.jsonl"
        shutil.copy(inputs / "records.jsonl", records)
        with open(records, "a", encoding="utf-8") as f:
            f.write('{"image_id": "elsewhere", "replacements": [], "affected_edges": []}\n')
        argv, (out,) = command("hit-rate", inputs, tmp_path, records=records)
        if existing:
            out.write_bytes(b"an earlier report\n")
        before = files_in(tmp_path)
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: record image 'elsewhere' missing from perturbed dataset\n")
        assert files_in(tmp_path) == before

    def test_error_inside_the_block_removes_the_temporary_file(self, tmp_path):
        from sggkit.outputs import replacing

        kept = tmp_path / "kept.txt"
        kept.write_text("as it was\n")
        with pytest.raises(ValueError, match="midway"):
            with replacing(kept, tmp_path / "new.txt") as (a, b):
                a.write("half")
                b.write("written")
                raise ValueError("midway")
        assert files_in(tmp_path) == {"kept.txt": b"as it was\n"}


class TestOutputFiles:
    @pytest.mark.parametrize("name", COMMANDS)
    def test_same_bytes_as_the_library_path(self, inputs, tmp_path, name):
        """Each command's outputs are what the library writes from loaded datasets."""
        argv, outputs = command(name, inputs, tmp_path)
        assert run(argv) == 0
        vocab = ingest.load_vocabulary(inputs / "vocab.json")
        train = ingest.load_dataset(inputs / "train.jsonl", vocab)
        if name == "stats":
            payload = {"triplets": stats.build_frequency_table(train).to_json_obj(),
                       "predicate_freq": stats.predicate_frequencies(train),
                       "object_hist": stats.marginal_distributions(train)[0].counts}
            assert outputs[0].read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        elif name == "subsets":
            test = ingest.load_dataset(inputs / "test.jsonl", vocab)
            subsets = stats.shot_subsets(test, stats.build_frequency_table(train))
            for bucket, path in zip((subsets.zero, subsets.few10, subsets.few100), outputs[::2]):
                ingest.save_dataset(bucket.dataset, tmp_path / "library.jsonl")
                assert path.read_bytes() == (tmp_path / "library.jsonl").read_bytes()
        elif name == "hit-rate":
            from sggkit.cli import _load_records
            from sggkit.quality import hit_rate

            records = _load_records(inputs / "records.jsonl")
            perturbed = ingest.load_dataset(inputs / "perturbed.jsonl", vocab)
            rates = json.loads(outputs[0].read_text())["hit_rates"]
            for ref in ("zs", "few10"):
                set_ = ingest.triplet_set_from_json_obj(json.loads(
                    (inputs / "subsets" / f"{ref}_triplets.json").read_text())["triplets"])
                result = hit_rate(records, perturbed, set_)
                assert rates[ref] == {"value": result.value, "hits": result.hits,
                                      "total": result.total}
        else:
            from sggkit import perturb
            method = name.split("-")[1]
            table = zs = embeddings = None
            if method in ("neigh", "graphn"):
                embeddings = ingest.load_embeddings(inputs / "glove.txt", vocab)
            if method == "graphn":
                table = stats.build_frequency_table(train)
            if method == "oracle_zs":
                zs = ingest.triplet_set_from_json_obj(json.loads(
                    (inputs / "subsets" / "zs_triplets.json").read_text())["triplets"])
            cfg = perturb.PerturbationConfig(method, 0.5, 2, 0.0, 3)
            dataset, records = perturb.perturb_dataset(
                train, cfg, perturb.PerturbationResources(embeddings, table, zs))
            ingest.save_dataset(dataset, tmp_path / "library.jsonl")
            assert outputs[0].read_bytes() == (tmp_path / "library.jsonl").read_bytes()
            assert outputs[1].read_text().splitlines() == [
                json.dumps(r.to_json_obj(), separators=(",", ":")) for r in records]

    @pytest.mark.parametrize("name", ["stats", "perturb-rand", "hit-rate"])
    def test_devnull_is_written_not_replaced(self, inputs, tmp_path, name):
        argv, outputs = command(name, inputs, tmp_path)
        argv = [os.devnull if a == outputs[0] else a for a in argv]
        assert run(argv) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert not list(tmp_path.glob(f"{outputs[0].name}*"))

    def test_symlinked_output_keeps_its_link_and_mode(self, inputs, tmp_path):
        argv, (out,) = command("stats", inputs, tmp_path)
        target = tmp_path / "real" / "stats.json"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        out.symlink_to(target)
        assert run(argv) == 0
        assert out.is_symlink() and os.readlink(out) == str(target)
        assert target.read_bytes() == (inputs / "stats.json").read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["real", "stats.json", "stats.json"]


class TestPerturbOutputs:
    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_one_file_for_both_outputs_exit_2_before_reading(self, inputs, tmp_path, capsys,
                                                             link):
        argv, (dataset, records) = command("perturb-rand", inputs, tmp_path)
        if link:
            records.symlink_to(dataset)
        else:
            argv[argv.index("--out-records") + 1] = dataset
        argv[argv.index("--vocab") + 1] = tmp_path / "no-such-vocab.json"  # never opened
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: two outputs name the same file, {os.path.realpath(dataset)}\n")
        assert not dataset.exists()

    @pytest.mark.parametrize("name", [*(f"perturb-{m}" for m in METHODS),
                                      "perturb-graphn-counted"])
    def test_in_place_writes_the_same_bytes(self, inputs, tmp_path, name):
        argv, outputs = command(name, inputs, tmp_path)
        assert run(argv) == 0
        in_place = tmp_path / "in_place.jsonl"
        shutil.copy(inputs / "train.jsonl", in_place)
        argv = [in_place if a in (inputs / "train.jsonl", outputs[0]) else a for a in argv]
        assert run(argv) == 0
        assert in_place.read_bytes() == outputs[0].read_bytes()


class TrackedGraph(SceneGraph):
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("name", COMMANDS)
def test_each_graph_is_dropped_before_the_next_line_is_read(inputs, tmp_path, monkeypatch,
                                                            name):
    """Every graph a command builds, from a line or from another graph, is dead by the
    time the next line is decoded."""
    refs, decoded, loads = [], [], json.loads

    def tracked_graph(image_id, width, height, nodes, edges):
        graph = object.__new__(TrackedGraph)
        for field, value in zip(("image_id", "width", "height", "nodes", "edges"),
                                (image_id, width, height, nodes, edges)):
            object.__setattr__(graph, field, value)
        refs.append(weakref.ref(graph))
        return graph

    def checking_loads(text, *args, **kwargs):
        decoded.append(sum(ref() is not None for ref in refs))
        return loads(text, *args, **kwargs)

    for module in (model, ingest, stats):
        monkeypatch.setattr(module, "_graph", tracked_graph)
    monkeypatch.setattr(json, "loads", checking_loads)
    argv, _ = command(name, inputs, tmp_path)
    assert run(argv) == 0
    assert len(refs) >= 8 and len(decoded) >= 8
    assert decoded == [0] * len(decoded)


# The CLI contract under single mutations of the inputs.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 160), st.integers(2**63 - 2, 2**64 + 2),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 4), max_size=3),
    st.dictionaries(st.sampled_from(["s", "p", "o", "count", "image_id"]), st.integers(0, 4),
                    max_size=2))
RAW = ["1e400", "-1e400", "NaN", "Infinity", "-Infinity"]
SENTINEL = "\x00raw\x00"
# The JSON files each command reads, by their name in `command`.
READS = {"stats": ["vocab", "train"], "subsets": ["vocab", "train", "test"],
         "perturb-rand": ["vocab", "train"], "perturb-neigh": ["vocab", "train"],
         "perturb-graphn": ["vocab", "train", "stats"], "perturb-oracle_zs": ["vocab", "train", "zs"],
         "hit-rate": ["vocab", "records", "perturbed", "zs", "few10"],
         "plausibility": ["vocab", "perturbed", "records"]}
SOURCE = {"vocab": "vocab.json", "train": "train.jsonl", "test": "test.jsonl",
          "stats": "stats.json", "zs": "subsets/zs_triplets.json",
          "few10": "subsets/few10_triplets.json", "records": "records.jsonl",
          "perturbed": "perturbed.jsonl"}


def json_paths(value, prefix=()):
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def lm():
    """A scoring service for `plausibility`: its base URL and its state."""
    from .lm_stub import stub_lm_server

    with stub_lm_server(lambda text, target: len(text) / 8) as server:
        yield server


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_mutated_input_exits_0_or_2_leaving_outputs_on_2(inputs, lm, data):
    """One value changed, one key or element deleted, or 1e400, NaN or Infinity written,
    in one JSON input of `stats`, `subsets`, a `perturb` method, `hit-rate` or
    `plausibility`: the command exits 0 or 2 without a traceback, and on 2 leaves every
    output as it was, and the scoring service saw no connection."""
    name, which = data.draw(st.sampled_from([(n, f) for n in READS for f in READS[n]]))
    source = inputs / SOURCE[which]
    lines = source.suffix == ".jsonl"
    text = source.read_text()
    doc = [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    mutated = copy.deepcopy(doc)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    kind = data.draw(st.sampled_from(["change", "delete", "raw"]))
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES) if kind == "change" else SENTINEL
    dump = (lambda v: json.dumps(v)) if lines else (
        lambda v: json.dumps(v, indent=2, sort_keys=True))  # as `stats` writes it
    mutated_text = "".join(dump(line) + "\n" for line in mutated) if lines else dump(mutated)
    if kind == "raw":
        mutated_text = mutated_text.replace(json.dumps(SENTINEL), data.draw(st.sampled_from(RAW)))

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        mutated_file = work / source.name
        mutated_file.write_text(mutated_text)
        out = work / "out"
        out.mkdir()
        argv, outputs = command(name, inputs, out, lm[0], **{which: mutated_file})
        for k, output in enumerate(outputs):
            if data.draw(st.booleans()):
                output.write_bytes(f"earlier {k}\n".encode())
        before, connections = files_in(out), lm[1]["connections"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv)
        event(f"{name} exit {code}")
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert files_in(out) == before
            assert lm[1]["connections"] == connections
        else:
            assert sorted(files_in(out)) == sorted(str(p.relative_to(out)) for p in outputs)
