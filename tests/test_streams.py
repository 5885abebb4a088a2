"""The stream corpus: each config of ``tests/data/make_streams.py`` rerun and
its digests compared with ``tests/data/streams.json``, so a change that moves
the seeded stream, any file ``morlab run`` writes or the corpus logged-data
file fails here by name."""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_streams", DATA / "make_streams.py")
make_streams = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_streams)

CORPUS = json.loads((DATA / "streams.json").read_text(encoding="utf-8"))


def test_corpus_covers_every_config():
    assert sorted(CORPUS["configs"]) == sorted(make_streams.CONFIGS)


def check_versions():
    # floating-point streams are only comparable under the versions that made them
    assert make_streams.versions() == CORPUS["versions"], (
        f"the corpus was made with {CORPUS['versions']}, this interpreter has "
        f"{make_streams.versions()}")


@pytest.mark.parametrize("name", sorted(make_streams.CONFIGS))
def test_stream_digests_unchanged(name, tmp_path):
    check_versions()
    want = CORPUS["configs"][name]
    got = make_streams.config_digests(name, tmp_path)
    assert sorted(got["files"]) == sorted(want["files"]), f"{name}: the run wrote other files"
    for file, digest in want["files"].items():
        assert got["files"][file] == digest, f"{name}: {file} changed"
    for seed, digests in want["run_moac"].items():
        for part, digest in digests.items():
            assert got["run_moac"][seed][part] == digest, f"{name}: run_moac {seed} {part} changed"


def test_logged_data_digest_unchanged(tmp_path):
    check_versions()
    assert make_streams.logged_data_digest(tmp_path) == CORPUS["logged_data"], \
        "the logged-data file changed"


def test_moved_names_each_changed_digest():
    # make_streams.main prints these lines before it rewrites streams.json
    new = json.loads(json.dumps(CORPUS))
    assert make_streams.moved(CORPUS, new) == []
    name = sorted(new["configs"])[0]
    seed = sorted(new["configs"][name]["run_moac"])[0]
    file = sorted(new["configs"][name]["files"])[0]
    new["configs"][name]["run_moac"][seed]["t_hat"] = "0"
    del new["configs"][name]["files"][file]
    new["logged_data"] = "0"
    new["versions"] = {**new["versions"], "numpy": "0"}
    lines = make_streams.moved(CORPUS, new)
    assert lines[0].startswith("versions: ")
    assert sorted(lines[1:]) == sorted(["logged_data", f"{name} file {file}", f"{name} {seed} t_hat"])
