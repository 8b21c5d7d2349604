"""Catalog format versions: v4 round trips, older layouts still load.

Format v4 adds the compaction lineage to each sharded entry.  Earlier
v4 writers also stored a dyadic sum-tree over the shard totals
(``*_tree_level*`` arrays plus ``tree_levels``/``tree_size``/``interior``
manifest keys).  ``fixtures/catalog_v4_tree.npz`` is such a file, saved
from the ``_engine_with_lineage`` engine below by a writer that still
emitted the tree; ``fixtures/catalog_v4_tree.json`` records that
writer's answers (as float hex) and lineage.  These tests pin the
compatibility contract both ways:

* the tree-carrying v4 fixture loads with bitwise-identical answers and
  its lineage intact, and today's v4 writer round-trips without tree
  arrays;
* catalogs written in the v2 and v3 layouts (no lineage; v2 also
  without checksums) still load with identical answers;
* a persisted tree level that disagrees with the shard totals, or is
  missing, quarantines the entry instead of loading silently.
"""

import io
import json
import pathlib
import shutil
import zlib

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table, load_catalog, save_catalog
from repro.engine.engine import AggregateQuery
from repro.engine.persistence import FORMAT_VERSION, _SUPPORTED_VERSIONS
from repro.errors import InvalidParameterError

KEY = ("events", "value")
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TREE_FIXTURE = FIXTURES / "catalog_v4_tree.npz"


def _engine_with_lineage() -> ApproximateQueryEngine:
    rng = np.random.default_rng(71)
    engine = ApproximateQueryEngine()
    engine.register_table(Table("events", {"value": rng.integers(0, 40, 500)}))
    engine.build_synopsis("events", "value", method="a0", budget_words=4096, shards=8)
    engine.compact_shards("events", "value", runs=[(0, 2)])
    return engine


def _queries():
    return [
        AggregateQuery("events", "value", aggregate, float(low), float(low + 11))
        for aggregate in ("count", "sum")
        for low in range(0, 28, 3)
    ]


def _fixture_record() -> dict:
    return json.loads((FIXTURES / "catalog_v4_tree.json").read_text())


def _fixture_copy(tmp_path) -> pathlib.Path:
    path = tmp_path / "catalog.npz"
    shutil.copyfile(TREE_FIXTURE, path)
    return path


def test_format_version_advanced_to_v4():
    assert FORMAT_VERSION == 4
    assert set(_SUPPORTED_VERSIONS) == {1, 2, 3, 4}


def test_v4_round_trips_tree_and_lineage(tmp_path):
    record = _fixture_record()
    restored = ApproximateQueryEngine()
    assert load_catalog(restored, TREE_FIXTURE) == 1
    assert restored.quarantined_synopses() == []
    loaded = restored._synopses[KEY].count_estimator
    assert loaded.lineage == record["lineage"]
    assert loaded.compaction_generation == 1
    for aggregate, low, high, answer in record["answers"]:
        query = AggregateQuery("events", "value", aggregate, low, high)
        assert restored.execute(query).estimate == float.fromhex(answer)

    # Re-saving drops the tree: today's v4 layout carries lineage only.
    path = tmp_path / "resaved.npz"
    save_catalog(restored, path)
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        assert not any("tree_level" in name for name in archive.files)
    row = manifest["synopses"][0]["count_sharded"]
    assert row["lineage"] == record["lineage"]
    assert not {"tree_levels", "tree_size", "interior"} & set(row)
    again = ApproximateQueryEngine()
    assert load_catalog(again, path) == 1
    assert again._synopses[KEY].count_estimator.lineage == record["lineage"]
    for aggregate, low, high, answer in record["answers"]:
        query = AggregateQuery("events", "value", aggregate, low, high)
        assert again.execute(query).estimate == float.fromhex(answer)


@pytest.mark.parametrize("version", [2, 3])
def test_legacy_layouts_still_load(tmp_path, version):
    engine = _engine_with_lineage()
    path = tmp_path / f"catalog_v{version}.npz"
    save_catalog(engine, path, version=version)

    # The file genuinely carries the old layout: no lineage, the
    # manifest says so, and v2 has no checksum table at all.
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        assert manifest["version"] == version
        assert not any("tree_level" in name for name in archive.files)
        assert "lineage" not in manifest["synopses"][0]["count_sharded"]
        assert ("checksums" in manifest) == (version >= 3)

    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    assert restored.quarantined_synopses() == []
    loaded = restored._synopses[KEY].count_estimator
    assert loaded.lineage == []  # lineage is a v4-only record
    for query in _queries():
        assert restored.execute(query).estimate == engine.execute(query).estimate


def test_unwritable_versions_rejected(tmp_path):
    engine = _engine_with_lineage()
    for version in (0, 1, 5):
        with pytest.raises(InvalidParameterError):
            save_catalog(engine, tmp_path / "never.npz", version=version)


def _rewrite_npz(path, mutate_arrays):
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    mutate_arrays(arrays)
    # Re-checksum every array so only the tree check can catch damage.
    manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
    manifest["checksums"] = {
        name: zlib.crc32(np.ascontiguousarray(array).tobytes()) & 0xFFFFFFFF
        for name, array in arrays.items()
        if name != "manifest"
    }
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


def _assert_quarantined(path):
    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    assert restored.quarantined_synopses() == [KEY]
    assert restored.stale_synopses() == [KEY]


def test_corrupted_tree_level_quarantines_the_entry(tmp_path):
    path = _fixture_copy(tmp_path)

    def _break_tree(arrays):
        arrays["0_count_tree_level1"][0] += 1.0  # now != sum of its children

    _rewrite_npz(path, _break_tree)
    _assert_quarantined(path)


def test_tree_disagreeing_with_totals_quarantines_the_entry(tmp_path):
    path = _fixture_copy(tmp_path)

    def _shift_tree(arrays):
        # Internally consistent (every node is the sum of its children)
        # but no longer a tree over the persisted totals.
        level = 0
        while f"0_sum_tree_level{level}" in arrays:
            arrays[f"0_sum_tree_level{level}"][0] += 1.0
            level += 1

    _rewrite_npz(path, _shift_tree)
    _assert_quarantined(path)


def test_truncated_tree_arrays_quarantine_the_entry(tmp_path):
    path = _fixture_copy(tmp_path)

    def _drop_level(arrays):
        del arrays["0_count_tree_level2"]

    _rewrite_npz(path, _drop_level)
    _assert_quarantined(path)
