"""Corrupted snapshots must fail loudly, naming the damaged section."""

import json
import random

import numpy as np
import pytest

from repro import POI, TARTree, datasets
from repro.reliability.faults import flip_bit, truncate_file
from repro.spatial.geometry import Rect
from repro.storage.serialize import (
    CorruptSnapshotError,
    UnsupportedSnapshotError,
    load_dataset,
    load_tree,
    save_dataset,
    save_tree,
)
from repro.temporal.epochs import EpochClock


@pytest.fixture(scope="module")
def dataset():
    return datasets.make("LA", scale=0.01, seed=5)


def build_tree():
    rng = random.Random(9)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        tia_backend="memory",
    )
    for i in range(120):
        history = {e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4}
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


class TestDatasetCorruption:
    def test_truncated_archive_raises(self, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_dataset(dataset, path)
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CorruptSnapshotError):
            load_dataset(path)

    def test_bit_flip_raises(self, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_dataset(dataset, path)
        size = path.stat().st_size
        flip_bit(path, bit_index=(size // 2) * 8)  # inside a compressed member
        with pytest.raises(CorruptSnapshotError):
            load_dataset(path)

    def test_bit_flips_across_the_file_raise(self, dataset, tmp_path):
        # A flip anywhere in the member data must be caught -- either as
        # container damage or as a section CRC failure.
        reference = tmp_path / "ref.npz"
        save_dataset(dataset, reference)
        size = reference.stat().st_size
        for fraction in (0.2, 0.4, 0.6, 0.8):
            path = tmp_path / ("flip-%d.npz" % (fraction * 10))
            path.write_bytes(reference.read_bytes())
            flip_bit(path, bit_index=int(size * fraction) * 8)
            with pytest.raises((CorruptSnapshotError, ValueError)):
                load_dataset(path)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(CorruptSnapshotError):
            load_dataset(path)

    def test_tampered_section_names_it(self, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_dataset(dataset, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        tampered = arrays["positions"].copy()
        tampered[0, 0] += 1.0
        arrays["positions"] = tampered  # checksum left stale on purpose
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(CorruptSnapshotError) as excinfo:
            load_dataset(path)
        assert excinfo.value.section == "positions"

    def test_unknown_version_is_a_value_error(self, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_dataset(dataset, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["version"] = np.int64(99)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(ValueError, match="this build reads version 2$"):
            load_dataset(path)

    def test_checksumless_v1_archive_is_refused(self, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_dataset(dataset, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["version"] = np.int64(1)
        del arrays["checksum_names"]
        del arrays["checksum_values"]
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(
            UnsupportedSnapshotError,
            match="dataset format version 1; this build reads version 2$",
        ):
            load_dataset(path)


class TestTreeCorruption:
    def test_truncated_snapshot_raises(self, tmp_path):
        path = tmp_path / "t.json"
        save_tree(build_tree(), path)
        truncate_file(path, keep_fraction=0.7)
        with pytest.raises(CorruptSnapshotError):
            load_tree(path)

    def test_bit_flips_across_the_file_raise(self, tmp_path):
        reference = tmp_path / "ref.json"
        save_tree(build_tree(), reference)
        size = reference.stat().st_size
        for fraction in (0.2, 0.4, 0.6, 0.8):
            path = tmp_path / ("flip-%d.json" % (fraction * 10))
            path.write_bytes(reference.read_bytes())
            flip_bit(path, bit_index=int(size * fraction) * 8)
            with pytest.raises(CorruptSnapshotError):
                load_tree(path)

    def test_tampered_history_names_the_pois_section(self, tmp_path):
        path = tmp_path / "t.json"
        save_tree(build_tree(), path)
        payload = json.loads(path.read_text())
        payload["sections"]["pois"][0][3][0][1] += 1  # silent over-count
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptSnapshotError) as excinfo:
            load_tree(path)
        assert excinfo.value.section == "pois"
        assert "CRC-32" in str(excinfo.value)

    def test_missing_framing_raises(self, tmp_path):
        path = tmp_path / "t.json"
        save_tree(build_tree(), path)
        payload = json.loads(path.read_text())
        del payload["checksums"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptSnapshotError):
            load_tree(path)

    def test_unknown_version_is_a_value_error(self, tmp_path):
        path = tmp_path / "t.json"
        save_tree(build_tree(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version 99; this build reads version 3"):
            load_tree(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_are_refused(self, version, tmp_path):
        # Versions 1 and 2 stored no node layout: the tree they describe
        # cannot be opened as it was saved, so they are not read at all.
        path = tmp_path / "t.json"
        save_tree(build_tree(), path)
        payload = json.loads(path.read_text())
        sections = payload["sections"]
        if version == 1:  # flat and checksum-less
            old = dict(sections["config"], pois=sections["pois"], version=1)
        else:
            del sections["nodes"], payload["checksums"]["nodes"]
            old = dict(payload, version=2)
        path.write_text(json.dumps(old))
        with pytest.raises(UnsupportedSnapshotError, match="format version %d;" % version):
            load_tree(path)


class TestRoundTripStability:
    def test_save_load_save_is_byte_stable_after_digests(
        self, bulk_tree, mutated_tree, tmp_path
    ):
        # Crash recovery byte-compares snapshots, so reloading must not
        # "heal" any state (e.g. the lambda-hat normaliser drifting as
        # digested histories outgrow the build-time maximum, or leaf
        # z-coordinates that a re-insertion would recompute).
        digested = build_tree()
        poi_id = next(iter(digested.poi_ids()))
        digested.digest_epoch(11, {poi_id: 500})
        empty = TARTree(
            world=Rect((0.0, 0.0), (100.0, 100.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=12.0,
            tia_backend="memory",
        )
        trees = {
            "digested": digested,
            "bulk": bulk_tree,
            "mutated": mutated_tree,
            "empty": empty,
        }
        for name, tree in trees.items():
            first = tmp_path / ("%s-first.json" % name)
            second = tmp_path / ("%s-second.json" % name)
            save_tree(tree, first)
            save_tree(load_tree(first), second)
            assert first.read_bytes() == second.read_bytes(), name
