"""SharedArtifactStore: publish/attach round trips, unlink lifecycle."""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.serve import SharedArtifactStore


@pytest.fixture
def store():
    s = SharedArtifactStore()
    yield s
    s.close(unlink=True)


def publish_sample(store, kind="resistance_oracle", version=0):
    arrays = {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.array([1, 2, 3], dtype=np.int32),
    }
    spec = store.publish(
        kind, "fp-abc", version, ("exact", 7), arrays, meta={"n": 3, "exact": True}
    )
    return spec, arrays


def segment_exists(name: str) -> bool:
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestPublishAttach:
    def test_round_trip_values(self, store):
        spec, arrays = publish_sample(store)
        attached = store.attach(spec)
        np.testing.assert_array_equal(attached.arrays["a"], arrays["a"])
        np.testing.assert_array_equal(attached.arrays["b"], arrays["b"])
        assert attached.arrays["a"].dtype == np.float64
        assert attached.arrays["b"].dtype == np.int32

    def test_views_are_read_only(self, store):
        spec, _ = publish_sample(store)
        attached = store.attach(spec)
        with pytest.raises((ValueError, RuntimeError)):
            attached.arrays["a"][0, 0] = 99.0

    def test_arrays_are_64_byte_aligned(self, store):
        spec, _ = publish_sample(store)
        assert all(array_spec.offset % 64 == 0 for array_spec in spec.arrays)

    def test_spec_identity_and_meta(self, store):
        spec, _ = publish_sample(store)
        assert spec.kind == "resistance_oracle"
        assert spec.graph_key == "fp-abc"
        assert spec.version == 0
        assert spec.params == ("exact", 7)
        assert spec.meta_dict() == {"n": 3, "exact": True}
        assert spec.nbytes > 0

    def test_spec_is_picklable(self, store):
        import pickle

        spec, _ = publish_sample(store)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestOwnedSpecs:
    def test_owned_specs_reports_published(self, store):
        spec, _ = publish_sample(store)
        assert spec in store.owned_specs()


class TestLifecycle:
    def test_unlink_removes_segment(self, store):
        spec, _ = publish_sample(store)
        assert segment_exists(spec.segment)
        assert store.unlink(spec.segment)
        assert not segment_exists(spec.segment)
        # second unlink is a clean no-op
        assert not store.unlink(spec.segment)

    def test_close_unlinks_everything_owned(self):
        store = SharedArtifactStore()
        specs = [publish_sample(store, version=v)[0] for v in range(3)]
        store.close(unlink=True)
        assert not any(segment_exists(spec.segment) for spec in specs)

    def test_close_without_unlink_keeps_segment(self):
        # worker-side shutdown: close() drops attachments but never unlinks
        publisher = SharedArtifactStore()
        spec, _ = publish_sample(publisher)
        publisher.close(unlink=False)
        assert segment_exists(spec.segment)
        # the adopting side (the cluster parent) removes it
        parent = SharedArtifactStore()
        parent.adopt(spec)
        parent.close(unlink=True)
        assert not segment_exists(spec.segment)

    def test_adopt_transfers_unlink_ownership(self):
        publisher = SharedArtifactStore()
        spec, _ = publish_sample(publisher)
        parent = SharedArtifactStore()
        parent.adopt(spec)
        assert spec in parent.owned_specs()
        parent.close(unlink=True)
        assert not segment_exists(spec.segment)
        publisher.close(unlink=True)  # already gone; must not raise

