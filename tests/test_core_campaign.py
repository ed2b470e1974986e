"""Tests for timestep campaigns (shared geometry, per-step payloads)."""

import numpy as np
import pytest

from repro.core import CampaignReader, CampaignWriter, LevelScheme
from repro.errors import CanopusError, RestorationError
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-4


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    ds = make_xgc1(scale=0.15)
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("campaign"), fast_capacity=16 << 20,
        slow_capacity=1 << 34,
    )
    rng = np.random.default_rng(0)
    steps = {}
    writer = CampaignWriter(
        hierarchy, "run", "dpot", ds.mesh, LevelScheme(3),
        codec="zfp", codec_params={"tolerance": TOL},
    )
    reports = []
    with writer:
        for step in range(4):
            drift = 0.05 * step * np.sin(ds.mesh.vertices[:, 0] * 2 + step)
            field = ds.field + drift + rng.normal(0, 1e-3, ds.mesh.num_vertices)
            steps[step] = field
            reports.append(writer.write_step(step, field))
    return ds, hierarchy, steps, reports, writer


class TestCampaignWriter:
    def test_step_reports(self, campaign):
        _, _, _, reports, _ = campaign
        assert len(reports) == 4
        for rep in reports:
            assert rep.compressed_bytes > 0
            assert rep.reduction > 1.5
            assert rep.refactor_seconds > 0

    def test_geometry_written_once(self, campaign):
        ds, hierarchy, _, _, writer = campaign
        from repro.io import BPDataset

        handle = BPDataset.open("run", hierarchy)
        mesh_keys = [k for k in handle.keys() if "/mesh" in k]
        # One mesh per level, regardless of the number of steps.
        assert len(mesh_keys) == 3
        mapping_keys = [k for k in handle.keys() if "/mapping" in k]
        assert len(mapping_keys) == 2

    def test_duplicate_step_rejected(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "dup", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.write_step(0, ds.field)
        with pytest.raises(CanopusError):
            writer.write_step(0, ds.field)
        writer.close()

    def test_write_after_close_rejected(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "closed", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.close()
        with pytest.raises(CanopusError):
            writer.write_step(0, ds.field)

    def test_field_shape_validated(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "shape", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        with pytest.raises(CanopusError):
            writer.write_step(0, np.zeros(7))
        writer.close()

    def test_close_returns_io_time(self, campaign):
        ds, hierarchy, *_ = campaign
        writer = CampaignWriter(
            hierarchy, "iotime", "v", ds.mesh, LevelScheme(2),
            codec_params={"tolerance": TOL},
        )
        writer.write_step(0, ds.field)
        io = writer.close()
        assert io > 0
        assert writer.close() == 0.0  # idempotent


class TestCampaignReader:
    def test_restore_each_step_full_accuracy(self, campaign):
        ds, hierarchy, steps, _, _ = campaign
        reader = CampaignReader(hierarchy, "run")
        assert reader.steps == [0, 1, 2, 3]
        for step, field in steps.items():
            restored = reader.restore(step, 0)
            # Base + 2 deltas, each within TOL.
            assert np.max(np.abs(restored.field - field)) <= 3 * TOL + 1e-12

    def test_restore_base_level(self, campaign):
        _, hierarchy, _, _, writer = campaign
        reader = CampaignReader(hierarchy, "run")
        base = reader.restore(2, 2)
        assert base.level == 2
        assert len(base.field) == writer.meshes[2].num_vertices

    def test_unknown_step(self, campaign):
        _, hierarchy, *_ = campaign
        reader = CampaignReader(hierarchy, "run")
        with pytest.raises(RestorationError):
            reader.restore(99)

    def test_not_a_campaign(self, campaign, tmp_path):
        ds, hierarchy, *_ = campaign
        from repro.io import BPDataset

        BPDataset.create("plain", hierarchy).close()
        with pytest.raises(RestorationError):
            CampaignReader(hierarchy, "plain")

    def test_geometry_amortized_across_steps(self, campaign):
        """Geometry I/O happens once; per-step retrievals touch only
        field payloads."""
        _, hierarchy, _, _, _ = campaign
        reader = CampaignReader(hierarchy, "run")
        reader.prefetch_geometry()
        geom_io = reader.geometry_timings.io_seconds
        assert geom_io > 0
        io_per_step = []
        for step in reader.steps:
            res = reader.restore(step, 0)
            io_per_step.append(res.timings.io_seconds)
        # No step re-reads geometry: step I/O stays flat, and the total
        # geometry cost did not grow.
        assert reader.geometry_timings.io_seconds == geom_io
        assert max(io_per_step) < 2 * min(io_per_step)

    def test_time_series_iteration(self, campaign):
        _, hierarchy, steps, _, _ = campaign
        reader = CampaignReader(hierarchy, "run")
        seen = []
        for step, data in reader.time_series(target_level=1, steps=[1, 3]):
            seen.append(step)
            assert data.level == 1
        assert seen == [1, 3]

    def test_trajectory_statistic(self, campaign):
        """A cross-step analysis: the field drifts monotonically by
        construction; the restored series must reflect it."""
        _, hierarchy, steps, _, _ = campaign
        reader = CampaignReader(hierarchy, "run")
        means = [
            float(np.mean(np.abs(data.field - steps[0])))
            for _, data in reader.time_series(target_level=0)
        ]
        assert means[0] < means[1] < means[2] < means[3]


class TestMultiPlaneCampaign:
    """(planes, n) steps are stored raveled and restored per plane."""

    @pytest.fixture(scope="class")
    def planes_campaign(self, tmp_path_factory):
        ds = make_xgc1(scale=0.01)
        hierarchy = two_tier_titan(
            tmp_path_factory.mktemp("planes"), fast_capacity=16 << 20,
            slow_capacity=1 << 34,
        )
        x = ds.mesh.vertices[:, 0]
        steps = {
            step: np.stack([ds.field + 0.1 * step * np.sin(3 * x),
                            -ds.field + 0.05 * step])
            for step in range(3)
        }
        with CampaignWriter(
            hierarchy, "planes", "dpot", ds.mesh, LevelScheme(3),
            codec="zfp", codec_params={"tolerance": TOL},
        ) as writer:
            for step, field in steps.items():
                writer.write_step(step, field)
        return hierarchy, steps, writer

    def test_restore_round_trip_within_bound(self, planes_campaign):
        hierarchy, steps, _ = planes_campaign
        reader = CampaignReader(hierarchy, "planes")
        for step, field in steps.items():
            restored = reader.restore(step, 0).field
            assert restored.shape == field.shape == (2, field.shape[1])
            # Base + 2 deltas, each within the codec's absolute TOL.
            assert np.max(np.abs(restored - field)) <= 3 * TOL + 1e-12

    def test_coarse_levels_keep_the_plane_axis(self, planes_campaign):
        hierarchy, _, writer = planes_campaign
        reader = CampaignReader(hierarchy, "planes")
        for level in (1, 2):
            out = reader.restore(1, level).field
            assert out.shape == (2, writer.meshes[level].num_vertices)

    def test_restore_many_matches_restore(self, planes_campaign):
        hierarchy, steps, _ = planes_campaign
        reader = CampaignReader(hierarchy, "planes")
        many = reader.restore_many(target_level=0, workers=2)
        assert sorted(many) == sorted(steps)
        for step, data in many.items():
            assert np.array_equal(data.field, reader.restore(step, 0).field)
            assert np.max(np.abs(data.field - steps[step])) <= 3 * TOL + 1e-12
