"""Detection / tracking workload tests (Table 1's MaskRCNN & Siamese rows)."""

import pytest

from repro.compiler import GraphEngine
from repro.config import ASCEND
from repro.errors import GraphError
from repro.graph.ops import CvOp, Upsample2D
from repro.graph.tensor import TensorSpec
from repro.models import build_detector, build_siamese_tracker
from repro.profiling import PerfCounters


@pytest.fixture(scope="module")
def detector():
    return build_detector(batch=1, image=256, rois=64)


@pytest.fixture(scope="module")
def tracker():
    return build_siamese_tracker()


class TestDetector:
    def test_builds_with_fpn_levels(self, detector):
        names = [op.name for op in detector]
        assert "fpn_lateral2" in names and "fpn_smooth5" in names
        assert "rpn_proposal2" in names
        assert "nms" in names and "roi_align" in names

    def test_rpn_and_nms_are_vector_work(self, detector):
        for op in detector:
            if isinstance(op, CvOp):
                work = op.workload()
                assert work.macs == 0
                assert work.vector_elem_passes > 0

    def test_mac_distribution(self, detector):
        groups = dict(detector.grouped_workloads())
        backbone = sum(w.macs for g, w in groups.items()
                       if g.startswith("conv"))
        neck = sum(w.macs for g, w in groups.items()
                   if g.startswith(("fpn", "rpn")))
        # Backbone is the single largest consumer; backbone + FPN/RPN
        # neck dominate, with the per-ROI head a minor share.
        assert backbone > 0.25 * detector.total_macs()
        assert backbone + neck > 0.8 * detector.total_macs()

    def test_compiles_on_ascend_core(self, detector):
        compiled = GraphEngine(ASCEND).compile_graph(detector)
        assert compiled.total_cycles > 0
        # RPN/NMS groups are vector-dominated (ratio < 1); backbone not.
        ratio = {l.name: PerfCounters.from_layer(l).cube_vector_ratio
                 for l in compiled.layers}
        assert ratio["nms"] == 0.0
        assert ratio["conv4_1"] > 1

    def test_upsample_doubles_spatial(self):
        src = TensorSpec("s", (1, 8, 8, 4), __import__("repro.dtypes",
                                                       fromlist=["FP16"]).FP16)
        dst = TensorSpec("d", (1, 16, 16, 4), src.dtype)
        up = Upsample2D(name="u", inputs=(src,), output=dst, factor=2)
        assert up.workload().vector_elem_passes == dst.elems

    def test_unknown_cv_kind_rejected(self):
        from repro.dtypes import FP16

        spec = TensorSpec("x", (4,), FP16)
        with pytest.raises(GraphError, match="unknown CV op"):
            CvOp(name="bad", inputs=(spec,), output=spec.with_name("y"),
                 kind="warp")


class TestSiameseTracker:
    def test_two_branches_and_xcorr(self, tracker):
        names = [op.name for op in tracker]
        assert "template_conv1" in names and "search_conv1" in names
        assert "xcorr" in names

    def test_xcorr_output_spatial(self, tracker):
        corr = tracker.tensor("xcorr_map")
        # search 255 and template 127 through the same stride-8 backbone.
        assert corr.shape[1] == corr.shape[2]
        assert corr.shape[1] > 1

    def test_compiles(self, tracker):
        compiled = GraphEngine(ASCEND).compile_graph(tracker)
        assert compiled.total_cycles > 0

    def test_realtime_on_ascend(self, tracker):
        """Tracking must be real-time-capable on one Ascend core."""
        compiled = GraphEngine(ASCEND).compile_graph(tracker)
        assert compiled.seconds < 0.033  # 30 fps budget
