"""Theorem suites run on the frame they are given."""

from rptgeo import FrameAlgebra, all_passed, build_example, theorem_checks


def test_family_check_builds_no_second_frame(monkeypatch):
    fa = build_example((1, 2, 3, 5))
    built = []
    init = FrameAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FrameAlgebra, "__init__", counting_init)
    results = theorem_checks(fa)
    assert built == []
    assert results[-1].check_id == "family-parameter-equivalence"
    assert all_passed(results)
