"""Cross-cutting coverage: CLI NIST path and small edge cases not
exercised elsewhere."""

import pytest

from repro.cli import main
from repro.quality.nist.helpers import igamc_pvalue


class TestCliNist:
    def test_nist_battery_via_cli(self, capsys):
        rc = main([
            "quality", "--generator", "Mersenne Twister",
            "--battery", "nist", "--scale", "0.2",
        ])
        out = capsys.readouterr().out
        assert "NIST SP800-22" in out
        assert rc in (0, 1)


class TestHelpers:
    def test_igamc_validation(self):
        with pytest.raises(ValueError):
            igamc_pvalue(0, 1.0)

    def test_igamc_extremes(self):
        assert igamc_pvalue(5, 0.0) == pytest.approx(1.0)
        assert igamc_pvalue(5, 1000.0) < 1e-10


class TestGpusimEdges:
    def test_environment_run_empty(self):
        from repro.gpusim.events import Environment

        assert Environment().run() == 0.0

    def test_process_return_value_propagates(self):
        from repro.gpusim.events import Environment

        env = Environment()
        got = []

        def child():
            yield env.timeout(1)
            return "payload"

        def parent():
            value = yield env.process(child())
            got.append(value)

        env.process(parent())
        env.run()
        assert got == ["payload"]

    def test_timeline_device_intervals_sorted(self):
        from repro.gpusim.timeline import Timeline

        tl = Timeline()
        tl.add("CPU", 5, 6)
        tl.add("CPU", 0, 1)
        ivs = tl.device_intervals("CPU")
        assert [iv.start for iv in ivs] == [0, 5]
