"""Determinism regression: workers=1 and workers=4 must emit identical records.

The PR's contract is that process parallelism changes wall clock and
nothing else.  These tests serialize the harness sweep and a fault
campaign under both worker counts with the same seeds and diff the
normalized JSON byte-for-byte (ordering normalized by cell/run key,
timings excluded — the records exclude them by default).
"""

import json

import pytest

from repro.domains import media
from repro.experiments.harness import run_table2
from repro.network import chain_network
from repro.obs import Telemetry
from repro.simulate import RunJournal, campaign_fingerprint
from repro.simulate.campaign import run_campaign

pytestmark = pytest.mark.slow  # spawns real worker processes

CAMPAIGN_SPEC = {
    "faults": {
        "events": 6,
        "p_link_fail": 0.25,
        "p_link_jitter": 0.5,
        "p_node_jitter": 0.25,
        "p_transient": 0.7,
    },
    "rg_node_budget": 20_000,
}


def normalize_rows(rows):
    """Cell records keyed and ordered by (network, scenario)."""
    records = {(r.network, r.scenario): r.to_record() for r in rows}
    return json.dumps(
        [records[k] for k in sorted(records)], indent=2, sort_keys=True
    )


class TestTable2Determinism:
    def test_workers_4_matches_serial_byte_for_byte(self):
        serial = run_table2(("Tiny",), ("B", "C", "D", "E"), workers=1)
        fanned = run_table2(("Tiny",), ("B", "C", "D", "E"), workers=4)
        assert normalize_rows(serial) == normalize_rows(fanned)

    def test_parallel_rows_come_back_in_serial_order(self):
        serial = run_table2(("Tiny",), ("B", "C"), workers=1)
        fanned = run_table2(("Tiny",), ("B", "C"), workers=2)
        assert [(r.network, r.scenario) for r in fanned] == [
            (r.network, r.scenario) for r in serial
        ]
        # rows ship plan_names, not live plans, at every worker count
        assert all(r.plan is None for r in fanned + serial)
        for s, f in zip(serial, fanned):
            assert s.plan_names == f.plan_names

    def test_worker_metrics_merge_matches_serial_counts(self):
        """Counters are merged exactly once per worker task."""
        t_serial, t_fanned = Telemetry(), Telemetry()
        run_table2(("Tiny",), ("B", "C"), workers=1, telemetry=t_serial)
        run_table2(("Tiny",), ("B", "C"), workers=2, telemetry=t_fanned)
        for name in ("executor.plans", "executor.actions"):
            assert (
                t_fanned.metrics.counter(name).value
                == t_serial.metrics.counter(name).value
            )


class TestObservabilityDoesNotPerturbOutputs:
    """Tracing and streaming are observers: same records on or off."""

    def test_telemetry_on_vs_off_rows_byte_identical(self):
        plain = run_table2(("Tiny",), ("B", "C"), workers=2)
        traced = run_table2(
            ("Tiny",), ("B", "C"), workers=2, telemetry=Telemetry()
        )
        assert normalize_rows(plain) == normalize_rows(traced)

    def test_streaming_on_vs_off_rows_byte_identical(self):
        frames = []
        plain = run_table2(("Tiny",), ("B", "C"), workers=2)
        streamed = run_table2(
            ("Tiny",),
            ("B", "C"),
            workers=2,
            telemetry=Telemetry(),
            on_frame=lambda wid, frame: frames.append(frame),
        )
        assert normalize_rows(plain) == normalize_rows(streamed)
        assert frames  # the stream actually ran

    def test_campaign_telemetry_on_vs_off_byte_identical(self):
        def run(telemetry):
            net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
            app = media.build_app("n0", "n2")
            lev = media.proportional_leveling((90, 100))
            doc = run_campaign(
                app, net, lev, CAMPAIGN_SPEC, seeds=[11, 23], workers=2,
                telemetry=telemetry,
            )
            return json.dumps(doc, indent=2, sort_keys=True)

        assert run(None) == run(Telemetry())


class TestCampaignDeterminism:
    @staticmethod
    def run(workers):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        lev = media.proportional_leveling((90, 100))
        doc = run_campaign(
            app, net, lev, CAMPAIGN_SPEC, seeds=[11, 23, 47], workers=workers
        )
        # normalize ordering by seed (already seed-ordered by contract —
        # sorting here makes the byte-diff prove content, not luck)
        doc["runs"].sort(key=lambda r: r["seed"])
        return json.dumps(doc, indent=2, sort_keys=True)

    def test_workers_4_matches_serial_byte_for_byte(self):
        assert self.run(1) == self.run(4)

    def test_runs_keyed_by_seed_in_request_order(self):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        lev = media.proportional_leveling((90, 100))
        doc = run_campaign(
            app, net, lev, CAMPAIGN_SPEC, seeds=[5, 3, 9], workers=2
        )
        assert [r["seed"] for r in doc["runs"]] == [5, 3, 9]


def campaign_problem():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    app = media.build_app("n0", "n2")
    lev = media.proportional_leveling((90, 100))
    return app, net, lev


class TestCrashRecoveryDeterminism:
    """The supervision contract: worker deaths change nothing but wall clock.

    A worker SIGKILLed mid-campaign (via the supervisor's fault-injection
    hook) is respawned, its tasks retried, and the resulting document is
    byte-identical to a crash-free serial run.
    """

    @staticmethod
    def run(workers, telemetry=None, inject_kill=()):
        app, net, lev = campaign_problem()
        doc = run_campaign(
            app, net, lev, CAMPAIGN_SPEC, seeds=[11, 23, 47], workers=workers,
            telemetry=telemetry, inject_kill=inject_kill,
        )
        return json.dumps(doc, indent=2, sort_keys=True)

    def test_sigkilled_worker_output_matches_crash_free_serial(self):
        telemetry = Telemetry()
        killed = self.run(4, telemetry=telemetry, inject_kill={1})
        assert telemetry.metrics.counter("pool.worker.respawned").value >= 1
        assert telemetry.metrics.counter("pool.task.retried").value >= 1
        assert killed == self.run(1)

    def test_two_kills_still_match_serial(self):
        # Tasks 0 and 1 shard onto different workers, so both die.
        telemetry = Telemetry()
        killed = self.run(2, telemetry=telemetry, inject_kill={0, 1})
        assert telemetry.metrics.counter("pool.worker.respawned").value >= 2
        assert killed == self.run(1)


class TestCheckpointResumeDeterminism:
    """An interrupted, checkpointed campaign resumes byte-identically."""

    SEEDS = [11, 23, 47]

    def fingerprint(self):
        app, net, lev = campaign_problem()
        return campaign_fingerprint(
            app, net, lev, CAMPAIGN_SPEC, self.SEEDS, None, None, False
        )

    def run(self, journal=None, workers=1):
        app, net, lev = campaign_problem()
        doc = run_campaign(
            app, net, lev, CAMPAIGN_SPEC, seeds=self.SEEDS, workers=workers,
            journal=journal,
        )
        return json.dumps(doc, indent=2, sort_keys=True)

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        fp = self.fingerprint()
        with RunJournal(path, fp) as journal:
            baseline = self.run(journal=journal)

        # Interrupt: keep the header + the first completed entry, plus a
        # torn final line (the crash happened mid-append).
        lines = open(path, encoding="utf-8").read().splitlines()
        assert len(lines) == 1 + len(self.SEEDS)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
            fh.write(lines[2][: len(lines[2]) // 2])

        with RunJournal(path, fp, resume=True) as journal:
            assert len(journal) == 1  # torn entry dropped, one replayed
            resumed = self.run(journal=journal)
        assert resumed == baseline

    def test_resume_replays_without_recomputing(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        fp = self.fingerprint()
        with RunJournal(path, fp) as journal:
            baseline = self.run(journal=journal, workers=2)
        with RunJournal(path, fp, resume=True) as journal:
            assert len(journal) == len(self.SEEDS)
            replayed = self.run(journal=journal, workers=2)
        assert replayed == baseline
