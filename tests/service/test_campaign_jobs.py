"""Campaign jobs through the HTTP service: results bit-identical to
direct runs, per-job progress in the status JSON, campaign counters in
``/metrics``, and checkpoint resume across job submissions.
"""

import pytest

from repro.analysis import GraphDamageAnalysis
from repro.bench import build_design
from repro.campaigns import (
    DiagnosisPlan,
    KFaultPlan,
    MonteCarloPlan,
    run_campaign,
)
from repro.service import AnalysisService
from repro.service.client import ServiceClientError
from repro.spec import spec_for_network


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = AnalysisService(
        cache_dir=str(tmp_path_factory.mktemp("campaign-cache")),
        workers=2,
    )
    yield svc
    svc.close(drain=False, timeout=10.0)


@pytest.fixture(scope="module")
def fingerprint(client):
    return client.upload_network(design="TreeFlat")["fingerprint"]


def _direct(plan, **kwargs):
    network = build_design("TreeFlat")
    spec = spec_for_network(network, seed=0)
    analysis = GraphDamageAnalysis(network, spec)
    return run_campaign(analysis, plan, **kwargs)


class TestCampaignJobs:
    def test_montecarlo_job_matches_direct_run(self, client, fingerprint):
        plan = MonteCarloPlan(
            rates=(0.01, 0.05), samples=120, seed=1, sampler="vectorized"
        )
        record = client.campaign(fingerprint, plan)
        result = record["result"]
        assert result["outcome"] == "completed"
        assert result["records"] == _direct(plan)["records"]
        assert record["params"]["campaign"] == "montecarlo"
        assert record["params"]["plan"] == plan.as_dict()

    def test_scalar_sampler_job_matches_direct_run(
        self, client, fingerprint
    ):
        plan = MonteCarloPlan(
            rates=(0.05,), samples=80, seed=2, sampler="scalar",
            bootstrap=0,
        )
        record = client.campaign(fingerprint, plan)
        assert record["result"]["records"] == _direct(plan)["records"]

    def test_kfault_job_matches_direct_run(self, client, fingerprint):
        plan = KFaultPlan(k=2, top=5)
        record = client.campaign(fingerprint, plan)
        assert record["result"]["summary"] == _direct(plan)["summary"]

    def test_diagnosis_job_matches_direct_run(self, client, fingerprint):
        plan = DiagnosisPlan(observations=120, seed=0)
        record = client.campaign(fingerprint, plan)
        result = record["result"]
        assert result["summary"] == _direct(plan)["summary"]
        assert result["summary"]["observations_evaluated"] == 120

    def test_progress_surfaces_in_job_status(self, client, fingerprint):
        plan = MonteCarloPlan(
            rates=(0.02,), samples=64, seed=3, block_lanes=16
        )
        record = client.campaign(fingerprint, plan)
        # Terminal status carries the final fraction.
        assert record["progress"] == 1.0
        # Non-campaign jobs keep a null progress field.
        sleep = client.submit(kind="sleep", seconds=0.0)
        done = client.wait(sleep["id"], timeout=30.0)
        assert done["progress"] is None

    def test_checkpoint_resume_across_submissions(
        self, client, fingerprint
    ):
        plan = MonteCarloPlan(
            rates=(0.03,), samples=96, seed=4, block_lanes=16
        )
        first = client.campaign(fingerprint, plan)
        again = client.campaign(fingerprint, plan)
        result = again["result"]
        # Same payload -> same checkpoint file -> every block replays.
        assert result["blocks_resumed"] == result["blocks_total"]
        assert result["records"] == first["result"]["records"]

    def test_no_resume_flag_recomputes(self, client, fingerprint):
        plan = MonteCarloPlan(
            rates=(0.03,), samples=96, seed=5, block_lanes=16
        )
        client.campaign(fingerprint, plan)
        fresh = client.campaign(fingerprint, plan, resume=False)
        assert fresh["result"]["blocks_resumed"] == 0

    def test_campaign_metrics_exported(self, client, fingerprint):
        client.campaign(
            fingerprint,
            MonteCarloPlan(rates=(0.01,), samples=32, seed=6),
        )
        text = client.metrics()
        assert (
            'repro_campaign_blocks_total{kind="montecarlo", '
            'origin="computed"}' in text
        )
        assert (
            'repro_campaign_runs_total{kind="montecarlo", '
            'outcome="completed"}' in text
        )
        assert (
            'repro_campaign_units_total{kind="montecarlo", '
            'unit="samples"}' in text
        )
        assert "repro_campaign_block_seconds" in text
        assert 'repro_jobs_total{kind="campaign", ' in text

    def test_malformed_plans_rejected(self, client, fingerprint):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(
                kind="campaign",
                fingerprint=fingerprint,
                campaign={"kind": "nope"},
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(kind="campaign", fingerprint=fingerprint)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(
                kind="campaign",
                fingerprint=fingerprint,
                campaign={"kind": "montecarlo", "rates": [0.1], "bogus": 1},
            )
        assert excinfo.value.status == 400

    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(
                kind="campaign",
                fingerprint="f" * 64,
                campaign={"kind": "kfault"},
            )
        assert excinfo.value.status == 404
