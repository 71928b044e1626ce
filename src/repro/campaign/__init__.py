"""repro.campaign — parallel experiment campaigns with result caching.

The paper's evaluation is not one replay but a *sweep*: the same
acquire → calibrate → replay pipeline over a grid of (application,
class, rank count, platform, options) points, compared side by side
(Table 2, Figs. 7-9).  This package runs such sweeps as first-class
objects:

* :mod:`~repro.campaign.spec` — declarative scenario/campaign
  descriptions with cross-product grid expansion;
* :mod:`~repro.campaign.runner` — one scenario in one child process,
  and ``run_campaign``, which runs a campaign as one job of work units;
* :mod:`~repro.campaign.queue` / :mod:`~repro.campaign.dispatch` — the
  persistent job queue and the dispatcher with its one retry policy,
  shared with :mod:`repro.service`;
* :mod:`~repro.campaign.cache` — content-addressed result caching, so a
  re-run only replays what actually changed;
* :mod:`~repro.campaign.store` / :mod:`~repro.campaign.report` — JSON
  run records, the campaign manifest, and the Table-2/Fig-8-style
  comparison rendering;
* :mod:`~repro.campaign.cli` — the ``repro-campaign`` tool.
"""

from .cache import ResultCache, scenario_cache_key
from .runner import CampaignResult, execute_scenario, run_campaign
from .spec import (
    CalibrationSpec, CampaignSpec, FaultSpec, PlatformSpec, ReplaySpec,
    Scenario, TraceSpec, expand_grid, load_campaign_spec,
)
from .store import CampaignStore, RunRecord
from .telemetry import CampaignMetrics

__all__ = [
    "TraceSpec", "PlatformSpec", "CalibrationSpec", "ReplaySpec",
    "FaultSpec", "Scenario", "CampaignSpec", "expand_grid",
    "load_campaign_spec",
    "scenario_cache_key", "ResultCache", "CampaignMetrics",
    "RunRecord", "CampaignStore",
    "execute_scenario", "run_campaign", "CampaignResult",
]
