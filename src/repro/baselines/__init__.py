"""Baselines the paper compares against, plus the Monte-Carlo influence
oracle used by every "Influence" column.

InfuserMG and StaticGreedy are not separate modules: each is
:func:`repro.core.pacim.run_pacim` with ``selector="celf"`` and
``alpha=1.0`` (InfuserMG) or ``alpha=0.0`` (StaticGreedy)."""
from repro.baselines.simulate import estimate_spread, estimate_spread_local  # noqa: F401
from repro.baselines.general_greedy import general_greedy  # noqa: F401
from repro.baselines.ris import run_ris, RRBudgetExceeded  # noqa: F401
