"""Comparison frameworks for the Section 6 evaluation."""

from .base import CpuCost, Framework, FrameworkResult, Unsupported
from .bgl import BglFramework
from .ligra import LigraFramework, LigraEngine
from .powergraph import PowerGraphFramework, PowerGraphEngine, GasProgram
from .medusa import MedusaFramework, MedusaEngine
from .mapgraph import MapGraphFramework, MapGraphEngine
from .hardwired import HardwiredFramework
from .gunrock import GunrockFramework

#: Table 2's column order
ALL_FRAMEWORKS = [
    BglFramework, PowerGraphFramework, MedusaFramework, MapGraphFramework,
    HardwiredFramework, LigraFramework, GunrockFramework,
]


def by_name(name: str) -> Framework:
    """Instantiate a framework by its table name (case-insensitive)."""
    for cls in ALL_FRAMEWORKS:
        if cls.name.lower() == name.lower():
            return cls()
    raise KeyError(f"unknown framework {name!r}; choose from "
                   f"{[c.name for c in ALL_FRAMEWORKS]}")


__all__ = [
    "CpuCost", "Framework", "FrameworkResult", "Unsupported",
    "BglFramework", "LigraFramework", "LigraEngine",
    "PowerGraphFramework", "PowerGraphEngine", "GasProgram",
    "MedusaFramework", "MedusaEngine",
    "MapGraphFramework", "MapGraphEngine",
    "HardwiredFramework", "GunrockFramework",
    "ALL_FRAMEWORKS", "by_name",
]
