"""Platform catalog: Grid'5000-like clusters of the paper's evaluation."""

import os

from .catalog import (
    BORDEREAU_NODES, GDX_NODES, NAMED_PLATFORMS, bordereau,
    default_sharing_model, gdx, grid5000, named_platform,
    npb_efficiency_model,
)

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def platform_xml_path(name: str) -> str:
    """Path to a shipped SimGrid v3 platform file.

    Available: ``bordereau``, ``gdx``, ``grid5000``, and ``mycluster``
    (the paper's exact Fig. 5 example).  These are the calibrated-flavour
    descriptions (nominal rates, no efficiency models) ready for
    ``repro-replay --platform-xml``.
    """
    path = os.path.join(_DATA_DIR, f"{name}.xml")
    if not os.path.exists(path):
        available = sorted(
            f[:-4] for f in os.listdir(_DATA_DIR) if f.endswith(".xml")
        )
        raise KeyError(f"no shipped platform {name!r}; available: {available}")
    return path

__all__ = [
    "BORDEREAU_NODES", "GDX_NODES", "NAMED_PLATFORMS", "bordereau",
    "default_sharing_model", "gdx", "grid5000", "named_platform",
    "npb_efficiency_model", "platform_xml_path",
]
