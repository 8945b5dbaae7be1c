"""Simulated evaluation hardware.

The paper measures on two machines: a MacBook Pro (M1 Pro, 16 GB, FP16,
attention splitting, no large text encoder) and a workstation (Threadripper
Pro, 128 GB, 2×NVIDIA RTX 4000 Ada, FP16, large text encoder, no attention
splitting). Neither is available here, so :mod:`repro.devices.profiles`
models them: performance anchors taken from the paper's published numbers
(Tables 1-2, §6.2-6.3 prose) with power-law interpolation between anchors,
and per-task power draw integrated over simulated time for energy.
"""

from repro.devices.profiles import (
    DeviceProfile,
    LAPTOP,
    WORKSTATION,
    MOBILE,
    CLOUD,
    DEVICES,
    get_device,
)
from repro.devices.future import (
    project_device,
    project_model,
    generation_vs_transmission,
    find_crossover,
)
from repro.devices.energy import (
    TRANSMISSION_WH_PER_MB,
    transmission_energy_wh,
    transmission_time_s,
    embodied_carbon_kg,
    SSD_EMBODIED_KG_CO2E_PER_TB,
)

__all__ = [
    "DeviceProfile",
    "LAPTOP",
    "WORKSTATION",
    "MOBILE",
    "CLOUD",
    "DEVICES",
    "get_device",
    "TRANSMISSION_WH_PER_MB",
    "transmission_energy_wh",
    "transmission_time_s",
    "embodied_carbon_kg",
    "SSD_EMBODIED_KG_CO2E_PER_TB",
    "project_device",
    "project_model",
    "generation_vs_transmission",
    "find_crossover",
]
