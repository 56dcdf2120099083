"""Traffic generation: bandwidth sets, patterns, application profiles.

* :mod:`repro.traffic.bandwidth_sets` -- the three bandwidth sets of
  table 3-1 with the packet geometry of table 3-3.
* :mod:`repro.traffic.patterns` -- uniform-random, skewed 1-3
  (table 3-2), skewed-hotspot 1-4 (section 3.4.2), real-application
  traffic, and classic synthetic patterns for substrate tests.
* :mod:`repro.traffic.apps` -- GPU application profiles (MUM, BFS, CP,
  RAY, LPS) substituting the thesis's GPGPU-Sim measurements.
* :mod:`repro.traffic.generator` -- Bernoulli packet injection processes.
* :mod:`repro.traffic.trace` -- record/replay of injection traces.
"""

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "APP_PROFILES": ("repro.traffic.apps", "APP_PROFILES"),
    "AppProfile": ("repro.traffic.apps", "AppProfile"),
    "BANDWIDTH_SETS": ("repro.traffic.bandwidth_sets", "BANDWIDTH_SETS"),
    "BW_SET_1": ("repro.traffic.bandwidth_sets", "BW_SET_1"),
    "BW_SET_2": ("repro.traffic.bandwidth_sets", "BW_SET_2"),
    "BW_SET_3": ("repro.traffic.bandwidth_sets", "BW_SET_3"),
    "BandwidthSet": ("repro.traffic.bandwidth_sets", "BandwidthSet"),
    "BitComplementTraffic": ("repro.traffic.patterns", "BitComplementTraffic"),
    "HotspotSkewedTraffic": ("repro.traffic.patterns", "HotspotSkewedTraffic"),
    "RealApplicationTraffic": ("repro.traffic.patterns", "RealApplicationTraffic"),
    "SkewedTraffic": ("repro.traffic.patterns", "SkewedTraffic"),
    "TraceRecord": ("repro.traffic.trace", "TraceRecord"),
    "TrafficGenerator": ("repro.traffic.generator", "TrafficGenerator"),
    "TrafficPattern": ("repro.traffic.patterns", "TrafficPattern"),
    "TrafficTrace": ("repro.traffic.trace", "TrafficTrace"),
    "TransposeTraffic": ("repro.traffic.patterns", "TransposeTraffic"),
    "UniformRandomTraffic": ("repro.traffic.patterns", "UniformRandomTraffic"),
    "pattern_by_name": ("repro.traffic.patterns", "pattern_by_name"),
    "place_applications": ("repro.traffic.apps", "place_applications"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
