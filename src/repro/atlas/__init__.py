"""RIPE Atlas substrate.

Simulates the two RIPE Atlas data sources the paper leans on:

* the platform-wide traceroute campaign to Google Public DNS
  (MSM 1591146, every 30 minutes since March 2014) behind Fig. 12 and the
  Appendix J probe map (Fig. 20);
* the built-in CHAOS TXT measurements to all 13 root servers behind
  Fig. 6, Fig. 16 (Appendix E) and Fig. 17 (Appendix F).

Modules:

* :mod:`repro.atlas.probes` -- the probe registry (location, AS, lifetime).
* :mod:`repro.atlas.traceroute` -- Atlas-style traceroute results with a
  JSON round-trip and min-RTT extraction.
* :mod:`repro.atlas.dnsbuiltin` -- Atlas-style DNS results carrying CHAOS
  TXT answers.
* :mod:`repro.atlas.rttmodel` -- the deterministic RTT model (country
  curves; distance-to-Colombia scaling inside Venezuela).
* :mod:`repro.atlas.synthetic` -- probe registry and campaign generators
  calibrated to the paper.
"""

from repro.atlas.dnsbuiltin import DNSBuiltinResult
from repro.atlas.probes import Probe, ProbeRegistry
from repro.atlas.rttmodel import GPDNS_MSM_ID, gpdns_probe_rtt, gpdns_target_rtt
from repro.atlas.synthetic import synthesize_probe_registry
from repro.atlas.traceroute import Hop, TracerouteResult

__all__ = [
    "DNSBuiltinResult",
    "GPDNS_MSM_ID",
    "Hop",
    "Probe",
    "ProbeRegistry",
    "TracerouteResult",
    "gpdns_probe_rtt",
    "gpdns_target_rtt",
    "synthesize_probe_registry",
]
