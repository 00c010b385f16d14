"""Simulation and analysis of beacon-assisted cooperative spectrum access.

The package models a primary transmitter/receiver pair that announce channel
availability with beacon and feedback signals, plus secondary users that may
cooperatively relay those announcements.  It provides:

- closed-form and Monte Carlo estimates of beacon miss probabilities for
  the non-cooperative, cooperative, opportunistic and multiuser access
  schemes (:mod:`beaconsim.protocols`, :mod:`beaconsim.analysis`);
- low-probability "tail" estimators whose relative error stays bounded deep
  into the high-SNR regime (:mod:`beaconsim.fadeprob`);
- capacity bounds for the secondary link, ergodic and outage variants, and
  the losses caused by imperfect channel-metric estimates and by beacon
  overhead (:mod:`beaconsim.capacity`);
- a deterministic, thread-count-independent command line front end
  (:mod:`beaconsim.cli`).
"""

from . import analysis, capacity, channel, fadeprob, numerics, protocols
from .analysis import *
from .capacity import *
from .channel import *
from .fadeprob import *
from .numerics import *
from .protocols import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (analysis, capacity, channel, fadeprob, numerics, protocols)
    for name in module.__all__
)
