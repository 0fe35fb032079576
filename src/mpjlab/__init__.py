"""mpjlab: simulate, verify, and attack one-way pointer-jumping protocols.

Names live in their modules and are imported from there, e.g.
`from mpjlab.sim import run` or `from mpjlab.registry import build_protocol`.
"""

__version__ = "0.1.0"
