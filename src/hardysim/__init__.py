"""Two-qubit Hardy nonlocality test: exact simulation, noisy emulation, metrics."""

__version__ = "0.1.0"
