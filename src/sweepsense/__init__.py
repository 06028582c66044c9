"""Frequency-scanned virtual-aperture near-field sensing simulator.

Synthesizes single-RF-chain dual-channel frequency-sweep measurements,
builds and matches spatial fingerprints for 3-D localization, and derives
architecture-comparison metrics for sensing front ends under shared size
and bandwidth constraints.
"""
