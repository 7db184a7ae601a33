"""Referring grounding on synthetic scenes with mixture-of-granularity attention.

A desk-scale stack: an autodiff kernel that computes in float32 by default
(float64 on request) beside a float64 finite-difference oracle,
dilation-masked multi-branch attention fused by a learned convex
gate, a DETR-style two-stage query decoder, Hungarian set matching, the
precision/statistics tooling, and a CLI that trains, evaluates, sweeps, and
summarizes annotation files.
"""

__version__ = "0.1.0"
