"""PySpark reproduction of PaC-IM (Wang, Ding, Gu, Sun — VLDB 2023):
fast and space-efficient parallel influence maximization.

Subpackages: ``graphs`` (generators/CSR/probability models), ``cc``
(connectivity kernels), ``core`` (compressed sketches + parallel CELF
— the paper's contribution; InfuserMG and StaticGreedy are its
``selector="celf"`` runs at α = 1 and α = 0), ``baselines``
(Ripples/RIS, GeneralGreedy, MC oracle), ``eval`` (table harnesses).
See DESIGN.md and EXPERIMENTS.md at the repo root.
"""
