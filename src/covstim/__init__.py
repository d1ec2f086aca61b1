"""Desk-scale coverage-driven preference optimization laboratory.

A miniature HDL frontend and coverage simulator provide objective
coverage scores; a curation pipeline builds chosen/rejected stimulus
pairs; SFT, DPO, and coverage-weighted DPO trainers optimize a tabular
autoregressive stimulus policy; an evaluation harness reports mean@N /
best@N coverage and runs the four-way ablation.

Import each name from its module (``from covstim.training import train``).
The package imports none of them, so the front end (``checks``, ``hdl``,
``sim``, ``codec``, ``corpus``) loads without numpy.
"""

__version__ = "0.1.0"
