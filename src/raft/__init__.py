"""Feature-space reconstruction for tabular data via cascading actor-critic
agents, with full lineage traceability."""
