"""End-to-end sweep benchmark for the ``repro`` simulator (see README.md)."""
