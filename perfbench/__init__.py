"""Serving benchmark for the DiTile-DGNN streaming service (see README.md)."""
