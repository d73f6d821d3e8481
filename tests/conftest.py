"""Shared generators for the test suite."""

from graphonlab.cli import _random_graphon as random_graphon  # noqa: F401
