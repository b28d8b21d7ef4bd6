"""Gluing diagnostics for multi-pullbacks of finite-dimensional algebras over Q."""

__version__ = "0.1.0"
