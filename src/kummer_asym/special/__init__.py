"""Numeric kernels: surface-aware Bessel and confluent evaluations."""
