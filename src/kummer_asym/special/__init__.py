"""Numeric kernels: surface-aware Bessel and confluent evaluations."""

from .types import (LogComplex, NumericContext, Precision, RiemannPoint,
                    ScaledValue, is_nonpositive_integer, turn_reduce)
from .gammafn import bernoulli_numbers, log_gamma, log_gamma_ctx
from .quad import peak_integral
from .bessel import bessel_i, bessel_i_scaled, bessel_k, bessel_k_scaled
from .kummer import kummer_m, kummer_m_scaled, kummer_u, kummer_u_scaled

__all__ = [
    "LogComplex", "NumericContext", "Precision", "RiemannPoint",
    "ScaledValue", "is_nonpositive_integer", "turn_reduce",
    "bernoulli_numbers", "log_gamma", "log_gamma_ctx", "peak_integral",
    "bessel_i", "bessel_i_scaled", "bessel_k", "bessel_k_scaled",
    "kummer_m", "kummer_m_scaled", "kummer_u", "kummer_u_scaled",
]
