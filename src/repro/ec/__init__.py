"""Erasure-coding substrate: GF(2^8), Reed-Solomon, and LRC codecs."""

from .codec import (
    DecodeError,
    ErasureCodec,
    RepairRecipe,
    make_codec,
    register_codec,
    registered_schemes,
)
from .galois import (
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_bytes,
    gf_addmul_bytes,
    gf_matmul_bytes,
    gf_pow,
)
from .lrc import LocalReconstructionCodec
from .matrix import SingularMatrixError, cauchy, identity, invert, rank, vandermonde
from .msr import MsrCodec
from .reed_solomon import ReedSolomonCodec

__all__ = [
    "DecodeError",
    "ErasureCodec",
    "RepairRecipe",
    "LocalReconstructionCodec",
    "MsrCodec",
    "ReedSolomonCodec",
    "SingularMatrixError",
    "cauchy",
    "identity",
    "invert",
    "rank",
    "vandermonde",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "gf_mul_bytes",
    "gf_addmul_bytes",
    "gf_matmul_bytes",
    "gf_pow",
    "make_codec",
    "register_codec",
    "registered_schemes",
]
