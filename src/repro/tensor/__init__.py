"""numpy autograd + neural-network substrate (PyTorch stand-in)."""

import ctypes

from . import functional
from .attention import MultiHeadAttention, TransformerEncoderLayer
from .clip import clip_grad_norm, global_grad_norm
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from .module import Module, ModuleList, Sequential
from .optim import SGD, Adam, AdamW, Optimizer
from .recurrent import LSTM, LSTMCell
from .schedulers import CosineAnnealingLR, LRScheduler, StepLR, WarmupLR
from .serde import load_checkpoint, save_checkpoint
from .tensor import Tensor, ones, randn, tensor, zeros


def keep_freed_memory() -> bool:
    """Keep freed arrays in the heap so that each step does not fault them back in.

    Pins glibc's mmap threshold (``M_MMAP_THRESHOLD``, -3) at its adaptive ceiling,
    32 MiB, and its trim threshold (-1) at twice that; see docs/performance.md.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20))


keep_freed_memory()

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "randn",
    "functional",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "Tanh",
    "GELU",
    "Flatten",
    "Dropout",
    "LayerNorm",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "save_checkpoint",
    "load_checkpoint",
    "BatchNorm2d",
    "clip_grad_norm",
    "global_grad_norm",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupLR",
]
