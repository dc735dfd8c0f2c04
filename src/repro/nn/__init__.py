"""Neural network layers built on the repro.tensor autodiff substrate."""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.recurrent import LSTM, GRU, BiLSTM
from repro.nn.conv import Conv1d, CNNEncoder
from repro.nn.attention import (
    AttentionPooling,
    MultiHeadAttention,
    TransformerBlock,
    TransformerEncoder,
)
from repro.nn.normalization import LayerNorm
from repro.nn.dropout import Dropout
from repro.nn.pooling import MaxPooling, MeanPooling, make_pooling
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LSTM",
    "GRU",
    "BiLSTM",
    "Conv1d",
    "CNNEncoder",
    "MultiHeadAttention",
    "AttentionPooling",
    "TransformerBlock",
    "TransformerEncoder",
    "LayerNorm",
    "Dropout",
    "MaxPooling",
    "MeanPooling",
    "make_pooling",
    "init",
]
