"""Adam optimizer over a :class:`ParameterStore`.

One step is one elementwise update of the store's flat value vector
(:meth:`ParameterStore.flat_values`), with the moments held as flat vectors
in the same parameter order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError
from .mlp import ParameterStore


# The usual Adam constants; the learning rate is the one per-run setting.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    step: int = 0


def init_adam(store: ParameterStore, learning_rate: float = 1e-3) -> AdamState:
    flat = store.flat_values()
    return AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat),
                     learning_rate=learning_rate)


def optimizer_step(store: ParameterStore, state: AdamState) -> None:
    """One in-place Adam update; consumes and clears the gradients.

    Every parameter must carry a gradient buffer. Parameters outside the
    current loss still get exact-zero gradients from the backward pass, so
    a missing buffer means the training loop forgot to zero and backprop,
    which is a bug worth failing loudly on.
    """
    grads = []
    for name, param in store.items():
        if param.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient; "
                                "run backward() before optimizer_step()")
        grads.append(param.grad)
        param.grad = None
    flat = store.flat_values()
    g = np.concatenate(grads, axis=None)
    if g.size != flat.size or state.m.size != flat.size:
        raise ContractError("gradients and optimizer state must match the "
                            "parameters; run init_adam() on this store")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    # the per-parameter update's operations, in its order:
    # lr * m_hat / (sqrt(v_hat) + eps)
    update = state.learning_rate * (m / bias1)
    denom = np.sqrt(v / bias2)
    denom += EPSILON
    update /= denom
    flat -= update
