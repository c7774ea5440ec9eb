"""Adam optimizer over a :class:`ParameterStore`.

One step is one elementwise update of the store's vector
(``ParameterStore.tensor``) from the gradient a training step left on it,
with the moments held as vectors in the same layout.
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
    values = store.tensor.values
    return AdamState(m=np.zeros_like(values), v=np.zeros_like(values),
                     learning_rate=learning_rate)


def optimizer_step(store: ParameterStore, state: AdamState) -> None:
    """One in-place Adam update of the store's vector from the gradient
    on ``store.tensor``, which it clears. A missing gradient means the
    training loop forgot to backprop, a bug worth failing loudly on."""
    g = store.tensor.grad
    if g is None:
        raise ContractError("the parameters have no gradient; run "
                            "backward() before optimizer_step()")
    store.tensor.grad = None
    if g.shape != state.m.shape:
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
    store.tensor.values -= update
