"""The training losses as engine graphs: the reference that the package's
plain numpy passes must match byte for byte.

Each function builds, from `rlvc.engine` ops, the graph of the same
expressions in the same order as the pass it checks, so engine.backward on
it gives the bits that pass must give. Data enter as plain arrays; a Tensor
is taken only where the gradient flows on (the synthesized rows that the
critics, the cue losses and the reward model score).
"""

from __future__ import annotations

import numpy as np

from rlvc import engine
from rlvc.engine import Tensor
from rlvc.nets import AdamState

_NORM_FLOOR = 1e-200


def flat_grad(loss: Tensor, params) -> np.ndarray:
    """engine.backward of loss w.r.t. params, each gradient laid out
    row-major, concatenated as `DenseNet.flat` lays out the parameters."""
    return np.concatenate([np.ravel(g) for g in engine.backward(loss, params)])


def params(net) -> list[Tensor]:
    """A float64 network's parameter Tensors in the order of `flat`: per
    layer the weight, then the bias."""
    return [p for pair in zip(net.weights, net.biases) for p in pair]


def forward(net, h: Tensor) -> Tensor:
    """The dense net on a graph node: linear layers with leaky-relu between."""
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = engine.linear(h, w, b)
        if i < last:
            h = engine.leaky_relu(h, net.slope)
    return h


def synthesize(gen, eps, z, x_noisy, t) -> Tensor:
    return forward(gen.net, Tensor(gen._inputs(eps, z, x_noisy, t)))


def score(net, x, cond: np.ndarray) -> Tensor:
    """A critic's scores of rows x (an array or a graph node) under the fixed
    conditioning columns cond."""
    return forward(net, engine.concat([x, Tensor(cond)], axis=1))


def masks(net, x: np.ndarray) -> list[np.ndarray]:
    """The leaky-relu mask where(pre > 0, 1, slope) of each hidden layer at
    input rows x, from pre-activations computed here, not read from the
    forward pass under test."""
    out, h = [], x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = h @ w.data.T + b.data
        out.append(np.where(pre > 0.0, 1.0, net.slope))
        h = pre * out[-1]
    return out


def input_grad(net, x: np.ndarray) -> Tensor:
    """Gradient of sum(net(x)) w.r.t. each row of x, as a graph node of the
    weights: ones @ W_L @ D_{L-1} @ ... @ D_1 @ W_1 per row, with the
    leaky-relu masks D held constant."""
    g = Tensor(np.ones((x.shape[0], net.layer_dims[-1]))) @ net.weights[-1]
    for w, mask in zip(reversed(net.weights[:-1]), reversed(masks(net, x))):
        g = (g * Tensor(mask)) @ w
    return g


def gradient_norms(net, x_hat: np.ndarray, cond: np.ndarray) -> Tensor:
    """Per-row L2 norm of d sum(net) / d x_hat, the conditioning held fixed."""
    g = engine.slice_axis(input_grad(net, np.concatenate([x_hat, cond], axis=1)), 0, x_hat.shape[1])
    return engine.sqrt(engine.maximum_const(engine.tsum(g * g, axis=1), _NORM_FLOOR))


def critic_terms(net, real, fake, cond, lambda_gp: float, rng) -> Tensor:
    """gan.critic_x0_loss (cond = z) and gan.critic_xt_loss (cond =
    critic.condition(x_next, z, t))."""
    wass = -engine.tmean(score(net, real, cond)) + engine.tmean(score(net, fake, cond))
    u = rng.uniform(size=(real.shape[0], 1))
    norms = gradient_norms(net, u * real + (1.0 - u) * fake, cond)
    return wass + lambda_gp * engine.tmean((norms - 1.0) ** 2.0)


def generator_adv_terms(critic_x0, critic_xt, x0_tilde: Tensor, z, x_next, t, sched, eps_post):
    """gan.generator_adv_terms on the synthesized rows x0_tilde, whose
    transition sample is `diffusion.posterior_sample`'s expression with the
    draw eps_post: the loss and that sample's graph node."""
    xt_tilde = (Tensor(sched.c1[t]) * x0_tilde + Tensor(sched.c2[t] * x_next)) + Tensor(
        sched.sigma[t] * eps_post)
    loss = -engine.tmean(score(critic_x0.net, x0_tilde, z)) - engine.tmean(
        score(critic_xt.net, xt_tilde, critic_xt.condition(x_next, z, t))
    )
    return loss, xt_tilde


def cue_loss(x: Tensor, v: np.ndarray) -> Tensor:
    """cues.cue_loss with weight 1, against the prototype rows v."""
    x_sq = engine.tsum(x * x, axis=1)
    mask = Tensor((x_sq.data > 0.0).astype(np.float64))
    x_norm = engine.sqrt(engine.maximum_const(x_sq, _NORM_FLOOR))
    v_norm = Tensor(np.linalg.norm(v, axis=1))
    cos = mask * engine.tsum(x * Tensor(v), axis=1) / (x_norm * v_norm)
    return engine.tmean(1.0 - cos)


def class_log_probs(model, x: Tensor, y) -> Tensor:
    pick = Tensor(np.eye(model.n_classes)[np.asarray(y).reshape(-1)])
    logits = engine.linear(x, model.weight, model.bias)
    return engine.tsum(engine.log_softmax(logits, axis=1) * pick, axis=1)


def rl_loss(log_probs: Tensor) -> Tensor:
    return -engine.tmean(log_probs)


def fit_linear_softmax(features, rows, n_classes, epochs, lr, batch_size, beta1, beta2, rng):
    """nets.fit_linear_softmax: the same draws and Adam steps, each gradient
    from engine.backward on the cross-entropy graph of the minibatch."""
    split = n_classes * features.shape[1]
    wb = np.zeros(split + n_classes)
    w = Tensor(wb[:split].reshape(n_classes, features.shape[1]), requires_grad=True)
    b = Tensor(wb[split:], requires_grad=True)
    opt = AdamState([wb], lr=lr, beta1=beta1, beta2=beta2)
    onehot = np.eye(n_classes)[rows]
    n = features.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            lp = engine.log_softmax(engine.linear(Tensor(features[idx]), w, b), axis=1)
            loss = -engine.tmean(engine.tsum(lp * Tensor(onehot[idx]), axis=1))
            opt.step([flat_grad(loss, [w, b])])
    return w.data, b.data
