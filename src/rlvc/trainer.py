"""Cold-start training loop.

Per minibatch: K critic updates (both critics, one summed objective), one
generator update on the composite adversarial + distillation objective, and,
only once the epoch index reaches rl_start_epoch, one policy-gradient update
through a separate optimizer state, built only when use_rl is on. The two
generator objectives alternate; they are never summed into a single step.
The policy step descends `reward.rl_loss`, minus the batch-mean reward of
freshly synthesized rows, through the generator's reparameterized sample.

What each step draws and reads, the minibatch's rows x0 and prototypes z
being drawn first from the "train" stream:

- each critic step draws, from "train", t in 0..T-1, x_t ~ q(x_t | x0),
  x_{t+1} ~ q(x_{t+1} | x_t) and the generator's noise; synthesizes the fake
  x0 from x_{t+1} at t + 1 and draws its fake x_t from the posterior
  q(x_t | x_{t+1}, fake x0); then each critic's penalty draws its u;
- the generator step draws nothing: it scores the last critic step's fake
  x0 and x_t rows with the updated critics, under the transition critic's
  conditioning columns that step built (`CriticXt.condition`, once per
  critic step), and pulls the gradient back through that step's generator
  forward, which the critic update left valid;
- the policy step draws, from "rl", t, x_{t+1} ~ q(x_{t+1} | x0) in one
  block and the generator's noise, then synthesizes its rows.

So a minibatch runs the generator once per critic step and once more for
the policy step.

Everything a minibatch computes is of config.dtype: the networks, their Adam
state, the batch rows, the prototypes, the diffusion tables, the reward
model (narrowed once per run) and every normal draw. The dataset, the
evaluation reports and the logged values stay float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import cues, diffusion, gan, nets, reward as reward_mod
from .config import Config
from .data import ZslDataset
from .errors import ConfigurationError, NumericFailure
from .evaluate import EvalReport, full_report
from .nets import AdamState, largest_block, param_count
from .seeding import stream_rng

@dataclass
class MetricsRow:
    epoch: int
    raw_reward_mean: float
    critic_loss: float
    gen_adv_loss: float
    pd_loss: float
    czsl_acc: float
    gzsl_u: float
    gzsl_s: float
    gzsl_h: float

    def to_csv(self) -> str:
        cells = [str(self.epoch)]
        for name in METRICS_COLUMNS[1:]:
            cells.append(repr(float(getattr(self, name))))
        return ",".join(cells)


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


@dataclass
class EpochCounters:
    epoch: int
    critic_updates: int = 0
    gen_updates: int = 0
    rl_updates: int = 0


@dataclass
class TrainResult:
    generator: gan.Generator
    critic_x0: gan.CriticX0
    critic_xt: gan.CriticXt
    metrics: list[MetricsRow]
    counters: list[EpochCounters]
    visual_prototypes: np.ndarray | None
    reports: dict[int, EvalReport] = field(default_factory=dict)


def _require_finite(value: float, what: str, epoch: int, batch: int) -> float:
    if not np.isfinite(value):
        raise NumericFailure(f"{what} is non-finite at epoch {epoch}, batch {batch}")
    return value


def _step(opt: AdamState, grads: list, what: str, epoch: int, batch: int) -> None:
    """One Adam step; a NumericFailure it raises is raised again naming the
    training step and its position."""
    try:
        opt.step(grads)
    except NumericFailure as e:
        raise NumericFailure(f"{what} step at epoch {epoch}, batch {batch}: {e}") from e


def training_floats(feat_dim: int, sem_dim: int, config: Config) -> int:
    """The entries of config.dtype that training holds in its parameter-sized
    arrays: each network's parameters and one gradient of them, two Adam
    moments per optimized vector (the generator has a second optimizer when
    use_rl is on), and Adam's shared scratch pair."""
    gen, *critics = (
        param_count(net.layer_dims(feat_dim, sem_dim, config))
        for net in (gan.Generator, gan.CriticX0, gan.CriticXt)
    )
    params = gen + sum(critics)
    moments = 2 * (params + (gen if config.use_rl else 0))
    return 2 * params + moments + 2 * max(largest_block(n) for n in (gen, *critics))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def train(
    dataset: ZslDataset,
    reward_model: nets.SoftmaxClassifier | None,
    config: Config,
    out_dir: str | None = None,
) -> TrainResult:
    """Run the full schedule and return the trained generator plus logs.

    The reward model must cover the seen classes (rows in sorted-id order)
    and is required whenever the RL phase is enabled. Before the first
    epoch, visual prototypes are mined and each training label is mapped to
    its seen row, once; a batch's rows then pick both its reward class and
    its prototypes. Checkpoints are written every checkpoint_interval epochs
    and at completion; a numeric abort names the step or value and its
    epoch and batch, and leaves the last written checkpoint on disk. A run
    whose `training_floats`, at config.dtype's bytes per entry, would not
    fit in physical memory is refused before any network is built.
    """
    dataset.validate()

    train_x, train_y = dataset.train
    n_train, d = train_x.shape
    seen = dataset.seen_classes
    train_rows = dataset.seen_rows(train_y)
    if config.use_rl:
        if reward_model is None:
            raise ConfigurationError("RL phase enabled but no reward model given")
        if reward_model.n_classes != len(seen) or reward_model.feat_dim != d:
            raise ConfigurationError(
                f"reward model covers {reward_model.n_classes} classes / dim "
                f"{reward_model.feat_dim}, dataset has {len(seen)} seen / dim {d}"
            )

    dtype = np.dtype(config.dtype)
    need = dtype.itemsize * training_floats(d, dataset.sem_dim, config)
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigurationError(
            f"training would hold {need:,} bytes of parameters, gradients and Adam "
            f"state, more than the {have:,} bytes of physical memory; lower hidden_mult"
        )

    visual_prototypes = cues.mine_prototypes(train_x, train_y, seen) if config.use_cues else None
    # The minibatches' sources in the run's dtype, narrowed once (no copy at
    # float64). The reward model is scored and differentiated in it too.
    batch_x = train_x.astype(dtype, copy=False)
    proto_matrix = dataset.prototypes.astype(dtype, copy=False)
    visual = None if visual_prototypes is None else visual_prototypes.astype(dtype, copy=False)
    if reward_model is not None and reward_model.weight.dtype != dtype:
        reward_model = nets.SoftmaxClassifier(reward_model.weight, reward_model.bias,
                                              reward_model.class_ids, dtype)
    sched = config.schedule()

    init_rng = stream_rng(config.seed, "init")
    generator = gan.Generator(d, dataset.sem_dim, config, init_rng)
    critic_x0 = gan.CriticX0(d, dataset.sem_dim, config, init_rng)
    critic_xt = gan.CriticXt(d, dataset.sem_dim, config, init_rng)

    betas = dict(beta1=config.adam_beta1, beta2=config.adam_beta2)
    opt_critic = AdamState([critic_x0.net.flat, critic_xt.net.flat], lr=config.lr_adv, **betas)
    opt_gen = AdamState([generator.net.flat], lr=config.lr_adv, **betas)
    # The RL phase owns a separate optimizer state over the same parameters;
    # its updates alternate with the adversarial step rather than summing.
    # As in training_floats, it exists only when use_rl is on.
    opt_rl = AdamState([generator.net.flat], lr=config.lr_rl, **betas) if config.use_rl else None

    train_rng = stream_rng(config.seed, "train")
    rl_rng = stream_rng(config.seed, "rl")

    batches_per_epoch = -(-n_train // config.batch_size)

    metrics: list[MetricsRow] = []
    counters: list[EpochCounters] = []
    reports: dict[int, EvalReport] = {}
    metrics_fh = None
    if out_dir is not None:
        ckpt_path = os.path.join(out_dir, "generator.ckpt")
        os.makedirs(out_dir, exist_ok=True)
        metrics_fh = open(os.path.join(out_dir, "metrics.csv"), "w", newline="\n")
        metrics_fh.write(",".join(METRICS_COLUMNS) + "\n")

    try:
        for epoch in range(config.epochs):
            cnt = EpochCounters(epoch=epoch)
            rl_active = config.use_rl and epoch >= config.rl_start_epoch
            critic_vals, adv_vals, cue_vals = [], [], []
            reward_means = []

            for batch_i in range(batches_per_epoch):
                idx = train_rng.integers(0, n_train, size=config.batch_size)
                x0 = batch_x[idx]
                z = proto_matrix[train_y[idx]]
                rows = train_rows[idx]

                for _ in range(config.critic_steps):
                    t = train_rng.integers(0, config.diffusion_steps, size=x0.shape[0])
                    x_t = diffusion.forward_noise(x0, t, sched, train_rng)
                    x_next = diffusion.forward_transition(x_t, t, sched, train_rng)
                    eps_g = train_rng.standard_normal(x0.shape, dtype)
                    fake_x0, gen_cache = generator.synthesize(eps_g, z, x_next, t + 1)
                    fake_xt = diffusion.posterior_sample(fake_x0, x_next, t, sched, train_rng)
                    loss0, grad0 = gan.critic_x0_loss(
                        critic_x0, x0, fake_x0, z, config.lambda_gp, train_rng
                    )
                    cond = critic_xt.condition(x_next, z, t)
                    losst, gradt = gan.critic_xt_loss(
                        critic_xt, x_t, fake_xt, cond, config.lambda_gp, train_rng
                    )
                    total = loss0.item() + losst.item()
                    _require_finite(total, "critic loss", epoch, batch_i)
                    _step(opt_critic, [grad0, gradt], "critic", epoch, batch_i)
                    cnt.critic_updates += 1
                    critic_vals.append(total)

                # The last critic step's fakes and conditioning, scored by the
                # updated critics: that step changed no generator weight, so
                # its forward cache still pulls the gradient back.
                adv_loss, g_x0 = gan.generator_adv_terms(
                    critic_x0, critic_xt, fake_x0, fake_xt, z, cond, sched.c1[t]
                )
                _require_finite(adv_loss.item(), "generator adversarial loss", epoch, batch_i)
                if config.use_cues:
                    cue_term, cue_grads = cues.cue_loss(
                        fake_x0, visual[rows], config.lambda_pd
                    )
                    _require_finite(cue_term.item(), "distillation loss", epoch, batch_i)
                    for g in cue_grads:
                        g_x0 = g_x0 + g
                    cue_vals.append(cue_term.item())
                _step(opt_gen, [generator.net.pullback(gen_cache, g_x0)], "generator", epoch,
                      batch_i)
                cnt.gen_updates += 1
                adv_vals.append(adv_loss.item())

                if rl_active:
                    # x_{t+1} ~ q(x_{t+1} | x_0) in one draw: no x_t is read here
                    t = rl_rng.integers(0, config.diffusion_steps, size=x0.shape[0])
                    x_next = diffusion.forward_noise(x0, t + 1, sched, rl_rng)
                    eps_g = rl_rng.standard_normal(x0.shape, dtype)
                    x0_rl, gen_cache = generator.synthesize(eps_g, z, x_next, t + 1)
                    r, lp_cache = reward_mod.class_log_probs(reward_model, x0_rl, rows)
                    if not np.all(np.isfinite(r)):
                        raise NumericFailure(
                            f"reward is non-finite at epoch {epoch}, batch {batch_i}"
                        )
                    rl_l, g_rl = reward_mod.rl_loss(r, lp_cache)
                    _require_finite(rl_l.item(), "rl loss", epoch, batch_i)
                    _step(opt_rl, [generator.net.pullback(gen_cache, g_rl)], "policy", epoch,
                          batch_i)
                    cnt.rl_updates += 1
                    reward_means.append(float(np.mean(r)))

            nan = float("nan")
            report = None
            if config.eval_interval > 0 and (
                (epoch + 1) % config.eval_interval == 0 or epoch == config.epochs - 1
            ):
                report = full_report(
                    generator, dataset, config, stream_rng(config.seed, "eval", epoch)
                )
                reports[epoch] = report
            row = MetricsRow(
                epoch=epoch,
                raw_reward_mean=float(np.mean(reward_means)) if reward_means else nan,
                critic_loss=float(np.mean(critic_vals)),
                gen_adv_loss=float(np.mean(adv_vals)),
                pd_loss=float(np.mean(cue_vals)) if cue_vals else nan,
                czsl_acc=report.czsl_acc if report else nan,
                gzsl_u=report.gzsl_u if report else nan,
                gzsl_s=report.gzsl_s if report else nan,
                gzsl_h=report.gzsl_h if report else nan,
            )
            metrics.append(row)
            counters.append(cnt)
            if metrics_fh is not None:
                metrics_fh.write(row.to_csv() + "\n")
                metrics_fh.flush()
            if (
                out_dir is not None
                and config.checkpoint_interval > 0
                and (epoch + 1) % config.checkpoint_interval == 0
                and epoch + 1 < config.epochs
            ):
                gan.save_generator(ckpt_path, generator, config, epoch)
        if out_dir is not None:
            gan.save_generator(ckpt_path, generator, config, config.epochs - 1)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    return TrainResult(
        generator=generator,
        critic_x0=critic_x0,
        critic_xt=critic_xt,
        metrics=metrics,
        counters=counters,
        visual_prototypes=visual_prototypes,
        reports=reports,
    )
