//! Miniature live workloads (FlorScript) used by examples, benches and
//! integration tests.
//!
//! Each mirrors a regime from the paper's Table 3 at laptop scale:
//!
//! | Script | Paper counterpart | Regime |
//! |---|---|---|
//! | [`CV_TRAIN`]   | Cifr / ImgN | small model, many epochs — checkpoints cheap |
//! | [`RESNET`]     | RsNt        | deep residual net, bigger checkpoints |
//! | [`FINETUNE`]   | RTE / CoLA  | frozen ballast ≫ compute — periodic checkpoints |
//! | `LANGMODEL`  | Wiki        | embedding-heavy text model |
//! | `SEQ`        | RnnT / Jasp | sequence classification over tokens |

/// Epochs in each mini workload's main loop.
pub const MINI_EPOCHS: u64 = 8;

/// CIFAR-style classification with an MLP.
pub const CV_TRAIN: &str = "\
import flor
data = synth_data(n=96, dim=12, classes=4, spread=0.3, seed=11)
loader = dataloader(data, batch_size=24, seed=11)
net = mlp(input=12, hidden=24, classes=4, depth=2, seed=11)
optimizer = sgd(net, lr=0.1, momentum=0.9)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(2)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// ResNet-style deep residual network with an LR schedule.
pub const RESNET: &str = "\
import flor
data = synth_data(n=96, dim=12, classes=4, spread=0.3, seed=13)
loader = dataloader(data, batch_size=24, seed=13)
net = resnet(input=12, hidden=24, classes=4, blocks=3, seed=13)
optimizer = sgd(net, lr=0.08, momentum=0.9)
sched = step_lr(optimizer, base_lr=0.08, step_size=3, gamma=0.5)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(2)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    sched.step()
    log(\"loss\", avg.mean())
    log(\"lr\", optimizer.lr)
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// Fine-tuning regime: a large frozen ballast makes checkpoints expensive
/// relative to the (deliberately short) epochs, so adaptive checkpointing
/// switches to periodic checkpoints, as it does for RTE/CoLA.
pub const FINETUNE: &str = "\
import flor
data = synth_data(n=48, dim=8, classes=3, spread=0.3, seed=17)
loader = dataloader(data, batch_size=24, seed=17)
net = finetune(input=8, hidden=16, classes=3, ballast=600000, seed=17)
optimizer = sgd(net, lr=0.1)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// Language-model-style workload over token sequences.
pub(crate) const LANGMODEL: &str = "\
import flor
data = token_data(n=96, seq=12, vocab=48, classes=4, seed=19)
loader = dataloader(data, batch_size=24, seed=19)
net = textnet(vocab=48, dim=16, classes=4, seed=19)
optimizer = adam(net, lr=0.01)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(1)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// Sequence-task workload (token classification, deeper text model).
pub(crate) const SEQ: &str = "\
import flor
data = token_data(n=64, seq=16, vocab=64, classes=4, seed=23)
loader = dataloader(data, batch_size=16, seed=23)
net = textnet(vocab=64, dim=24, classes=4, seed=23)
optimizer = sgd(net, lr=0.2, momentum=0.9)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(1)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// Speech-style workload: 1-D convolutions over feature bands (the Jasper
/// counterpart, now with real convolutions in the live pipeline).
pub(crate) const SPEECH: &str = "\
import flor
data = synth_data(n=64, dim=24, classes=3, spread=0.3, seed=37)
loader = dataloader(data, batch_size=16, seed=37)
net = convnet(features=24, channels=2, conv_channels=4, kernel=3, classes=3, seed=37)
optimizer = sgd(net, lr=0.05, momentum=0.9)
criterion = cross_entropy()
avg = meter()
for epoch in range(8):
    avg.reset()
    for batch in loader.epoch():
        waste = busy(1)
        optimizer.zero_grad()
        preds = net.forward(batch)
        loss = criterion.forward(preds, batch)
        grad = criterion.backward()
        net.backward(grad)
        optimizer.step()
        avg.update(loss)
    log(\"loss\", avg.mean())
acc = evaluate(net, data)
log(\"accuracy\", acc)
";

/// All mini workloads as `(name, source)` pairs.
pub static MINI_WORKLOADS: &[(&str, &str)] = &[
    ("cv_train", CV_TRAIN),
    ("resnet", RESNET),
    ("finetune", FINETUNE),
    ("langmodel", LANGMODEL),
    ("seq", SEQ),
    ("speech", SPEECH),
];

/// Adds an outer-loop probe (after the epoch log) to a mini workload.
pub fn probe_outer(src: &str) -> String {
    let probed = src.replace(
        "    log(\"loss\", avg.mean())\n",
        "    log(\"loss\", avg.mean())\n    log(\"probe_wnorm\", net.weight_norm())\n",
    );
    assert_ne!(probed, src, "outer probe marker must match");
    probed
}

/// Adds an inner-loop probe (after optimizer.step()) to a mini workload.
pub fn probe_inner(src: &str) -> String {
    let probed = src.replace(
        "        optimizer.step()\n",
        "        optimizer.step()\n        log(\"probe_gnorm\", net.grad_norm())\n",
    );
    assert_ne!(probed, src, "inner probe marker must match");
    probed
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_core::record::run_vanilla;

    #[test]
    fn all_minis_parse_and_train() {
        for (name, src) in MINI_WORKLOADS {
            let (_, log) = run_vanilla(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Every mini logs one loss per epoch plus a final accuracy.
            let losses = log.iter().filter(|e| e.key == "loss").count();
            assert_eq!(losses as u64, MINI_EPOCHS, "{name}");
            let acc: f64 = log
                .iter()
                .find(|e| e.key == "accuracy")
                .expect("accuracy entry")
                .value
                .parse()
                .unwrap();
            assert!(acc > 0.5, "{name}: accuracy {acc} did not learn");
        }
    }

    #[test]
    fn probes_apply_cleanly() {
        for (_, src) in MINI_WORKLOADS {
            assert_ne!(probe_outer(src), *src);
            assert_ne!(probe_inner(src), *src);
        }
    }
}
