//! The phased TTFS execution engine (Fig. 3 of the paper).
//!
//! Every layer runs an *integration phase* (decoding incoming spike times
//! through the dendrite kernel into membrane potential) followed by a
//! *fire phase* (encoding the potential into one spike via the dynamic
//! threshold). Without early firing, layer `l`'s fire phase starts only
//! after its integration completes (`stride = T`); with early firing it
//! starts `T/2` into integration, overlapping the pipeline at the cost of
//! *non-guaranteed integration* — spikes arriving after a neuron fired are
//! wasted, which this engine models faithfully.
//!
//! One chunk stepper simulates a contiguous sub-batch: state and bias
//! setup, input encoding, the input window, the hidden fire phases and —
//! for early exit — the output fire phase, charging every spike and
//! synaptic operation to its image. Both entry points validate once,
//! split the batch into one chunk per worker, and shape the chunks'
//! results:
//!
//! * [`T2fsnn::run`] merges the chunks' integer correct-counts and
//!   spike-time histograms in chunk order into a batch [`TtfsRun`]
//!   (accuracy curve, Fig. 5 histograms, spike and synop totals);
//! * [`T2fsnn::infer`] concatenates the per-image
//!   [`ImageInference`]s.
//!
//! Images never interact, so both results are bit-identical for every
//! chunking and worker count.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_snn::{CurvePoint, OpExecutor, SimEngine, SnnOp};
use t2fsnn_tensor::{perturb, trace, Result, SpikeBatch, Tensor, TensorError, ThreadPool};

use crate::infer::ImageInference;
use crate::network::{NoiseConfig, T2fsnn};

/// Spike statistics of one hidden layer during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpikes {
    /// Layer name (e.g. `"conv2_1"`).
    pub name: String,
    /// Global step at which the layer's fire phase started.
    pub fire_start: usize,
    /// Total spikes emitted (over the whole batch).
    pub count: u64,
    /// Spike-time histogram over the local fire window `[0, T)` —
    /// the data behind the paper's Figure 5.
    pub histogram: Vec<u64>,
}

impl LayerSpikes {
    /// Local time of the first spike, if any (Fig. 5's orange marker).
    pub fn first_spike_local(&self) -> Option<usize> {
        self.histogram.iter().position(|&c| c > 0)
    }

    /// Global time of the first spike, if any.
    pub fn first_spike_global(&self) -> Option<usize> {
        self.first_spike_local().map(|t| t + self.fire_start)
    }
}

/// Everything measured during one T2FSNN inference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TtfsRun {
    /// Final classification accuracy over the batch.
    pub accuracy: f32,
    /// Accuracy sampled over global time (Fig. 6 series).
    pub curve: Vec<CurvePoint>,
    /// Deterministic pipeline latency in time steps (Tables I/II).
    pub latency: usize,
    /// Number of images in the batch.
    pub images: usize,
    /// Spikes emitted by the input encoding.
    pub input_spikes: u64,
    /// Input-layer spike-time histogram over `[0, T)`.
    pub input_histogram: Vec<u64>,
    /// Per-hidden-layer spike statistics, in layer order.
    pub layers: Vec<LayerSpikes>,
    /// Synaptic accumulate operations performed (event-driven count).
    pub synop_adds: u64,
    /// Kernel multiplies performed (one table lookup/multiply per spike).
    pub synop_mults: u64,
}

impl TtfsRun {
    /// Total spikes: input plus all hidden layers. Every neuron spikes at
    /// most once — the TTFS invariant.
    pub fn total_spikes(&self) -> u64 {
        self.input_spikes + self.layers.iter().map(|l| l.count).sum::<u64>()
    }

    /// Average spikes per image.
    pub fn spikes_per_image(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.total_spikes() as f64 / self.images as f64
        }
    }
}

/// Ops between two weighted layers plus the weighted layer.
struct Segment {
    pre_ops: Vec<usize>,
    weighted: usize,
}

fn build_segments(ops: &[SnnOp]) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut pre = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.is_weighted() {
            segments.push(Segment {
                pre_ops: std::mem::take(&mut pre),
                weighted: i,
            });
        } else {
            pre.push(i);
        }
    }
    segments
}

/// What the stepper measured on one chunk of a batch.
pub(crate) struct Chunk {
    /// Per-image results, in batch order.
    pub(crate) images: Vec<ImageInference>,
    /// `(step, correct images)` at every record step (empty without
    /// labels).
    curve: Vec<(usize, usize)>,
    /// Spike-time histograms over each fire window: the input's, then
    /// every hidden layer's.
    histograms: Vec<Vec<u64>>,
}

impl Chunk {
    /// Folds the next chunk in: counts and histograms add, images append.
    fn absorb(mut self, next: Chunk) -> Chunk {
        for (a, b) in self.curve.iter_mut().zip(next.curve) {
            a.1 += b.1;
        }
        for (a, b) in self.histograms.iter_mut().zip(next.histograms) {
            a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
        }
        self.images.extend(next.images);
        self
    }
}

/// Pushes one step's spikes through a segment — its pass-through ops,
/// then the weighted op — accumulating the drive into `target` and
/// writing each image's synaptic-accumulate charge into `synops`.
///
/// A `dense` signal (the input drive, or densified spikes under the
/// [`SimEngine::Dense`] reference engine) runs the dense kernels;
/// otherwise the spikes stay in `events` through the whole segment —
/// average pooling via the event-form pooling kernel, max pooling via
/// the first-spike-wins [`OpExecutor::max_pool_events`], and an unusual
/// op/gate combination densifies on the spot. Under TTFS the earliest
/// spike in a pool window carries the maximum value, so each max-pool
/// window forwards exactly its first spike and suppresses the rest. Both
/// forms are bit-identical (the canonical-order invariant), which the
/// test suite asserts on max-pool networks.
#[allow(clippy::too_many_arguments)] // the stepper's state, borrowed piecewise
fn propagate_segment(
    ops: &[SnnOp],
    executor: &mut OpExecutor,
    seg: &Segment,
    mut dense: Option<Tensor>,
    events: &mut SpikeBatch,
    gates: &mut [Option<Tensor>],
    target: &mut Tensor,
    synops: &mut [u64],
) -> Result<()> {
    for &pi in &seg.pre_ops {
        if dense.is_none() {
            match &ops[pi] {
                SnnOp::AvgPool { window, stride } if gates[pi].is_none() => {
                    executor.avg_pool_events(events, *window, *stride)?;
                    continue;
                }
                SnnOp::MaxPool { window, stride } => {
                    let gate = gates[pi]
                        .as_mut()
                        .expect("max-pool ops carry a first-spike gate");
                    executor.max_pool_events(events, *window, *stride, gate)?;
                    continue;
                }
                SnnOp::Flatten if gates[pi].is_none() => {
                    let numel = events.feature_numel();
                    events.reshape_features(&[numel])?;
                    continue;
                }
                _ => dense = Some(events.to_dense()),
            }
        }
        let signal = dense.take().expect("densified above");
        let (mut z, _) = executor.propagate(ops, pi, &signal)?;
        apply_gate(gates[pi].as_mut(), &mut z);
        dense = Some(z);
    }
    match dense {
        Some(signal) => {
            // Image-domain pass-through ops run channel-major; the first
            // weighted conv integrates position-major (a bare-conv input
            // drive is encoded that way).
            let signal = if seg.weighted == executor.first_weighted()
                && !seg.pre_ops.is_empty()
                && matches!(ops[seg.weighted], SnnOp::Conv { .. })
            {
                signal.to_position_major()?
            } else {
                signal
            };
            executor.synops_pm_by_image(ops, seg.weighted, &signal, synops)?;
            executor.accumulate_weighted(ops, seg.weighted, &signal, 0.0, target)?;
        }
        None => {
            executor.synops_events_by_image(ops, seg.weighted, events, synops)?;
            executor.accumulate_weighted_events(ops, seg.weighted, events, 0.0, target)?;
        }
    }
    Ok(())
}

/// First-spike gating at a max-pool op: a window forwards exactly its
/// first spike and suppresses the rest.
#[inline]
fn apply_gate(gate: Option<&mut Tensor>, z: &mut Tensor) {
    if let Some(gate) = gate {
        for (v, g) in z.data_mut().iter_mut().zip(gate.data_mut()) {
            if *g != 0.0 {
                *v = 0.0; // window already fired: suppress
            } else if *v != 0.0 {
                *g = 1.0; // first spike through this window: latch
            }
        }
    }
}

/// One content-keyed event-noise stream per image of the batch (empty
/// when `noise` is `None`). Keying each image's stream on its pixel
/// *content* — never its batch position — is what makes noisy runs
/// invariant to batch composition, solo-vs-batched execution, and
/// worker count.
fn noise_streams(noise: Option<NoiseConfig>, images: &Tensor) -> Vec<ChaCha8Rng> {
    let Some(cfg) = noise else {
        return Vec::new();
    };
    let n = images.dims()[0];
    let feature: usize = images.dims()[1..].iter().product();
    (0..n)
        .map(|img| {
            perturb::event_stream(cfg.seed, &images.data()[img * feature..(img + 1) * feature])
        })
        .collect()
}

/// The PSP value a spike fired at `local` delivers downstream, with
/// optional timing noise (jitter shifts the decode index; drops zero
/// it). `rng` is the firing image's own noise stream.
fn delivered_value(
    table: &[f32],
    local: usize,
    theta0: f32,
    noise: Option<NoiseConfig>,
    rng: Option<&mut ChaCha8Rng>,
) -> f32 {
    if let (Some(cfg), Some(rng)) = (noise, rng) {
        if cfg.drop_prob > 0.0 && rng.gen::<f32>() < cfg.drop_prob {
            return 0.0;
        }
        let t = if cfg.jitter > 0 {
            let j = rng.gen_range(-(cfg.jitter as isize)..=cfg.jitter as isize);
            (local as isize + j).clamp(0, table.len() as isize - 1) as usize
        } else {
            local
        };
        table[t] * theta0
    } else {
        table[local] * theta0
    }
}

/// Argmax over one output row; ties go to the last maximal element
/// (`Iterator::max_by`'s rule).
fn argmax(row: &[f32]) -> (usize, f32) {
    row.iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or((0, f32::NEG_INFINITY))
}

/// Images whose output potentials' argmax equals their label.
fn correct_count(potential: &Tensor, labels: &[usize]) -> Result<usize> {
    if potential.rank() != 2 || potential.dims()[0] != labels.len() {
        return Err(TensorError::InvalidArgument {
            op: "output_accuracy",
            message: format!(
                "output {} vs {} labels — the network must end in a classifier",
                potential.shape(),
                labels.len()
            ),
        });
    }
    let c = potential.dims()[1];
    let rows = (0..labels.len()).map(|i| &potential.data()[i * c..(i + 1) * c]);
    Ok(rows
        .zip(labels)
        .filter(|(row, &y)| argmax(row).0 == y)
        .count())
}

/// `correct` out of `n` as a fraction (0 for an empty batch).
fn accuracy(correct: usize, n: usize) -> f32 {
    if n == 0 {
        0.0
    } else {
        correct as f32 / n as f32
    }
}

impl T2fsnn {
    /// Runs the full phased TTFS inference over a `[N, C, H, W]` batch on
    /// the process-global thread pool.
    ///
    /// # Errors
    ///
    /// Returns an error on image/label shape mismatches, a zero
    /// `record_every`, or if the network's shapes do not chain.
    pub fn run(&self, images: &Tensor, labels: &[usize]) -> Result<TtfsRun> {
        self.run_on(images, labels, ThreadPool::global())
    }

    /// [`T2fsnn::run`] with an explicit thread pool; the result is
    /// bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// As [`T2fsnn::run`].
    pub fn run_on(&self, images: &Tensor, labels: &[usize], pool: &ThreadPool) -> Result<TtfsRun> {
        let merged = self
            .step_chunks(images, Some(labels), false, pool)?
            .into_iter()
            .reduce(Chunk::absorb)
            .expect("a batch steps as at least one chunk");
        let n = labels.len();
        let curve: Vec<CurvePoint> = merged
            .curve
            .iter()
            .map(|&(step, correct)| CurvePoint {
                step,
                accuracy: accuracy(correct, n),
            })
            .collect();
        let mut histograms = merged.histograms.into_iter();
        let input_histogram = histograms.next().expect("the input histogram comes first");
        let names = self.network().weighted_names();
        let layers = histograms
            .enumerate()
            .map(|(i, histogram)| LayerSpikes {
                name: names[i].to_string(),
                fire_start: self.fire_start(i),
                count: histogram.iter().sum(),
                histogram,
            })
            .collect();
        let total = |charge: fn(&ImageInference) -> u64| merged.images.iter().map(charge).sum();
        Ok(TtfsRun {
            accuracy: curve.last().map_or(0.0, |p| p.accuracy),
            curve,
            latency: self.total_steps(),
            images: n,
            input_spikes: total(|r| r.input_spikes),
            input_histogram,
            layers,
            synop_adds: total(|r| r.synop_adds),
            synop_mults: total(|r| r.synop_mults),
        })
    }

    /// The driver shared by [`T2fsnn::run`] (with `labels`) and
    /// [`T2fsnn::infer`] (without): validates the batch once, splits it
    /// into one contiguous chunk per worker, and steps every chunk.
    /// Returns the chunks in batch order.
    pub(crate) fn step_chunks(
        &self,
        images: &Tensor,
        labels: Option<&[usize]>,
        early_exit: bool,
        pool: &ThreadPool,
    ) -> Result<Vec<Chunk>> {
        let op = if labels.is_some() {
            "T2fsnn::run"
        } else {
            "T2fsnn::infer"
        };
        let invalid = |message: String| TensorError::InvalidArgument { op, message };
        if images.rank() != 4 {
            return Err(invalid(format!(
                "expected [N, C, H, W] images, got {}",
                images.shape()
            )));
        }
        let n = images.dims()[0];
        if let Some(labels) = labels {
            if labels.len() != n {
                return Err(invalid(format!("{n} images but {} labels", labels.len())));
            }
            if self.config().record_every == 0 {
                return Err(invalid("record_every must be positive".to_string()));
            }
        }
        let ranges = pool.chunk_ranges(n);
        if ranges.len() <= 1 {
            return Ok(vec![self.step_chunk(images, labels, early_exit)?]);
        }
        let feature: usize = images.dims()[1..].iter().product();
        let mut tasks = Vec::with_capacity(ranges.len());
        for range in ranges {
            let mut dims = images.dims().to_vec();
            dims[0] = range.len();
            let chunk = images.data()[range.start * feature..range.end * feature].to_vec();
            tasks.push((Tensor::from_vec(dims, chunk)?, labels.map(|l| &l[range])));
        }
        pool.run_tasks(tasks, |(chunk, labels)| {
            self.step_chunk(&chunk, labels, early_exit)
        })
        .into_iter()
        .collect()
    }

    /// The chunk stepper: simulates one contiguous sub-batch through the
    /// phased pipeline, charging every spike and synaptic operation to
    /// its image. With `labels` it records the correct-count at every
    /// `record_every` step; with `early_exit` the output layer gets its
    /// own fire phase (see [`crate::InferOptions`]) and a decided image
    /// stops spiking.
    fn step_chunk(
        &self,
        images: &Tensor,
        labels: Option<&[usize]>,
        early_exit: bool,
    ) -> Result<Chunk> {
        let config = self.config();
        let (t_window, theta0) = (config.time_window, config.theta0);
        let n = images.dims()[0];
        let ops = self.network().ops();
        let segments = build_segments(ops);
        let l_count = segments.len();
        let shapes = self.network().output_shapes(&images.dims()[1..])?;
        let dense_mode = matches!(config.engine, SimEngine::Dense);
        let mut executor = OpExecutor::new(ops, config.engine, &images.dims()[1..])?;

        // Membrane potentials (initialized with the bias: one constant
        // current injection per inference) and refractory masks, in the
        // engine's native position-major layout.
        let mut potentials: Vec<Tensor> = Vec::with_capacity(l_count);
        let mut fired: Vec<Tensor> = Vec::with_capacity(l_count);
        for seg in &segments {
            let mut dims = vec![n];
            dims.extend_from_slice(executor.state_dims(seg.weighted));
            let mut p = Tensor::zeros(dims.clone());
            executor.inject_bias(ops, seg.weighted, &mut p, 1.0)?;
            potentials.push(p);
            fired.push(Tensor::zeros(dims));
        }
        // One input step's drive, added to the first layer's potentials
        // as a whole.
        let mut input_drive = Tensor::zeros(potentials[0].dims().to_vec());

        // Input spike times (local, within window 0). When the network
        // opens with a bare conv (every bundled conv architecture), they
        // are permuted once into the engine's position-major layout,
        // erasing a full tensor transpose per input step.
        let input_encoder = self.input_encoder();
        let enc_times: Vec<Option<usize>> = images
            .iter()
            .map(|&x| input_encoder.encode(x, theta0))
            .collect();
        let pm_input = segments[0].pre_ops.is_empty()
            && matches!(ops[segments[0].weighted], SnnOp::Conv { .. });
        let (enc_scan, drive_dims): (Vec<Option<usize>>, Vec<usize>) = if pm_input {
            let d = images.dims();
            let (c, h, w) = (d[1], d[2], d[3]);
            let mut scan = Vec::with_capacity(enc_times.len());
            for ni in 0..n {
                for yi in 0..h {
                    for xi in 0..w {
                        for ci in 0..c {
                            scan.push(enc_times[((ni * c + ci) * h + yi) * w + xi]);
                        }
                    }
                }
            }
            (scan, vec![n, h, w, c])
        } else {
            (enc_times, images.dims().to_vec())
        };
        let drive_feature: usize = drive_dims[1..].iter().product();

        // Fire kernels instantiated once (LUT form, Sec. V); the output
        // layer's table drives the early-exit threshold.
        let fire_tables: Vec<Vec<f32>> = (0..l_count)
            .map(|i| {
                let k = self.fire_kernel(i);
                (0..t_window).map(|t| k.eval(t as f32)).collect()
            })
            .collect();
        let input_table: Vec<f32> = (0..t_window)
            .map(|t| input_encoder.eval(t as f32))
            .collect();

        // First-spike gates for max-pool ops (one latch per pool window),
        // position-major like the membranes downstream of the first
        // weighted op, channel-major in the image domain before it.
        let first_weighted = executor.first_weighted();
        let mut gates: Vec<Option<Tensor>> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                matches!(op, SnnOp::MaxPool { .. }).then(|| {
                    let mut dims = vec![n];
                    if i > first_weighted {
                        dims.extend_from_slice(executor.state_dims(i));
                    } else {
                        dims.extend_from_slice(&shapes[i]);
                    }
                    Tensor::zeros(dims)
                })
            })
            .collect();

        // The output layer's early-exit fire phase runs on the standard
        // pipeline schedule: without early firing it begins exactly when
        // output integration completes (= `total_steps`), so a decision
        // equals the full-window argmax by construction.
        let total_steps = self.total_steps();
        let ee_start = self.fire_start(l_count - 1);
        let last_step = if early_exit {
            total_steps.max(ee_start + t_window)
        } else {
            total_steps
        };

        // Per-image accounting, plus the batch observables `run` merges.
        let mut decided = vec![false; n];
        let mut undecided = n;
        let mut results: Vec<ImageInference> = (0..n)
            .map(|_| ImageInference {
                label: 0,
                decision_step: None,
                steps: last_step,
                top_potential: f32::NEG_INFINITY,
                input_spikes: 0,
                hidden_spikes: 0,
                synop_adds: 0,
                synop_mults: 0,
            })
            .collect();
        let mut synops = vec![0u64; n];
        let mut histograms = vec![vec![0u64; t_window]; l_count];
        let mut curve = Vec::new();

        // Reused fire-phase event list and threshold-scan hit buffer, and
        // per-image content-keyed noise streams (empty without noise):
        // identical for an image regardless of chunking, batch
        // composition, or worker count.
        let mut fire_ev = SpikeBatch::empty();
        let mut fire_hits: Vec<u32> = Vec::new();
        let mut noise_rngs = noise_streams(config.noise, images);

        for t in 0..last_step {
            if early_exit && undecided == 0 {
                break;
            }
            // Input fire window: [0, T). Decided images are terminated —
            // their pixels stop spiking.
            if t < t_window {
                let _s = trace::span("ttfs/input_window");
                let mut any = 0u64;
                let mut drive = vec![0.0f32; n * drive_feature];
                for (img, slot) in drive.chunks_exact_mut(drive_feature.max(1)).enumerate() {
                    if decided[img] {
                        continue;
                    }
                    let scan = &enc_scan[img * drive_feature..(img + 1) * drive_feature];
                    let mut cnt = 0u64;
                    for (v, &et) in slot.iter_mut().zip(scan) {
                        if et == Some(t) {
                            cnt += 1;
                            *v = delivered_value(
                                &input_table,
                                t,
                                theta0,
                                config.noise,
                                noise_rngs.get_mut(img),
                            );
                        }
                    }
                    results[img].input_spikes += cnt;
                    results[img].synop_mults += cnt; // one kernel multiply per spike
                    any += cnt;
                }
                if any > 0 {
                    histograms[0][t] += any;
                    input_drive.data_mut().fill(0.0);
                    propagate_segment(
                        ops,
                        &mut executor,
                        &segments[0],
                        Some(Tensor::from_vec(drive_dims.clone(), drive)?),
                        &mut fire_ev,
                        &mut gates,
                        &mut input_drive,
                        &mut synops,
                    )?;
                    for (r, &s) in results.iter_mut().zip(&synops) {
                        r.synop_adds += s;
                    }
                    potentials[0].add_scaled(&input_drive, 1.0)?;
                }
            }

            // Hidden fire windows; decided images emit nothing.
            for i in 0..l_count - 1 {
                let start = self.fire_start(i);
                if t < start || t >= start + t_window {
                    continue;
                }
                let local = t - start;
                let threshold = theta0 * fire_tables[i][local];
                let mut count = 0u64;
                {
                    let _s = trace::span("ttfs/fire_scan");
                    // Emit spikes straight into the event list (a spike
                    // dropped by noise still counts but delivers no PSP).
                    // The threshold scan runs on the SIMD compare-and-mask
                    // primitive — candidates come back in ascending index
                    // order, then the refractory mask filters them.
                    let feature: usize = potentials[i].dims()[1..].iter().product();
                    let feature_dims = potentials[i].dims()[1..].to_vec();
                    fire_ev.begin(&feature_dims);
                    let pd = potentials[i].data();
                    let fd = fired[i].data_mut();
                    for (img, (pimg, fimg)) in pd
                        .chunks_exact(feature.max(1))
                        .zip(fd.chunks_exact_mut(feature.max(1)))
                        .enumerate()
                    {
                        if decided[img] {
                            fire_ev.end_image();
                            continue;
                        }
                        let mut cnt = 0u64;
                        fire_hits.clear();
                        t2fsnn_tensor::simd::collect_ge(pimg, threshold, &mut fire_hits);
                        for &j in &fire_hits {
                            let f = &mut fimg[j as usize];
                            if *f == 0.0 {
                                *f = 1.0;
                                // Dendrite-decoded PSP value (ideal: ε·θ0).
                                let v = delivered_value(
                                    &fire_tables[i],
                                    local,
                                    theta0,
                                    config.noise,
                                    noise_rngs.get_mut(img),
                                );
                                if v != 0.0 {
                                    fire_ev.push(j, v);
                                }
                                cnt += 1;
                            }
                        }
                        fire_ev.end_image();
                        results[img].hidden_spikes += cnt;
                        results[img].synop_mults += cnt;
                        count += cnt;
                    }
                }
                if count > 0 {
                    let _s = trace::span("ttfs/segment_propagate");
                    histograms[i + 1][local] += count;
                    propagate_segment(
                        ops,
                        &mut executor,
                        &segments[i + 1],
                        dense_mode.then(|| fire_ev.to_dense()),
                        &mut fire_ev,
                        &mut gates,
                        &mut potentials[i + 1],
                        &mut synops,
                    )?;
                    for (r, &s) in results.iter_mut().zip(&synops) {
                        r.synop_adds += s;
                    }
                }
            }

            // Output fire phase (early exit): the first step whose
            // decaying threshold is crossed decides the image.
            if early_exit && t >= ee_start && t < ee_start + t_window {
                let _s = trace::span("ttfs/early_exit");
                let threshold = theta0 * fire_tables[l_count - 1][t - ee_start];
                let out = &potentials[l_count - 1];
                let classes = out.dims()[1];
                for (img, row) in out.data().chunks_exact(classes.max(1)).enumerate() {
                    if decided[img] {
                        continue;
                    }
                    let (label, top) = argmax(row);
                    if top >= threshold {
                        decided[img] = true;
                        undecided -= 1;
                        let r = &mut results[img];
                        r.label = label;
                        r.top_potential = top;
                        r.decision_step = Some(t + 1);
                        r.steps = t + 1;
                    }
                }
            }

            if let Some(labels) = labels {
                if (t + 1) % config.record_every == 0 || t + 1 == total_steps {
                    let _s = trace::span("ttfs/record");
                    curve.push((t + 1, correct_count(&potentials[l_count - 1], labels)?));
                }
            }
        }

        // Undecided images (every image without early exit): full-window
        // argmax.
        let out = &potentials[l_count - 1];
        let classes = out.dims()[1];
        for (img, row) in out.data().chunks_exact(classes.max(1)).enumerate() {
            if !decided[img] {
                let (label, top) = argmax(row);
                let r = &mut results[img];
                r.label = label;
                r.top_potential = top;
            }
        }
        Ok(Chunk {
            images: results,
            curve,
            histograms,
        })
    }

    /// Analytic (non-clock-driven) forward pass: encodes and decodes every
    /// layer's activation through its kernel *as if* integration were
    /// always complete. Equivalent to the clock-driven engine **without**
    /// early firing (a property the test suite checks), and used as a fast
    /// oracle.
    ///
    /// Returns the output layer's decoded logits, `[N, classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    pub fn analytic_logits(&self, images: &Tensor) -> Result<Tensor> {
        let config = self.config();
        let theta0 = config.theta0;
        let ops = self.network().ops();
        let segments = build_segments(ops);
        let input_encoder = self.input_encoder();
        // Quantize the input through encode/decode.
        let mut signal = images.map(|x| match input_encoder.encode(x, theta0) {
            Some(t) => input_encoder.decode(t) * theta0,
            None => 0.0,
        });
        for (i, seg) in segments.iter().enumerate() {
            for &pi in &seg.pre_ops {
                signal = ops[pi].propagate(&signal)?.0;
            }
            let (mut z, _) = ops[seg.weighted].propagate(&signal)?;
            ops[seg.weighted].inject_bias(&mut z, 1.0)?;
            if i + 1 == segments.len() {
                return Ok(z);
            }
            let kernel = self.fire_kernel(i);
            signal = z.map(|u| match kernel.encode(u, theta0) {
                Some(t) => kernel.decode(t) * theta0,
                None => 0.0,
            });
        }
        unreachable!("segments is non-empty by conversion invariant")
    }
}

#[cfg(test)]
fn output_accuracy(potential: &Tensor, labels: &[usize]) -> Result<f32> {
    Ok(accuracy(correct_count(potential, labels)?, labels.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelParams;
    use crate::network::T2fsnnConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
    use t2fsnn_dnn::architectures::mlp_tiny;
    use t2fsnn_dnn::{normalize_for_snn, train, Network, TrainConfig};

    fn fixture() -> (Network, Dataset, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // Ease the default noise slightly for the unit fixture so the tiny
        // MLP reaches a solidly-above-chance accuracy in a few epochs.
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 9)
            .with_noise(0.1)
            .generate(160);
        let (train_set, test_set) = data.split(128);
        let mut dnn = mlp_tiny(&mut rng, &data.spec);
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        train(&mut dnn, &train_set, &config, &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        (dnn, train_set, test_set)
    }

    fn model(dnn: &Network, config: T2fsnnConfig) -> T2fsnn {
        T2fsnn::from_dnn(dnn, config, KernelParams::new(8.0, 0.0)).unwrap()
    }

    #[test]
    fn ttfs_accuracy_tracks_dnn() {
        let (mut dnn, _, test_set) = fixture();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test_set, 16).unwrap();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        assert!(
            run.accuracy >= dnn_acc - 0.15,
            "T2FSNN {:.3} too far below DNN {:.3}",
            run.accuracy,
            dnn_acc
        );
    }

    #[test]
    fn every_neuron_spikes_at_most_once() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let n = test_set.len() as u64;
        // Hidden layer of mlp_tiny has 32 neurons per image.
        assert!(run.layers[0].count <= 32 * n, "TTFS invariant violated");
        // Input spikes bounded by pixel count.
        assert!(run.input_spikes <= (64 * n), "{}", run.input_spikes);
        assert!(run.total_spikes() > 0);
    }

    #[test]
    fn clock_engine_matches_analytic_oracle_without_early_firing() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = output_accuracy(&logits, &test_set.labels).unwrap();
        assert!(
            (run.accuracy - analytic_acc).abs() < 1e-6,
            "clock {} vs analytic {}",
            run.accuracy,
            analytic_acc
        );
    }

    #[test]
    fn early_firing_cuts_latency_with_small_accuracy_cost() {
        let (dnn, _, test_set) = fixture();
        let base = model(&dnn, T2fsnnConfig::new(32));
        let ef = model(&dnn, T2fsnnConfig::new(32).with_early_firing());
        let run_base = base.run(&test_set.images, &test_set.labels).unwrap();
        let run_ef = ef.run(&test_set.images, &test_set.labels).unwrap();
        assert!(run_ef.latency < run_base.latency);
        assert!(
            run_ef.accuracy >= run_base.accuracy - 0.15,
            "EF accuracy dropped too much: {} vs {}",
            run_ef.accuracy,
            run_base.accuracy
        );
    }

    #[test]
    fn latency_equals_pipeline_formula() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(16));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        // mlp_tiny has 2 weighted layers: (2-1)*16 + 16 = 32.
        assert_eq!(run.latency, 32);
        assert_eq!(run.curve.last().unwrap().step, 32);
    }

    #[test]
    fn histograms_sum_to_counts() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        for layer in &run.layers {
            assert_eq!(layer.histogram.iter().sum::<u64>(), layer.count);
        }
        assert_eq!(run.input_histogram.iter().sum::<u64>(), run.input_spikes);
        assert_eq!(run.input_histogram.len(), 32);
    }

    #[test]
    fn first_spike_accessors() {
        let spikes = LayerSpikes {
            name: "conv".into(),
            fire_start: 40,
            count: 5,
            histogram: vec![0, 0, 3, 2, 0],
        };
        assert_eq!(spikes.first_spike_local(), Some(2));
        assert_eq!(spikes.first_spike_global(), Some(42));
        let empty = LayerSpikes {
            name: "dead".into(),
            fire_start: 0,
            count: 0,
            histogram: vec![0; 4],
        };
        assert_eq!(empty.first_spike_local(), None);
    }

    #[test]
    fn run_validates_inputs() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(8));
        assert!(m.run(&Tensor::zeros([4, 8, 8]), &[0; 4]).is_err());
        assert!(m.run(&test_set.images, &[0; 3]).is_err());
    }

    #[test]
    fn run_rejects_zero_record_every() {
        let (dnn, _, test_set) = fixture();
        let mut config = T2fsnnConfig::new(8);
        config.record_every = 0;
        let m = model(&dnn, config);
        assert!(m.run(&test_set.images, &test_set.labels).is_err());
    }

    #[test]
    fn max_pool_network_matches_analytic_oracle() {
        // TTFS max pooling via first-spike gating must agree with the true
        // max over decoded values — the strongest check that the gate is
        // semantically exact.
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let spec = DatasetSpec::new("maxpool", 1, 16, 16, 4);
        let data = SyntheticConfig::new(spec.clone(), 14).generate(96);
        let (train_set, test_set) = data.split(72);
        let mut dnn = t2fsnn_dnn::architectures::cnn_small(
            &mut rng,
            &spec,
            t2fsnn_dnn::layers::PoolKind::Max,
        );
        train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test_set, 16).unwrap();
        let m = T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(32), KernelParams::new(8.0, 0.0)).unwrap();
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = output_accuracy(&logits, &test_set.labels).unwrap();
        assert!(
            (run.accuracy - analytic_acc).abs() < 1e-6,
            "clock {} vs analytic {} on max-pool net",
            run.accuracy,
            analytic_acc
        );
        assert!(
            run.accuracy >= dnn_acc - 0.2,
            "max-pool T2FSNN {:.3} too far below DNN {:.3}",
            run.accuracy,
            dnn_acc
        );
    }

    #[test]
    fn zero_noise_equals_ideal_run() {
        let (dnn, _, test_set) = fixture();
        let ideal = model(&dnn, T2fsnnConfig::new(32));
        let noisy_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::jitter_only(0, 7));
        let noisy = model(&dnn, noisy_cfg);
        let a = ideal.run(&test_set.images, &test_set.labels).unwrap();
        let b = noisy.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.total_spikes(), b.total_spikes());
    }

    #[test]
    fn heavy_drops_degrade_accuracy_and_deliveries() {
        let (dnn, _, test_set) = fixture();
        let ideal = model(&dnn, T2fsnnConfig::new(32));
        let broken_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::drops_only(0.95, 7));
        let broken = model(&dnn, broken_cfg);
        let a = ideal.run(&test_set.images, &test_set.labels).unwrap();
        let b = broken.run(&test_set.images, &test_set.labels).unwrap();
        // Dropped spikes deliver no PSP: synaptic work collapses with them.
        assert!(
            b.synop_adds < a.synop_adds / 4,
            "95% drops should erase most deliveries: {} vs {}",
            b.synop_adds,
            a.synop_adds
        );
        assert!(
            b.accuracy < a.accuracy,
            "dropping 95% of spikes must hurt: {} vs {}",
            b.accuracy,
            a.accuracy
        );
    }

    #[test]
    fn noisy_runs_are_reproducible() {
        let (dnn, _, test_set) = fixture();
        let cfg = T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig {
            jitter: 3,
            drop_prob: 0.1,
            seed: 42,
        });
        let m = model(&dnn, cfg);
        let a = m.run(&test_set.images, &test_set.labels).unwrap();
        let b = m.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.synop_adds, b.synop_adds);
    }

    #[test]
    fn spikes_per_image_accounts_for_batch() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let per_img = run.spikes_per_image();
        assert!(per_img > 0.0);
        assert!(per_img <= (64 + 32 + 4) as f64, "{per_img}"); // ≤ #neurons+pixels
    }
}
