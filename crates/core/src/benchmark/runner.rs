//! The benchmark runner: executes the (M, G, P) grid, evaluates U, and
//! averages repeated runs.

use crate::benchmark::metric::{compute_error, metric_for, ErrorMetric};
use crate::generator::{GraphGenerator, PrivateSynthesis};
use pgb_graph::Graph;
use pgb_queries::{Query, QueryParams, QuerySuite, QueryValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Configuration of a benchmark run: the P and U of the 4-tuple plus
/// execution knobs (M and G are passed to [`run_benchmark`] directly).
#[derive(Clone, Debug)]
pub struct BenchmarkConfig {
    /// The privacy budgets to sweep (the paper: {0.1, 0.5, 1, 2, 5, 10}).
    pub epsilons: Vec<f64>,
    /// Repetitions per cell, averaged (the paper: 10).
    pub repetitions: usize,
    /// The queries to evaluate (defaults to all 15).
    pub queries: Vec<Query>,
    /// Query-evaluation parameters (path mode, power-iteration caps).
    pub query_params: QueryParams,
    /// Master seed; every cell derives an independent deterministic
    /// stream from it.
    pub seed: u64,
    /// Total thread budget (0 ⇒ available parallelism), shared between
    /// task-level workers and intra-cell generator parallelism: the grid's
    /// (cell, repetition-block) sub-tasks are claimed from a
    /// [`crate::par::BudgetLedger`], and every claim re-grants the live
    /// pool share, so threads released by finished workers flow to the
    /// tail of the queue. Results are byte-identical for every value of
    /// `threads` (the derived-stream discipline holds at both levels).
    pub threads: usize,
    /// How often the mechanisms' measure phase runs — see [`MeasureReuse`].
    /// Unlike `threads`, this knob *does* change the numbers:
    /// per-cell reuse correlates a cell's repetitions through one shared
    /// private intermediate.
    pub reuse: MeasureReuse,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            epsilons: vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
            repetitions: 10,
            queries: Query::ALL.to_vec(),
            query_params: QueryParams::default(),
            seed: 0,
            threads: 0,
            reuse: MeasureReuse::default(),
        }
    }
}

impl BenchmarkConfig {
    /// `threads` resolved: 0 ⇒ the machine's available parallelism.
    pub(crate) fn thread_budget(&self) -> usize {
        if self.threads == 0 {
            crate::par::available_parallelism()
        } else {
            self.threads
        }
    }
}

/// How [`run_benchmark`] amortises the mechanisms' two-phase split
/// ([`GraphGenerator::measure`] / [`PrivateSynthesis::sample`]) over a
/// cell's repetitions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MeasureReuse {
    /// The paper-faithful default: every repetition runs the full
    /// `measure` + `sample` pipeline on its own derived RNG stream —
    /// repetitions are independent end-to-end draws of the mechanism, and
    /// the CSV is byte-identical to the pre-split runner.
    #[default]
    PerRep,
    /// Measurement reuse (the Private-PGM pattern): `measure` runs **once
    /// per (dataset, algorithm, ε) cell** on a dedicated derived stream,
    /// and each repetition only re-`sample`s the shared private
    /// intermediate — free by DP post-processing invariance, and the
    /// amortisation a serving layer batches on. Repetitions then share the
    /// intermediate's noise, so per-cell averages estimate the *sampling*
    /// variance around one measurement rather than the full mechanism
    /// variance: numbers differ from [`MeasureReuse::PerRep`] by design
    /// (they remain byte-identical across thread counts).
    PerCell,
}

impl MeasureReuse {
    /// CLI-facing name (`"rep"` / `"cell"`).
    pub fn name(self) -> &'static str {
        match self {
            MeasureReuse::PerRep => "rep",
            MeasureReuse::PerCell => "cell",
        }
    }
}

impl std::str::FromStr for MeasureReuse {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rep" => Ok(MeasureReuse::PerRep),
            "cell" => Ok(MeasureReuse::PerCell),
            other => Err(format!("unknown reuse mode {other:?} (expected \"rep\" or \"cell\")")),
        }
    }
}

/// One averaged benchmark cell: an (algorithm, dataset, ε, query) tuple
/// with its mean error over the repetitions.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Algorithm display name.
    pub algorithm: String,
    /// Dataset display name.
    pub dataset: String,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// The evaluated query.
    pub query: Query,
    /// The metric the error is expressed in (lower is better).
    pub metric: ErrorMetric,
    /// Mean error over the repetitions; `NaN` when every repetition's
    /// generation failed (`runs == 0`), so the grid stays complete.
    pub mean_error: f64,
    /// Number of repetitions averaged.
    pub runs: usize,
}

/// All outcomes of a benchmark run.
///
/// [`run_benchmark`] always emits the *complete* grid in a fixed layout:
/// outcomes are ordered dataset-major, then algorithm, then ε, then query
/// (all in their configured input order), with one entry per cell even when
/// generation failed every repetition. [`BenchmarkResults::error`] exploits
/// the layout for O(1) positional lookup.
#[derive(Clone, Debug, Default)]
pub struct BenchmarkResults {
    /// One entry per (dataset, algorithm, ε, query), in grid order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Algorithm names in suite order.
    pub algorithms: Vec<String>,
    /// Dataset names in input order.
    pub datasets: Vec<String>,
    /// The swept ε values.
    pub epsilons: Vec<f64>,
    /// The evaluated queries.
    pub queries: Vec<Query>,
}

impl BenchmarkResults {
    /// Looks up a cell's mean error by position in the grid layout: the
    /// `(algorithm, dataset, ε, query)` coordinates are resolved to indices
    /// in their respective axis vectors and the outcome is read directly —
    /// no scan over the outcome list.
    ///
    /// Returns `None` for coordinates outside the grid. A cell whose every
    /// repetition failed is present with `mean_error = NaN`. Results whose
    /// `outcomes` were assembled by hand in some other order fall back to a
    /// linear scan.
    pub fn error(&self, algorithm: &str, dataset: &str, epsilon: f64, query: Query) -> Option<f64> {
        let matches = |o: &ExperimentOutcome| {
            o.algorithm == algorithm
                && o.dataset == dataset
                && (o.epsilon - epsilon).abs() < 1e-12
                && o.query == query
        };
        let positional = || {
            let ai = self.algorithms.iter().position(|a| a == algorithm)?;
            let di = self.datasets.iter().position(|d| d == dataset)?;
            let ei = self.epsilons.iter().position(|e| (e - epsilon).abs() < 1e-12)?;
            let qi = self.queries.iter().position(|&q| q == query)?;
            let idx = ((di * self.algorithms.len() + ai) * self.epsilons.len() + ei)
                * self.queries.len()
                + qi;
            self.outcomes.get(idx).filter(|o| matches(o))
        };
        positional()
            .map(|o| o.mean_error)
            .or_else(|| self.outcomes.iter().find(|o| matches(o)).map(|o| o.mean_error))
    }

    /// Renders all outcomes as CSV (`algorithm,dataset,epsilon,query,metric,error,runs`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("algorithm,dataset,epsilon,query,metric,mean_error,runs\n");
        for o in &self.outcomes {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6e},{}\n",
                o.algorithm,
                o.dataset,
                o.epsilon,
                o.query.symbol(),
                o.metric.name(),
                o.mean_error,
                o.runs
            ));
        }
        out
    }
}

/// Derives a deterministic per-cell RNG from the master seed — cells are
/// independent, so runs are reproducible regardless of thread scheduling.
fn cell_rng(seed: u64, dataset_idx: usize, algo_idx: usize, eps_idx: usize, rep: usize) -> StdRng {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for x in [dataset_idx as u64, algo_idx as u64, eps_idx as u64, rep as u64] {
        h ^= x.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(h << 6).wrapping_add(h >> 2);
        h = h.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    }
    StdRng::seed_from_u64(h)
}

/// The dedicated measure stream of a cell under [`MeasureReuse::PerCell`]:
/// the `rep = usize::MAX` slot of the cell's derivation family, which no
/// real repetition can occupy — whichever worker performs the cell's one
/// measurement, it draws the same bytes.
fn measure_rng(seed: u64, dataset_idx: usize, algo_idx: usize, eps_idx: usize) -> StdRng {
    cell_rng(seed, dataset_idx, algo_idx, eps_idx, usize::MAX)
}

/// Sub-tasks a worker aims to claim over the run: enough over-partitioning
/// that the queue's tail still spreads over the pool, without
/// per-repetition scheduling overhead on wide grids.
const ELASTIC_TASKS_PER_WORKER: usize = 4;

/// Static relative cost weight of one repetition of `algorithm` (matched
/// by display name), from the Table VIII / Table IX complexity and
/// measured-time ordering: the dense quadtree/MCMC mechanisms (DER,
/// PrivHRG) dominate, the community/moment mechanisms sit in the middle,
/// and the filter/degree mechanisms (TmF, DGG) are the cheapest per cell.
/// Unknown (user-supplied) algorithms get the middle weight.
///
/// This is the [`CostModel`]'s **cold-start seed**: it only decides claim
/// order among algorithms that have no observed cell time yet. As soon as
/// a sub-task of an algorithm completes, the model's EWMA of its measured
/// time-per-n² replaces the static guess. Scheduling only either way —
/// claim order cannot change any cell's RNG stream or reduction order, so
/// the CSV bytes are identical to grid-order claiming.
pub fn algorithm_cost_weight(name: &str) -> u32 {
    match name {
        "DER" | "PrivHRG" => 16,
        "PrivGraph" | "PrivSKG" | "DP-dK" | "DP-1K" => 4,
        "TmF" | "DGG" => 1,
        _ => 4,
    }
}

/// EWMA smoothing factor for observed cell times: recent observations get
/// 30% weight, so the model adapts within a few sub-tasks without letting
/// one outlier (a cold cache, a descheduled worker) dominate.
const EWMA_ALPHA: f64 = 0.3;

/// Online per-algorithm cost model behind the elastic claim order.
///
/// For every algorithm the model keeps an exponentially weighted moving
/// average of **observed seconds per repetition per n²** across completed
/// sub-tasks; [`CostModel::claim_key`] scales that back by n² to rank
/// pending sub-tasks. Until an algorithm has an observation it ranks
/// *above* every observed one (deterministic exploration-first: one
/// mispredicted claim is cheaper than running a whole grid on a stale
/// static guess), ordered among the unobserved by the static
/// [`algorithm_cost_weight`] seed.
///
/// The model is shared across workers behind per-slot mutexes; claim order
/// therefore depends on real measured times and is **not** deterministic —
/// which is fine, because it is scheduling only: repetitions keep their
/// derived RNG streams and the reduction order is fixed, so the CSV is
/// byte-identical to any other claim order.
pub struct CostModel {
    /// Static cold-start weights, one per algorithm index.
    seeds: Vec<u32>,
    /// EWMA of observed seconds/rep/n², `None` until first observation.
    observed: Vec<std::sync::Mutex<Option<f64>>>,
}

impl CostModel {
    /// A model over the algorithm roster, seeded from
    /// [`algorithm_cost_weight`] by display name.
    pub fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let seeds: Vec<u32> = names.into_iter().map(algorithm_cost_weight).collect();
        let observed = seeds.iter().map(|_| std::sync::Mutex::new(None)).collect();
        CostModel { seeds, observed }
    }

    /// Folds one completed sub-task — `reps` repetitions of algorithm
    /// `ai` on an `n`-node dataset in `secs` seconds — into the EWMA.
    pub fn record(&self, ai: usize, n: usize, reps: usize, secs: f64) {
        let per = secs / reps.max(1) as f64 / n2(n);
        if !per.is_finite() {
            return;
        }
        let mut slot = self.observed[ai].lock().expect("cost slot never poisoned");
        *slot = Some(match *slot {
            None => per,
            Some(prev) => EWMA_ALPHA * per + (1.0 - EWMA_ALPHA) * prev,
        });
    }

    /// The descending claim key of a sub-task of algorithm `ai` on an
    /// `n`-node dataset: `(unobserved, cost)`, compared lexicographically
    /// so unobserved algorithms always outrank observed ones, and within
    /// each class the larger predicted cost (seed × n² or EWMA × n²) wins.
    pub fn claim_key(&self, ai: usize, n: usize) -> (bool, f64) {
        match *self.observed[ai].lock().expect("cost slot never poisoned") {
            None => (true, self.seeds[ai] as f64 * n2(n)),
            Some(ewma) => (false, ewma * n2(n)),
        }
    }
}

/// The n² scale factor shared by [`CostModel::record`] and
/// [`CostModel::claim_key`], clamped away from zero for empty graphs.
fn n2(n: usize) -> f64 {
    (n as f64 * n as f64).max(1.0)
}

/// Pops the index of the pending sub-task with the greatest claim key,
/// breaking exact key ties toward the smaller `tie` coordinate (grid
/// order). The pool must be non-empty — [`crate::exec::run_elastic`] hands
/// out exactly one ticket per sub-task.
fn pop_costliest<K>(pending: &std::sync::Mutex<Vec<usize>>, key: K) -> usize
where
    K: Fn(usize) -> ((bool, f64), (usize, usize)),
{
    let mut pool = pending.lock().expect("claim pool never poisoned");
    let at = pool
        .iter()
        .enumerate()
        .max_by(|&(_, &a), &(_, &b)| {
            let (ka, ta) = key(a);
            let (kb, tb) = key(b);
            // Claim keys are finite by construction, so partial_cmp only
            // falls through on exact ties, which the grid order settles.
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then_with(|| tb.cmp(&ta))
        })
        .map(|(i, _)| i)
        .expect("one ticket per sub-task: pool cannot be empty");
    pool.swap_remove(at)
}

/// A cell's grid coordinates: (dataset, algorithm, ε) indices.
pub(crate) type CellIndex = (usize, usize, usize);

/// One kind of benchmark grid, as [`run_cells`] drives it: the static
/// Table VII grid ([`run_benchmark`]) and the windowed temporal grid
/// ([`crate::benchmark::run_temporal_benchmark`]) each implement it once.
pub(crate) trait Cells: Sync {
    /// A cell's shared private intermediate under [`MeasureReuse::PerCell`].
    type Measured: Send + Sync;
    /// One output row.
    type Row;

    /// Node count of dataset `di`: the n of the cost model's n² key.
    fn node_count(&self, di: usize) -> usize;

    /// The cell's one shared measurement on its dedicated stream, or
    /// `None` when `measure` failed (every repetition of the cell then
    /// skips, preserving the complete-grid `runs = 0` contract).
    fn measure(&self, cell: CellIndex, rng: &mut StdRng) -> Option<Self::Measured>;

    /// One repetition on the rep's derived stream: generate — the full
    /// pipeline when `shared` is `None`, an ε-free `sample` of the cell's
    /// intermediate otherwise — evaluate, and return the error vector, or
    /// `None` when generation failed (the repetition is skipped, not
    /// averaged).
    fn run_rep(
        &self,
        cell: CellIndex,
        rng: &mut StdRng,
        shared: Option<&Self::Measured>,
    ) -> Option<Vec<f64>>;

    /// The cell's output rows from its per-repetition error vectors, which
    /// arrive **in repetition order** (see [`mean_errors`]).
    fn reduce(
        &self,
        cell: CellIndex,
        rep_errors: impl Iterator<Item = Option<Vec<f64>>>,
    ) -> Vec<Self::Row>;
}

/// Averages a cell's `width`-entry error vectors in the order given:
/// returns the per-entry means (`NaN` when no repetition succeeded) and the
/// number of successful repetitions. The float summation order is fixed by
/// the iterator, never by which worker computed which repetition.
pub(crate) fn mean_errors(
    rep_errors: impl Iterator<Item = Option<Vec<f64>>>,
    width: usize,
) -> (Vec<f64>, usize) {
    let mut sums = vec![0.0f64; width];
    let mut runs = 0usize;
    for errors in rep_errors.flatten() {
        debug_assert_eq!(errors.len(), width);
        for (sum, e) in sums.iter_mut().zip(&errors) {
            *sum += e;
        }
        runs += 1;
    }
    let means = sums.into_iter().map(|s| if runs == 0 { f64::NAN } else { s / runs as f64 });
    (means.collect(), runs)
}

/// The grid executor: runs every (dataset, algorithm, ε) cell of `cells`,
/// `config.repetitions` times each, over `config.threads`, and returns the
/// rows in grid order (dataset-major, then algorithm, then ε).
///
/// The grid is split into (cell, repetition-block) sub-tasks run on
/// [`crate::exec::run_elastic`]: each claim re-grants the live pool share,
/// so threads released by finished workers flow to the tail of the queue
/// (transient oversubscription is bounded by `threads + workers − 1`).
/// Sub-tasks are claimed in **cost order**, largest first, so a PrivHRG
/// cell on the largest dataset cannot become a serial tail after the cheap
/// cells drain: the key is the live [`CostModel`] (unobserved algorithms
/// first in static-seed order, then the measured EWMA × n²), and each
/// completed sub-task feeds its wall time back in.
///
/// All of that is scheduling only. Every repetition runs on
/// `cell_rng(seed, dataset, algorithm, ε, rep)` and publishes into its own
/// [`OnceLock`] slot; under [`MeasureReuse::PerCell`] whichever worker
/// reaches a cell first measures it on the cell's [`measure_rng`] stream and
/// the others reuse the result through a per-cell `OnceLock`; and cells
/// reduce in repetition order afterwards. So the rows are byte-identical at
/// every thread budget and in every claim order.
pub(crate) fn run_cells<C: Cells>(
    cells: &C,
    algorithms: &[&str],
    datasets: usize,
    config: &BenchmarkConfig,
) -> Vec<C::Row> {
    let budget = config.thread_budget();
    let reps = config.repetitions.max(1);
    let tasks: Vec<CellIndex> = (0..datasets)
        .flat_map(|di| (0..algorithms.len()).map(move |ai| (di, ai)))
        .flat_map(|(di, ai)| (0..config.epsilons.len()).map(move |ei| (di, ai, ei)))
        .collect();
    // Block size: aim for ~ELASTIC_TASKS_PER_WORKER sub-tasks per worker,
    // never finer than one repetition per sub-task.
    let worker_cap = budget.min(tasks.len().saturating_mul(reps)).max(1);
    let blocks_per_cell =
        (worker_cap * ELASTIC_TASKS_PER_WORKER).div_ceil(tasks.len().max(1)).clamp(1, reps);
    let block = reps.div_ceil(blocks_per_cell);
    let subtasks: Vec<(usize, std::ops::Range<usize>)> = (0..tasks.len())
        .flat_map(|t| {
            (0..reps).step_by(block).map(move |start| (t, start..reps.min(start + block)))
        })
        .collect();
    let model = CostModel::new(algorithms.iter().copied());
    let pending = std::sync::Mutex::new((0..subtasks.len()).collect());
    // One slot per (cell, repetition), cell-major.
    let mut rep_slots: Vec<OnceLock<Option<Vec<f64>>>> =
        (0..tasks.len() * reps).map(|_| OnceLock::new()).collect();
    let measured: Vec<OnceLock<Option<C::Measured>>> =
        (0..tasks.len()).map(|_| OnceLock::new()).collect();

    crate::exec::run_elastic(budget, subtasks.len(), |_ticket| {
        // Tickets are anonymous; each one claims whichever pending
        // sub-task the cost model currently predicts most expensive.
        let s = pop_costliest(&pending, |s| {
            let (t, range) = &subtasks[s];
            let (di, ai, _) = tasks[*t];
            (model.claim_key(ai, cells.node_count(di)), (*t, range.start))
        });
        let (t, rep_range) = &subtasks[s];
        let cell @ (di, ai, ei) = tasks[*t];
        let started = std::time::Instant::now();
        let shared = (config.reuse == MeasureReuse::PerCell).then(|| {
            measured[*t]
                .get_or_init(|| cells.measure(cell, &mut measure_rng(config.seed, di, ai, ei)))
        });
        for rep in rep_range.clone() {
            let errors = match shared {
                // Per-cell with a failed measurement: every rep of the cell skips.
                Some(None) => None,
                _ => cells.run_rep(
                    cell,
                    &mut cell_rng(config.seed, di, ai, ei, rep),
                    shared.and_then(Option::as_ref),
                ),
            };
            rep_slots[*t * reps + rep]
                .set(errors)
                .expect("the ledger hands out each sub-task once");
        }
        model.record(ai, cells.node_count(di), rep_range.len(), started.elapsed().as_secs_f64());
    });

    let published =
        |slot: &mut OnceLock<_>| slot.take().expect("every sub-task publishes its reps");
    tasks
        .iter()
        .zip(rep_slots.chunks_mut(reps))
        .flat_map(|(&cell, slots)| cells.reduce(cell, slots.iter_mut().map(published)))
        .collect()
}

/// Computes `f` once per dataset on the dataset's own derived stream (the
/// `algorithm = usize::MAX` slot no real cell occupies), under the full
/// thread budget: no cell workers are running yet, so the suite's shared
/// passes parallelise on it.
pub(crate) fn per_dataset<D: Sync, T>(
    datasets: &[(String, D)],
    config: &BenchmarkConfig,
    f: impl Fn(&D, &mut StdRng) -> T,
) -> Vec<T> {
    crate::par::with_parallelism(config.thread_budget(), || {
        datasets
            .iter()
            .enumerate()
            .map(|(di, (_, d))| f(d, &mut cell_rng(config.seed, di, usize::MAX, 0, 0)))
            .collect()
    })
}

/// The static grid as [`Cells`]: one graph per dataset, scored against its
/// true query values.
struct GraphCells<'a> {
    algorithms: &'a [Box<dyn GraphGenerator>],
    datasets: &'a [(String, Graph)],
    config: &'a BenchmarkConfig,
    /// True query values per dataset.
    truth: Vec<Vec<QueryValue>>,
}

impl Cells for GraphCells<'_> {
    type Measured = Box<dyn PrivateSynthesis>;
    type Row = ExperimentOutcome;

    fn node_count(&self, di: usize) -> usize {
        self.datasets[di].1.node_count()
    }

    fn measure(&self, (di, ai, ei): CellIndex, rng: &mut StdRng) -> Option<Self::Measured> {
        self.algorithms[ai].measure(&self.datasets[di].1, self.config.epsilons[ei], rng).ok()
    }

    fn run_rep(
        &self,
        (di, ai, ei): CellIndex,
        rng: &mut StdRng,
        shared: Option<&Self::Measured>,
    ) -> Option<Vec<f64>> {
        let config = self.config;
        let synthetic = match shared {
            None => {
                self.algorithms[ai].generate(&self.datasets[di].1, config.epsilons[ei], rng).ok()?
            }
            Some(measured) => measured.sample(rng),
        };
        let values =
            QuerySuite::evaluate_all(&synthetic, &config.queries, &config.query_params, rng);
        Some(
            config
                .queries
                .iter()
                .zip(&values)
                .zip(&self.truth[di])
                .map(|((&q, v), t)| compute_error(q, t, v))
                .collect(),
        )
    }

    fn reduce(
        &self,
        (di, ai, ei): CellIndex,
        rep_errors: impl Iterator<Item = Option<Vec<f64>>>,
    ) -> Vec<ExperimentOutcome> {
        let queries = &self.config.queries;
        let (means, runs) = mean_errors(rep_errors, queries.len());
        queries
            .iter()
            .zip(means)
            .map(|(&query, mean_error)| ExperimentOutcome {
                algorithm: self.algorithms[ai].name().to_string(),
                dataset: self.datasets[di].0.clone(),
                epsilon: self.config.epsilons[ei],
                query,
                metric: metric_for(query),
                mean_error,
                runs,
            })
            .collect()
    }
}

/// Runs the full benchmark grid: every algorithm × dataset × ε, with
/// `config.repetitions` generations per cell, all queries evaluated per
/// generation through the one-pass [`QuerySuite`] evaluator, and errors
/// averaged.
///
/// Work is spread over `config.threads` total threads by the elastic grid
/// executor: (cell, repetition-block) sub-tasks with per-claim
/// [`crate::par::BudgetLedger`] grants, claimed in predicted-cost order.
/// Workers publish into preallocated [`OnceLock`] slots — no shared mutex
/// on the hot path — and per-cell errors always reduce in repetition
/// order, so results are deterministic (byte-identical CSV) for a fixed
/// seed regardless of thread count.
///
/// Under [`MeasureReuse::PerCell`] each cell's ε-consuming `measure` phase
/// runs once on a dedicated derived stream (shared across that cell's
/// repetitions via a [`OnceLock`]) and repetitions only re-`sample` — the
/// numbers differ from the per-rep default by design, but stay
/// byte-identical across thread counts all the same.
///
/// Cells where every repetition's generation failed are still emitted, with
/// `runs = 0` and `NaN` errors, so downstream reports always see the
/// complete grid.
pub fn run_benchmark(
    algorithms: &[Box<dyn GraphGenerator>],
    datasets: &[(String, Graph)],
    config: &BenchmarkConfig,
) -> BenchmarkResults {
    let truth = per_dataset(datasets, config, |g, rng| {
        QuerySuite::evaluate_all(g, &config.queries, &config.query_params, rng)
    });
    let names: Vec<&str> = algorithms.iter().map(|a| a.name()).collect();
    let cells = GraphCells { algorithms, datasets, config, truth };
    BenchmarkResults {
        outcomes: run_cells(&cells, &names, datasets.len(), config),
        algorithms: names.iter().map(|a| a.to_string()).collect(),
        datasets: datasets.iter().map(|(n, _)| n.clone()).collect(),
        epsilons: config.epsilons.clone(),
        queries: config.queries.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenerateError;
    use crate::{Dgg, TmF};

    type Setup = (Vec<Box<dyn GraphGenerator>>, Vec<(String, Graph)>, BenchmarkConfig);

    /// A generator whose every run fails — exercises the complete-grid
    /// guarantee for `runs == 0` cells.
    struct AlwaysFails;

    impl GraphGenerator for AlwaysFails {
        fn name(&self) -> &'static str {
            "Fails"
        }

        fn measure(
            &self,
            _graph: &Graph,
            _epsilon: f64,
            _rng: &mut dyn rand::RngCore,
        ) -> Result<Box<dyn PrivateSynthesis>, GenerateError> {
            Err(GenerateError::GraphTooSmall { required: usize::MAX, actual: 0 })
        }
    }

    fn tiny_setup() -> Setup {
        let mut rng = StdRng::seed_from_u64(500);
        let g = pgb_models::erdos_renyi_gnp(60, 0.1, &mut rng);
        let algorithms: Vec<Box<dyn GraphGenerator>> =
            vec![Box::new(TmF::default()), Box::new(Dgg::default())];
        let datasets = vec![("toy".to_string(), g)];
        let config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: vec![Query::EdgeCount, Query::Triangles, Query::DegreeDistribution],
            seed: 1,
            threads: 2,
            ..Default::default()
        };
        (algorithms, datasets, config)
    }

    #[test]
    fn grid_is_complete() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        // 2 algorithms × 1 dataset × 2 ε × 3 queries.
        assert_eq!(results.outcomes.len(), 12);
        for o in &results.outcomes {
            assert!(o.mean_error.is_finite(), "{o:?}");
            assert_eq!(o.runs, 2);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (algorithms, datasets, mut config) = tiny_setup();
        config.threads = 1;
        let a = run_benchmark(&algorithms, &datasets, &config);
        config.threads = 4;
        let b = run_benchmark(&algorithms, &datasets, &config);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.algorithm, y.algorithm);
            assert_eq!(x.query, y.query);
            assert!((x.mean_error - y.mean_error).abs() < 1e-12, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn csv_byte_identical_across_thread_counts() {
        // Regression: `to_csv` output must be byte-identical at any thread
        // count, because cell RNGs are derived from the master seed and the
        // generators' intra-cell parallelism follows the same derived-stream
        // chunking discipline (`crate::par`), not scheduling order.
        // The algorithm set deliberately includes all four generators with
        // parallel perturbation/construction phases (TmF, DER, PrivSKG,
        // PrivGraph); the query set includes the Louvain-backed pair
        // (CD/Mod): their randomness comes from the suite evaluator's
        // derived per-intermediate streams and their float reductions are
        // ordered, so even they must reproduce bit-exactly.
        let mut rng = StdRng::seed_from_u64(42);
        let datasets = vec![
            ("er".to_string(), pgb_models::erdos_renyi_gnp(50, 0.1, &mut rng)),
            ("ba".to_string(), pgb_models::barabasi_albert(50, 2, &mut rng)),
        ];
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![
            Box::new(TmF::default()),
            Box::new(crate::Der::default()),
            Box::new(crate::PrivSkg::default()),
            Box::new(crate::PrivGraph::default()),
        ];
        let mut config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: vec![
                Query::EdgeCount,
                Query::Triangles,
                Query::CommunityDetection,
                Query::Modularity,
            ],
            seed: 42,
            threads: 1,
            ..Default::default()
        };
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        // 2 datasets × 4 algorithms × 2 ε × 4 queries + header.
        assert_eq!(serial.lines().count(), 65);
        for threads in [2, 8, 0] {
            config.threads = threads; // 0 ⇒ auto: available parallelism
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(serial, other, "CSV must not depend on threads = {threads}");
        }
    }

    #[test]
    fn csv_byte_identical_on_evaluation_heavy_grid() {
        // The evaluation-side mirror of the sweep above: a dense graph and
        // the full 15-query suite make `QuerySuite::evaluate_all` (triangle
        // pass, BFS sweep, Louvain, EVC) dominate each cell, and the cheap
        // generator keeps generation out of the picture. The parallel
        // shared passes must leave the CSV byte-identical at every thread
        // budget.
        let mut rng = StdRng::seed_from_u64(7);
        let datasets = vec![("dense".to_string(), pgb_models::erdos_renyi_gnp(120, 0.3, &mut rng))];
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(TmF::default())];
        let mut config = BenchmarkConfig {
            epsilons: vec![0.5, 5.0],
            repetitions: 2,
            queries: Query::ALL.to_vec(),
            seed: 77,
            threads: 1,
            ..Default::default()
        };
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        // 1 dataset × 1 algorithm × 2 ε × 15 queries + header.
        assert_eq!(serial.lines().count(), 31);
        for threads in [2, 8, 0] {
            config.threads = threads;
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(
                serial, other,
                "evaluation-heavy CSV must not depend on threads = {threads}"
            );
        }
    }

    #[test]
    fn approx_eval_csv_byte_identical_across_threads_and_schedulers() {
        // Sketch-backed evaluation rides the same determinism contract as
        // everything else: the sketches draw from derived per-intermediate
        // streams and their chunk merges are exact-integer or ordered, so
        // the CSV must be byte-identical at any thread budget. It must also
        // differ from the exact CSV only in the sketch-backed queries' rows
        // (spot-checked via |E|).
        let (algorithms, datasets, mut config) = tiny_setup();
        config.queries = Query::ALL.to_vec();
        config.query_params.eval =
            pgb_queries::EvalMode::Approx(pgb_queries::ApproxConfig::default());
        config.threads = 1;
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        assert_eq!(serial.lines().count(), 61); // 2 algos × 2 ε × 15 queries + header
        for threads in [2, 8, 0] {
            config.threads = threads;
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(serial, other, "approx CSV must not depend on threads = {threads}");
        }
        // |E| does not go through a sketch: its rows match exact evaluation.
        config.query_params.eval = pgb_queries::EvalMode::Exact;
        config.threads = 1;
        let exact = run_benchmark(&algorithms, &datasets, &config);
        let approx_results = run_benchmark(
            &algorithms,
            &datasets,
            &BenchmarkConfig {
                query_params: QueryParams {
                    eval: pgb_queries::EvalMode::Approx(pgb_queries::ApproxConfig::default()),
                    ..config.query_params
                },
                ..config.clone()
            },
        );
        assert_eq!(
            exact.error("TmF", "toy", 5.0, Query::EdgeCount),
            approx_results.error("TmF", "toy", 5.0, Query::EdgeCount),
        );
    }

    #[test]
    fn measure_reuse_parses_and_defaults_to_per_rep() {
        assert_eq!(BenchmarkConfig::default().reuse, MeasureReuse::PerRep);
        assert_eq!("rep".parse::<MeasureReuse>(), Ok(MeasureReuse::PerRep));
        assert_eq!("cell".parse::<MeasureReuse>(), Ok(MeasureReuse::PerCell));
        assert!("once".parse::<MeasureReuse>().is_err());
        assert_eq!(MeasureReuse::PerRep.name(), "rep");
        assert_eq!(MeasureReuse::PerCell.name(), "cell");
    }

    #[test]
    fn per_cell_reuse_is_deterministic_across_threads_and_schedulers() {
        // Per-cell numbers legitimately differ from per-rep numbers, but
        // within the mode the full determinism contract must hold: the CSV
        // is byte-identical for every thread budget.
        let (algorithms, datasets, mut config) = tiny_setup();
        config.reuse = MeasureReuse::PerCell;
        config.threads = 1;
        let serial = run_benchmark(&algorithms, &datasets, &config).to_csv();
        assert_eq!(serial.lines().count(), 13);
        for threads in [2, 8, 0] {
            config.threads = threads;
            let other = run_benchmark(&algorithms, &datasets, &config).to_csv();
            assert_eq!(serial, other, "per-cell CSV must not depend on threads = {threads}");
        }
        // And every cell still completes: sampling a shared intermediate
        // succeeds wherever the full pipeline would have.
        let results = run_benchmark(&algorithms, &datasets, &config);
        for o in &results.outcomes {
            assert_eq!(o.runs, 2, "{o:?}");
            assert!(o.mean_error.is_finite(), "{o:?}");
        }
    }

    #[test]
    fn failing_generator_complete_grid_under_both_schedulers() {
        // The complete-grid guarantee (runs = 0, NaN cells) must hold at
        // every thread budget: a failed repetition publishes `None` into
        // its slot, and the reduction still emits the cell.
        let (_, datasets, mut config) = tiny_setup();
        let algorithms: Vec<Box<dyn GraphGenerator>> = vec![Box::new(AlwaysFails)];
        for threads in [1, 2, 8, 0] {
            for reuse in [MeasureReuse::PerRep, MeasureReuse::PerCell] {
                config.threads = threads;
                config.reuse = reuse;
                let results = run_benchmark(&algorithms, &datasets, &config);
                assert_eq!(results.outcomes.len(), 6, "threads = {threads} {reuse:?}");
                for o in &results.outcomes {
                    assert_eq!(o.runs, 0, "threads = {threads} {reuse:?}: {o:?}");
                    assert!(o.mean_error.is_nan(), "threads = {threads} {reuse:?}: {o:?}");
                }
            }
        }
    }

    #[test]
    fn error_lookup_and_csv() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        let e = results.error("TmF", "toy", 5.0, Query::EdgeCount);
        assert!(e.is_some());
        let csv = results.to_csv();
        assert!(csv.lines().count() == 13); // header + 12 rows
        assert!(csv.contains("TmF,toy"));
    }

    #[test]
    fn positional_error_lookup_covers_the_whole_grid() {
        let (algorithms, datasets, config) = tiny_setup();
        let results = run_benchmark(&algorithms, &datasets, &config);
        // The positional lookup must agree with a plain scan on every cell.
        for algo in &results.algorithms {
            for ds in &results.datasets {
                for &eps in &results.epsilons {
                    for &q in &results.queries {
                        let scanned = results
                            .outcomes
                            .iter()
                            .find(|o| {
                                o.algorithm == *algo
                                    && o.dataset == *ds
                                    && (o.epsilon - eps).abs() < 1e-12
                                    && o.query == q
                            })
                            .map(|o| o.mean_error)
                            .expect("grid is complete");
                        assert_eq!(results.error(algo, ds, eps, q), Some(scanned));
                    }
                }
            }
        }
        // Off-grid coordinates miss cleanly.
        assert_eq!(results.error("NoSuchAlgo", "toy", 5.0, Query::EdgeCount), None);
        assert_eq!(results.error("TmF", "toy", 3.25, Query::EdgeCount), None);
        assert_eq!(results.error("TmF", "toy", 5.0, Query::Diameter), None);
    }

    #[test]
    fn error_lookup_falls_back_on_hand_assembled_results() {
        let (algorithms, datasets, config) = tiny_setup();
        let mut results = run_benchmark(&algorithms, &datasets, &config);
        // Scramble the grid order; lookups must still find every cell.
        results.outcomes.reverse();
        let e = results.error("TmF", "toy", 5.0, Query::EdgeCount);
        assert!(e.is_some());
    }

    #[test]
    fn failing_generator_still_emits_complete_grid() {
        let (_, datasets, config) = tiny_setup();
        let algorithms: Vec<Box<dyn GraphGenerator>> =
            vec![Box::new(AlwaysFails), Box::new(TmF::default())];
        let results = run_benchmark(&algorithms, &datasets, &config);
        // 2 algorithms × 1 dataset × 2 ε × 3 queries — nothing dropped.
        assert_eq!(results.outcomes.len(), 12);
        for o in &results.outcomes {
            if o.algorithm == "Fails" {
                assert_eq!(o.runs, 0, "{o:?}");
                assert!(o.mean_error.is_nan(), "{o:?}");
            } else {
                assert_eq!(o.runs, 2, "{o:?}");
                assert!(o.mean_error.is_finite(), "{o:?}");
            }
        }
        // The CSV grid is complete and marks the failed cells.
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 13);
        assert!(csv.contains("NaN"), "{csv}");
        // Lookups surface the failed cell rather than pretending it ran.
        let e = results.error("Fails", "toy", 0.5, Query::EdgeCount).unwrap();
        assert!(e.is_nan());
    }

    #[test]
    fn tmf_beats_noise_at_high_epsilon_on_edge_count() {
        let (algorithms, datasets, mut config) = tiny_setup();
        config.epsilons = vec![10.0];
        config.repetitions = 4;
        let results = run_benchmark(&algorithms, &datasets, &config);
        let tmf = results.error("TmF", "toy", 10.0, Query::EdgeCount).unwrap();
        // TmF controls |E| directly via m̃, so the RE must be small.
        assert!(tmf < 0.05, "TmF |E| error {tmf}");
    }

    #[test]
    fn cost_model_cold_start_ranks_by_static_seed() {
        let model = CostModel::new(["DER", "TmF"]);
        // Unobserved: the lexicographic (true, seed × n²) key preserves the
        // static ordering, and unobserved always outranks observed.
        assert!(model.claim_key(0, 90) > model.claim_key(1, 90));
        assert!(model.claim_key(1, 90) > model.claim_key(0, 20));
        model.record(0, 90, 1, 1.0);
        assert!(!model.claim_key(0, 90).0 && model.claim_key(1, 20).0);
        assert!(model.claim_key(1, 20) > model.claim_key(0, 90), "unobserved first");
    }

    #[test]
    fn cost_model_observations_flip_the_static_order() {
        // Static seeds say DER ≫ TmF; inject measurements saying the
        // opposite and the claim order must follow the evidence.
        let model = CostModel::new(["DER", "TmF"]);
        model.record(0, 100, 1, 0.001); // DER measured cheap
        model.record(1, 100, 1, 1.0); // TmF measured expensive
        assert!(model.claim_key(1, 100) > model.claim_key(0, 100));
        // And the EWMA tracks further observations with α = 0.3.
        model.record(1, 100, 1, 2.0);
        let expected = 0.3 * (2.0 / 1e4) + 0.7 * (1.0 / 1e4);
        let (_, cost) = model.claim_key(1, 100);
        assert!((cost - expected * 1e4).abs() < 1e-12, "{cost} vs {expected}");
    }

    #[test]
    fn cost_model_normalises_per_rep_and_per_n2() {
        // 4 reps on 10 nodes in 0.4 s and 1 rep on 20 nodes in 0.4 s are
        // the same 0.001 seconds/rep/n², so they predict the same cost on
        // any common dataset size.
        let model = CostModel::new(["A", "B"]);
        model.record(0, 10, 4, 0.4);
        model.record(1, 20, 1, 0.4);
        let (_, a) = model.claim_key(0, 20);
        let (_, b) = model.claim_key(1, 20);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        // Degenerate inputs never poison the model.
        model.record(0, 0, 0, 0.0);
        model.record(0, 10, 1, f64::INFINITY);
        assert!(model.claim_key(0, 10).1.is_finite());
    }

    #[test]
    fn pop_costliest_orders_and_breaks_ties_in_grid_order() {
        use std::sync::Mutex;
        let keys = [((false, 2.0), (1, 0)), ((true, 0.5), (2, 0)), ((false, 2.0), (0, 0))];
        let pending = Mutex::new(vec![0, 1, 2]);
        let pop = |pending: &Mutex<Vec<usize>>| pop_costliest(pending, |s| keys[s]);
        assert_eq!(pop(&pending), 1, "unobserved outranks any observed cost");
        assert_eq!(pop(&pending), 2, "exact ties resolve toward grid order");
        assert_eq!(pop(&pending), 0);
    }
}
