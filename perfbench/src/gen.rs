//! Seeded input generation. Everything a workload sends is built here from
//! the `--seed` argument before any clock starts; the program under test
//! only ever sees the generated inputs.

use bigraph::sampling::{imbalanced_pairs, uniform_pairs, QueryPair};
use bigraph::{BipartiteGraph, GraphDelta, Layer, VertexId};
use datasets::{Catalog, DatasetCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation seed of the BX graph. The dataset is a fixed input, as in the
/// paper's evaluation; the workload seed varies only what is sent to it.
pub const DATASET_SEED: u64 = 2024;
/// Candidates per screening query.
pub const CANDIDATES: usize = 256;
/// Deltas per write batch.
pub const BATCH_DELTAS: usize = 64;
/// Write batches between an edge's insertion and its removal, which keeps
/// the graph's size steady over a run.
const REMOVE_LAG: usize = 8;

/// The BX profile (105k users × 340k books, 1.1M edges) at paper size.
#[must_use]
pub fn bx_graph() -> BipartiteGraph {
    Catalog::full_scale()
        .generate(DatasetCode::BX, DATASET_SEED)
        .expect("BX is in the catalog")
        .graph
}

/// SplitMix64 finalizer over `a ⊕ φ·b`: independent per-purpose seeds.
#[must_use]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples upper-layer vertices with probability proportional to degree.
pub struct DegreeSampler {
    prefix: Vec<u64>,
}

impl DegreeSampler {
    /// Builds the cumulative degree table of `g`'s upper layer.
    #[must_use]
    pub fn new(g: &BipartiteGraph) -> Self {
        let mut total = 0u64;
        let prefix = (0..g.n_upper() as VertexId)
            .map(|v| {
                total += g.degree(Layer::Upper, v) as u64;
                total
            })
            .collect();
        Self { prefix }
    }

    /// One degree-weighted draw.
    pub fn sample(&self, rng: &mut StdRng) -> VertexId {
        let total = *self.prefix.last().expect("non-empty layer");
        let x = rng.gen_range(0..total);
        self.prefix.partition_point(|&c| c <= x) as VertexId
    }
}

/// The pair set of `pairs_bx`: `n_uniform` uniform pairs then
/// `n_imbalanced` pairs with degree ratio above `kappa` (the paper's
/// Fig. 9 protocol), all on the user layer.
#[must_use]
pub fn pair_set(
    g: &BipartiteGraph,
    seed: u64,
    n_uniform: usize,
    n_imbalanced: usize,
    kappa: f64,
) -> Vec<QueryPair> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 1));
    let mut pairs = uniform_pairs(g, Layer::Upper, n_uniform, &mut rng).expect("two users");
    let imbalanced =
        imbalanced_pairs(g, Layer::Upper, kappa, n_imbalanced, &mut rng).expect("two users");
    pairs.extend(imbalanced);
    pairs
}

/// One operation of an open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A top-k screening batch: `target` against distinct `candidates`.
    Query {
        /// The target user.
        target: VertexId,
        /// Distinct users, none equal to `target`.
        candidates: Vec<VertexId>,
        /// Seed of the query's protocol randomness.
        seed: u64,
    },
    /// One batch of edge insertions and removals.
    Write {
        /// The batch, in arrival order.
        deltas: Vec<GraphDelta>,
    },
}

/// An operation and the time it is due, in ns after the schedule starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Due time, ns from the start of the run.
    pub due_ns: u64,
    /// What to send.
    pub op: Op,
}

/// Fixed arrival rates of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Screening queries per second.
    pub query_per_s: f64,
    /// Write batches per second; a whole fraction of `query_per_s`.
    pub write_per_s: f64,
    /// Seconds after a write before the first query of its frame is due.
    pub quiet_s: f64,
    /// Every `burst_every`-th frame is a burst: its queries come due right
    /// behind the write, `burst_gap_s` apart.
    pub burst_every: u64,
    /// Spacing of a burst frame's queries, seconds.
    pub burst_gap_s: f64,
}

/// A screening query: a uniform target with at least one edge, and
/// [`CANDIDATES`] distinct degree-weighted candidates. Degree weighting
/// draws the few users dense enough for a cached bitmap as well as the
/// sparse majority, so both round-2 intersection paths run.
fn screening_query(g: &BipartiteGraph, sampler: &DegreeSampler, rng: &mut StdRng, seed: u64) -> Op {
    let n = g.n_upper() as VertexId;
    let target = loop {
        let t = rng.gen_range(0..n);
        if g.degree(Layer::Upper, t) > 0 {
            break t;
        }
    };
    let mut candidates = Vec::with_capacity(CANDIDATES);
    while candidates.len() < CANDIDATES {
        let w = sampler.sample(rng);
        if w != target && !candidates.contains(&w) {
            candidates.push(w);
        }
    }
    Op::Query {
        target,
        candidates,
        seed,
    }
}

/// Produces write batches: half fresh insertions (degree-weighted user,
/// zipf-skewed book, so hot users and hot books absorb most traffic), half
/// removals of the insertions made [`REMOVE_LAG`] batches earlier.
pub struct WriteStream {
    rng: StdRng,
    sampler: DegreeSampler,
    n_lower: u32,
    history: Vec<Vec<(VertexId, VertexId)>>,
}

impl WriteStream {
    /// A stream over `g` seeded from `seed`.
    #[must_use]
    pub fn new(g: &BipartiteGraph, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(mix(seed, 3)),
            sampler: DegreeSampler::new(g),
            n_lower: g.n_lower() as u32,
            history: Vec::new(),
        }
    }

    /// The next batch of [`BATCH_DELTAS`] deltas.
    pub fn next_batch(&mut self) -> Vec<GraphDelta> {
        let k = self.history.len();
        let n_removes = if k >= REMOVE_LAG { BATCH_DELTAS / 2 } else { 0 };
        let mut adds = Vec::with_capacity(BATCH_DELTAS - n_removes);
        for _ in 0..BATCH_DELTAS - n_removes {
            let upper = self.sampler.sample(&mut self.rng);
            let unit: f64 = self.rng.gen();
            let lower = ((unit * unit * unit) * f64::from(self.n_lower - 1)) as u32;
            adds.push((upper, lower));
        }
        let mut deltas: Vec<GraphDelta> = adds
            .iter()
            .map(|&(upper, lower)| GraphDelta::AddEdge { upper, lower })
            .collect();
        if n_removes > 0 {
            deltas.extend(
                self.history[k - REMOVE_LAG][..n_removes]
                    .iter()
                    .map(|&(upper, lower)| GraphDelta::RemoveEdge { upper, lower }),
            );
        }
        self.history.push(adds);
        deltas
    }
}

/// The open-loop schedule of the screening workloads, their contents drawn
/// from `seed`. Time is cut into frames of one write period, each starting
/// with a write. A frame's queries are due at even spacing over the rest of
/// the frame after the quiet time, except in a burst frame, where they come
/// due from 1 ms after the write on. Both `screen_*` workloads replay the
/// identical list.
///
/// # Panics
///
/// If the query rate is not a whole multiple of the write rate or a
/// frame's queries do not fit in it.
#[must_use]
pub fn open_loop_schedule(g: &BipartiteGraph, seed: u64, seconds: f64, rates: Rates) -> Vec<Event> {
    let per_frame = (rates.query_per_s / rates.write_per_s).round();
    assert!(
        per_frame >= 1.0 && (per_frame * rates.write_per_s - rates.query_per_s).abs() < 1e-9,
        "the query rate must be a whole multiple of the write rate"
    );
    let frame_ns = 1e9 / rates.write_per_s;
    let quiet_ns = rates.quiet_s * 1e9;
    let burst_gap_ns = rates.burst_gap_s * 1e9;
    assert!(
        quiet_ns < frame_ns && 1e6 + per_frame * burst_gap_ns < frame_ns,
        "a frame's queries must fit in it"
    );
    let gap_ns = (frame_ns - quiet_ns) / per_frame;
    let per_frame = per_frame as u64;
    let frames = (seconds * rates.write_per_s).round() as u64;

    let sampler = DegreeSampler::new(g);
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let mut writes = WriteStream::new(g, seed);
    let mut events = Vec::with_capacity((frames * (per_frame + 1)) as usize);
    for i in 0..frames * per_frame {
        let (frame, k) = (i / per_frame, (i % per_frame) as f64);
        let offset_ns = if frame % rates.burst_every == rates.burst_every - 1 {
            1e6 + k * burst_gap_ns
        } else {
            quiet_ns + k * gap_ns
        };
        let due_ns = (frame as f64 * frame_ns + offset_ns) as u64;
        let op = screening_query(g, &sampler, &mut rng, mix(seed, 1000 + i));
        events.push(Event { due_ns, op });
    }
    for j in 0..frames {
        events.push(Event {
            due_ns: (j as f64 * frame_ns) as u64,
            op: Op::Write {
                deltas: writes.next_batch(),
            },
        });
    }
    events.sort_by_key(|e| e.due_ns);
    events
}

/// The write batches of `events`, in arrival order.
#[must_use]
pub fn write_batches(events: &[Event]) -> Vec<&[GraphDelta]> {
    events
        .iter()
        .filter_map(|e| match &e.op {
            Op::Write { deltas } => Some(deltas.as_slice()),
            Op::Query { .. } => None,
        })
        .collect()
}

/// Seed of the warm-up inputs. Set-up is the same work for every workload
/// seed, so `setup_s` measures the code, not the seed.
pub const WARMUP_SEED: u64 = 0x5EED;

/// Screening queries used to warm an engine before timing.
#[must_use]
pub fn warmup_queries(g: &BipartiteGraph, n: usize) -> Vec<Op> {
    let sampler = DegreeSampler::new(g);
    let mut rng = StdRng::seed_from_u64(mix(WARMUP_SEED, 4));
    (0..n)
        .map(|i| screening_query(g, &sampler, &mut rng, mix(WARMUP_SEED, i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..600u32 {
            for k in 0..(1 + u % 37) {
                edges.push((u, (u * 31 + k * 7) % 900));
            }
        }
        BipartiteGraph::from_edges(600, 900, edges).expect("valid edges")
    }

    const RATES: Rates = Rates {
        query_per_s: 40.0,
        write_per_s: 8.0,
        quiet_s: 0.05,
        burst_every: 2,
        burst_gap_s: 0.004,
    };

    #[test]
    fn same_seed_gives_same_operations() {
        let g = small_graph();
        let a = open_loop_schedule(&g, 17, 2.0, RATES);
        let b = open_loop_schedule(&g, 17, 2.0, RATES);
        assert_eq!(a, b);
        let c = open_loop_schedule(&g, 18, 2.0, RATES);
        assert_ne!(a, c, "a different seed must change the operations");
        assert_eq!(pair_set(&g, 5, 20, 10, 3.0), pair_set(&g, 5, 20, 10, 3.0));
        assert_ne!(pair_set(&g, 5, 20, 10, 3.0), pair_set(&g, 6, 20, 10, 3.0));
        assert_eq!(warmup_queries(&g, 3), warmup_queries(&g, 3));
    }

    #[test]
    fn schedule_has_fixed_rates_and_valid_operations() {
        let g = small_graph();
        let events = open_loop_schedule(&g, 3, 2.0, RATES);
        let queries = events
            .iter()
            .filter(|e| matches!(e.op, Op::Query { .. }))
            .count();
        assert_eq!(queries, 80);
        assert_eq!(events.len() - queries, 16);
        assert!(events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Each 125 ms frame starts with a write. A quiet frame's five
        // queries are 15 ms apart after the 50 ms quiet time; every second
        // frame is a burst, its queries 4 ms apart from 1 ms on.
        let due_ms: Vec<u64> = events[..12].iter().map(|e| e.due_ns / 1_000_000).collect();
        assert_eq!(
            due_ms,
            [0, 50, 65, 80, 95, 110, 125, 126, 130, 134, 138, 142]
        );
        assert!(matches!(events[0].op, Op::Write { .. }));
        assert!(matches!(events[6].op, Op::Write { .. }));
        for e in &events {
            match &e.op {
                Op::Query {
                    target, candidates, ..
                } => {
                    assert_eq!(candidates.len(), CANDIDATES);
                    assert!(!candidates.contains(target));
                    let mut sorted = candidates.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), CANDIDATES, "candidates are distinct");
                }
                Op::Write { deltas } => {
                    assert_eq!(deltas.len(), BATCH_DELTAS);
                    let mut batch = bigraph::UpdateBatch::new();
                    for &d in deltas {
                        batch.push(d);
                    }
                    batch.validate(&g).expect("every write is valid");
                }
            }
        }
    }

    #[test]
    fn removals_follow_their_insertions() {
        let g = small_graph();
        let mut stream = WriteStream::new(&g, 9);
        let batches: Vec<_> = (0..REMOVE_LAG + 1).map(|_| stream.next_batch()).collect();
        let removed: Vec<_> = batches[REMOVE_LAG]
            .iter()
            .filter_map(|d| match *d {
                GraphDelta::RemoveEdge { upper, lower } => {
                    Some(GraphDelta::AddEdge { upper, lower })
                }
                _ => None,
            })
            .collect();
        assert_eq!(removed.len(), BATCH_DELTAS / 2);
        assert_eq!(removed[..], batches[0][..BATCH_DELTAS / 2]);
    }
}
