//! Property tests for the lean vs detailed accounting contract
//! (`cne::engine` module docs): the always-on [`ldp::TranscriptStats`]
//! aggregates must be identical to what the retained detailed message log
//! implies, and switching modes must never change an estimate or a budget
//! total by a single bit.

use bigraph::{BipartiteGraph, Layer};
use cne::batch::BatchSingleSource;
use cne::{
    CentralDP, CommonNeighborEstimator, MultiRDS, MultiRDSBasic, MultiRDSStar, MultiRSS, Naive,
    OneR, ProtocolEnv, Query, RoundContext,
};
use ldp::budget::{BudgetAccountant, Composition};
use ldp::transcript::{Direction, Transcript};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random graph with degrees spanning the sparse-probe and dense-packed
/// dispatch branches, plus a valid query pair.
fn arb_instance() -> impl Strategy<Value = (BipartiteGraph, Query)> {
    (4usize..12, 64usize..320, any::<u64>()).prop_map(|(n_upper, n_lower, seed)| {
        let mut edges = Vec::new();
        for u in 0..n_upper as u32 {
            // Vertex u gets degree between 2 and ~n_lower/2, striding the
            // lower layer so neighborhoods overlap but differ.
            let degree = 2 + (seed as u32 ^ (u * 7)) % (n_lower as u32 / 2);
            for k in 0..degree {
                edges.push((u, (u * 13 + k * 3) % n_lower as u32));
            }
        }
        let g = BipartiteGraph::from_edges(n_upper, n_lower, edges).expect("edges in range");
        (g, Query::new(Layer::Upper, 0, 1))
    })
}

fn estimators() -> Vec<Box<dyn CommonNeighborEstimator>> {
    vec![
        Box::new(Naive),
        Box::new(OneR::default()),
        Box::new(MultiRSS::default()),
        Box::new(MultiRDSBasic::default()),
        Box::new(MultiRDS::default()),
        Box::new(MultiRDSStar),
        Box::new(CentralDP),
    ]
}

/// Recomputes every aggregate the lean stats claim from the retained
/// detailed message log and asserts they agree.
fn assert_stats_match_log(transcript: &Transcript) {
    let messages = transcript.messages();
    assert_eq!(transcript.message_count(), messages.len());
    assert_eq!(
        transcript.total_bytes(),
        messages.iter().map(|m| m.bytes).sum::<usize>()
    );
    assert_eq!(
        transcript.rounds(),
        messages.iter().map(|m| m.round).max().unwrap_or(0)
    );
    for direction in [Direction::Upload, Direction::Download] {
        assert_eq!(
            transcript.bytes_in_direction(direction),
            messages
                .iter()
                .filter(|m| m.direction == direction)
                .map(|m| m.bytes)
                .sum::<usize>()
        );
    }
    for round in 1..=4u32 {
        assert_eq!(
            transcript.bytes_in_round(round),
            messages
                .iter()
                .filter(|m| m.round == round)
                .map(|m| m.bytes)
                .sum::<usize>()
        );
        let cell_up = transcript.stats().cell(round, Direction::Upload);
        let in_cell: Vec<_> = messages
            .iter()
            .filter(|m| m.round == round && m.direction == Direction::Upload)
            .collect();
        assert_eq!(cell_up.messages as usize, in_cell.len());
        assert_eq!(
            cell_up.bytes as usize,
            in_cell.iter().map(|m| m.bytes).sum::<usize>()
        );
    }
    for m in messages {
        assert!(!m.label.is_empty(), "retained labels must render non-empty");
    }
}

/// Recomputes consumption from the retained ledger with the grouping rule
/// (sequential charges add, parallel charges max into the open group) and
/// asserts it matches the incrementally tracked total bit for bit.
fn assert_ledger_matches_consumed(budget: &BudgetAccountant) {
    let mut total = 0.0f64;
    let mut group = 0.0f64;
    for charge in budget.charges() {
        match charge.composition {
            Composition::Sequential => {
                total += group;
                group = charge.epsilon;
            }
            Composition::Parallel => {
                group = group.max(charge.epsilon);
            }
        }
    }
    assert_eq!((total + group).to_bits(), budget.consumed().to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every algorithm: a lean run and a detailed run on the same seed
    /// produce bit-identical estimates and aggregates, and the detailed
    /// run's retained logs reproduce the lean aggregates exactly.
    #[test]
    fn lean_and_detailed_runs_agree_for_every_algorithm(
        (g, query) in arb_instance(),
        epsilon in 0.5f64..4.0,
        seed in any::<u64>(),
    ) {
        for est in &estimators() {
            let mut rng_lean = StdRng::seed_from_u64(seed);
            let mut rng_detail = StdRng::seed_from_u64(seed);
            let lean = est.estimate(&g, &query, epsilon, &mut rng_lean).unwrap();
            let ctx = RoundContext::begin_detailed(epsilon, &mut rng_detail).unwrap();
            let detail = est.estimate_in(ProtocolEnv::uncached(&g), &query, ctx).unwrap();

            prop_assert_eq!(lean.estimate.to_bits(), detail.estimate.to_bits());
            prop_assert_eq!(
                lean.budget.consumed().to_bits(),
                detail.budget.consumed().to_bits()
            );
            prop_assert_eq!(lean.transcript.stats(), detail.transcript.stats());
            prop_assert!(lean.transcript.messages().is_empty());
            prop_assert!(lean.budget.charges().is_empty());
            prop_assert!(!detail.budget.charges().is_empty());
            assert_stats_match_log(&detail.transcript);
            assert_ledger_matches_consumed(&detail.budget);
        }
    }

    /// The batch protocol honors the same contract, per candidate.
    #[test]
    fn lean_and_detailed_batch_runs_agree(
        (g, _) in arb_instance(),
        epsilon in 0.5f64..4.0,
        seed in any::<u64>(),
        n_candidates in 2usize..8,
    ) {
        let k = n_candidates.min(g.n_upper() - 1);
        let candidates: Vec<u32> = (1..=k as u32).collect();
        let algo = BatchSingleSource::default();
        let mut rng_lean = StdRng::seed_from_u64(seed);
        let mut rng_detail = StdRng::seed_from_u64(seed);
        let lean = algo
            .estimate_batch(&g, Layer::Upper, 0, &candidates, epsilon, &mut rng_lean)
            .unwrap();
        let ctx = RoundContext::begin_detailed(epsilon, &mut rng_detail).unwrap();
        let detail = algo
            .estimate_batch_in(ProtocolEnv::uncached(&g), Layer::Upper, 0, &candidates, ctx)
            .unwrap();

        let bits = |r: &cne::BatchReport| -> Vec<u64> {
            r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
        };
        prop_assert_eq!(bits(&lean), bits(&detail));
        prop_assert_eq!(
            lean.budget.consumed().to_bits(),
            detail.budget.consumed().to_bits()
        );
        prop_assert_eq!(lean.transcript.stats(), detail.transcript.stats());
        prop_assert!(lean.transcript.messages().is_empty());
        // One download + one scalar upload per candidate, one target upload.
        prop_assert_eq!(detail.transcript.messages().len(), 1 + 2 * candidates.len());
        assert_stats_match_log(&detail.transcript);
        assert_ledger_matches_consumed(&detail.budget);
    }
}
