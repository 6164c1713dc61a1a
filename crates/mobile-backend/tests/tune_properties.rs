//! Property tests over the schedule auto-tuner: on random graphs,
//! heuristics and SoCs, the tuned schedule must always be valid,
//! executable, and no worse than the vendor heuristic at 0 ULPs of the
//! canonical evaluators — and with an unbounded beam, branch-and-bound
//! pruning must never drop the exhaustive optimum.

use mobile_backend::partition::{partition, FallbackPolicy, PartitionPlan, Target};
use mobile_backend::tune::{exhaustive_optimum, search_model, tune, Objective, TunerConfig};
use nn_graph::builder::GraphBuilder;
use nn_graph::graph::retype;
use nn_graph::{Activation, DataType, Graph, Shape};
use proptest::prelude::*;
use soc_sim::catalog::ChipId;
use soc_sim::executor::estimate_query_secs;
use soc_sim::search::active_energy_j;
use soc_sim::soc::Soc;

/// A small random CNN whose depth/width vary per seed (same shape family
/// as the partitioner property suite). With `residual`, each block ends
/// in `add(block_in, p_i)`, a two-input node whose first input lies
/// three nodes back — in a closed stage whenever the block switches
/// targets.
fn random_graph(blocks: usize, base_channels: usize, with_postproc: bool, residual: bool) -> Graph {
    let mut b = GraphBuilder::new("prop", Shape::nhwc(32, 32, 3), DataType::F32);
    let mut x = b.conv2d("stem", b.input_id(), 3, 2, base_channels, Activation::Relu6);
    for i in 0..blocks {
        let c = b.conv2d(&format!("c{i}"), x, 1, 1, base_channels * 2, Activation::Relu6);
        let d = b.depthwise_conv2d(&format!("d{i}"), c, 3, 1, Activation::Relu6);
        let p = b.conv2d(&format!("p{i}"), d, 1, 1, base_channels, Activation::None);
        x = if residual { b.add(&format!("r{i}"), x, p) } else { p };
    }
    if with_postproc {
        let r = b.reshape("flat", x, Shape::new(&[1, 16 * 16 * base_channels]));
        let dec = b.box_decode("decode", r, 64, 10);
        let _ = b.nms("nms", dec, 64, 8);
    } else {
        let p = b.global_avg_pool("gap", x);
        let _ = b.fully_connected("fc", p, 10, Activation::None);
    }
    b.finish()
}

/// A vendor-style heuristic: accelerator-primary partition with CPU
/// fallback, parameterized like the real backends.
fn heuristic_for(
    graph: &Graph,
    soc: &Soc,
    policy_kind: u8,
    policy_param: usize,
    sync_us: f64,
    query_us: f64,
) -> soc_sim::schedule::Schedule {
    let primary = soc
        .engines()
        .find(|(_, e)| e.kind.is_accelerator())
        .map(|(id, _)| id)
        .unwrap_or_else(|| soc.cpu());
    let plan = PartitionPlan {
        primary: Target { engine: primary, dtype: DataType::U8 },
        fallbacks: vec![Target { engine: soc.cpu(), dtype: DataType::U8 }],
        policy: if policy_kind.is_multiple_of(2) {
            FallbackPolicy::PingPong { sticky: policy_param % 12 }
        } else {
            FallbackPolicy::Merge { window: policy_param % 6 }
        },
        primary_blocked: Vec::new(),
        sync_overhead_us: sync_us,
        query_overhead_us: query_us,
    };
    partition(graph, soc, &plan).expect("CPU fallback covers everything")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any graph/heuristic/SoC and at any beam width, the tuned
    /// schedule is valid, respects per-engine op support, and its
    /// latency/energy — recomputed by the canonical evaluators — never
    /// regresses the heuristic's on the search objective, bit-exactly.
    #[test]
    fn tuned_schedule_is_valid_supported_and_never_worse(
        blocks in 1usize..6,
        channels in 4usize..24,
        with_postproc: bool,
        residual: bool,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        beam_exp in 0u32..7,
        energy_objective: bool,
    ) {
        let graph = retype(&random_graph(blocks, channels, with_postproc, residual), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let config = TunerConfig {
            objective: if energy_objective { Objective::Energy } else { Objective::Latency },
            beam_width: 1 << beam_exp,
        };
        let outcome = tune(&soc, &graph, &heuristic, &config);

        // The winner is a valid schedule that covers every node.
        prop_assert!(outcome.schedule.validate(&graph).is_ok());
        let scheduled: usize = outcome.schedule.stages.iter().map(|s| s.nodes.len()).sum();
        prop_assert_eq!(scheduled, graph.len());
        // Every stage's engine supports every one of its ops at the
        // stage dtype (flop-free pseudo-nodes ride along for free).
        for stage in &outcome.schedule.stages {
            let engine = soc.engine(stage.engine);
            for &id in &stage.nodes {
                let node = graph.node(id);
                prop_assert!(
                    node.cost.flops == 0 || engine.supports(node.class(), stage.dtype),
                    "{} cannot run {} at {:?}", engine.name, node.name, stage.dtype
                );
            }
        }
        // Reported scores ARE the canonical evaluators' values, bit-exactly.
        let latency = estimate_query_secs(&soc, &graph, &outcome.schedule);
        let energy = active_energy_j(&soc, &graph, &outcome.schedule);
        prop_assert_eq!(latency.to_bits(), outcome.tuned.latency_secs.to_bits());
        prop_assert_eq!(energy.to_bits(), outcome.tuned.energy_j.to_bits());
        prop_assert_eq!(
            estimate_query_secs(&soc, &graph, &heuristic).to_bits(),
            outcome.heuristic.latency_secs.to_bits()
        );
        // The incumbent was seeded with the heuristic: no regression on
        // the objective, at 0 ULPs of the evaluator's own arithmetic.
        let (tuned_obj, base_obj) = if energy_objective {
            (outcome.tuned.energy_j, outcome.heuristic.energy_j)
        } else {
            (outcome.tuned.latency_secs, outcome.heuristic.latency_secs)
        };
        prop_assert!(tuned_obj <= base_obj, "tuner regressed past its seed incumbent");
        prop_assert_eq!(outcome.improved, tuned_obj < base_obj);
    }

    /// Branch-and-bound pruning never drops the optimum: with an
    /// unbounded beam the search lands on the exhaustive oracle's
    /// objective value bit-for-bit, on random small graphs over random
    /// SoCs, heuristics and both objectives.
    #[test]
    fn pruning_never_drops_the_exhaustive_optimum(
        channels in 4usize..24,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        energy_objective: bool,
    ) {
        // One block keeps the graph small enough (7 nodes) that the
        // oracle's full enumeration stays cheap on every catalog SoC.
        let graph = retype(&random_graph(1, channels, false, false), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let objective = if energy_objective { Objective::Energy } else { Objective::Latency };

        let (oracle, oracle_schedule) = exhaustive_optimum(&soc, &graph, &heuristic, objective);
        let outcome = tune(&soc, &graph, &heuristic, &TunerConfig::exact(objective));
        prop_assert_eq!(outcome.stats.beam_truncations, 0, "exact mode must not truncate");
        let (got, want) = match objective {
            Objective::Latency => (outcome.tuned.latency_secs, oracle.latency_secs),
            Objective::Energy => (outcome.tuned.energy_j, oracle.energy_j),
        };
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pruned search lost the optimum: got {got:e}, oracle {want:e}"
        );
        prop_assert!(oracle_schedule.validate(&graph).is_ok());
    }

    /// Peeking at an extension's bound is bit-equal to building the
    /// extension and bounding it, for random prefixes of random
    /// (optionally residual) graphs, every supported next target and
    /// both objectives.
    #[test]
    fn peek_bound_is_bit_equal_to_bounding_the_extension(
        blocks in 1usize..5,
        channels in 4usize..24,
        with_postproc: bool,
        residual: bool,
        chip_idx in 0usize..8,
        policy_kind: u8,
        policy_param in 0usize..16,
        sync_us in 0.0f64..200.0,
        query_us in 0.0f64..200.0,
        prefix_seed: u64,
        prefix_frac in 0.0f64..1.0,
    ) {
        let graph = retype(&random_graph(blocks, channels, with_postproc, residual), DataType::U8);
        let soc = ChipId::ALL[chip_idx].build();
        let heuristic = heuristic_for(&graph, &soc, policy_kind, policy_param, sync_us, query_us);
        let model = search_model(&soc, &graph, &heuristic);
        let t = model.targets().len();
        let len = ((model.num_nodes() as f64 * prefix_frac) as usize).min(model.num_nodes() - 1);
        let mut p = model.root();
        let mut seed = prefix_seed | 1;
        for i in 0..len {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let mut k = (seed % t as u64) as usize;
            while !model.is_supported(i, k) {
                k = (k + 1) % t;
            }
            model.extend_in_place(&mut p, k as u8);
        }
        for k in (0..t).filter(|&k| model.is_supported(len, k)) {
            let q = model.extend(&p, k as u8);
            prop_assert_eq!(
                model.peek_bound(&p, k as u8, false).to_bits(),
                model.bound_latency(&q).to_bits()
            );
            prop_assert_eq!(
                model.peek_bound(&p, k as u8, true).to_bits(),
                model.bound_energy(&q).to_bits()
            );
        }
    }
}
