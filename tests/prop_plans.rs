//! Property test over *randomly generated plan trees*: for any valid plan,
//! plan refinement must preserve the result set, and refined plans must
//! satisfy the buffer-placement invariants.

use bufferdb::prelude::*;
use bufferdb::types::Rng;

fn collect(plan: &PlanNode, catalog: &Catalog, cfg: &MachineConfig) -> Result<Vec<Tuple>> {
    execute_query(plan, catalog, cfg, &QueryOpts::new())
        .into_result()
        .map(|(rows, _, _)| rows)
}

fn catalog() -> Catalog {
    let c = Catalog::new();
    for (name, rows) in [("fact", 600i64), ("dim", 40)] {
        let mut b = TableBuilder::new(
            name,
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::nullable("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            let v = if i % 11 == 0 {
                Datum::Null
            } else {
                Datum::Int((i * 7) % 100)
            };
            b.push(Tuple::new(vec![Datum::Int(i % 40), v]));
        }
        c.add_table(b);
    }
    c
}

/// A recipe for one random plan node layer; interpreted bottom-up so every
/// generated plan is valid by construction (arity 2 preserved throughout by
/// projecting join outputs back to two columns).
#[derive(Debug, Clone)]
enum Layer {
    Filter(i64),
    Project,
    SortAsc,
    Limit(u64),
    Buffer(usize),
    HashJoinDim,
    MergeJoinSelf,
    Aggregate,
}

fn random_layer(rng: &mut Rng) -> Layer {
    match rng.gen_range(0u32..8) {
        0 => Layer::Filter(rng.gen_range(-20i64..120)),
        1 => Layer::Project,
        2 => Layer::SortAsc,
        3 => Layer::Limit(rng.gen_range(1u64..500)),
        4 => Layer::Buffer(rng.gen_range(1usize..200)),
        5 => Layer::HashJoinDim,
        6 => Layer::MergeJoinSelf,
        _ => Layer::Aggregate,
    }
}

fn base_scan(table: &str) -> PlanNode {
    PlanNode::SeqScan {
        table: table.into(),
        predicate: None,
        projection: None,
    }
}

/// Apply layers bottom-up. Invariant: the running plan always has schema
/// (k: Int, v: Int?) so every layer composes; `sorted` tracks whether the
/// stream is ordered by column 0 (required by MergeJoinSelf).
fn build_plan(layers: &[Layer]) -> PlanNode {
    let mut plan = base_scan("fact");
    let mut sorted = false;
    let mut aggregated = false;
    for layer in layers {
        if aggregated {
            break; // aggregate output schema differs; stop stacking
        }
        plan = match layer {
            // Filters preserve order, so `sorted` is untouched.
            Layer::Filter(bound) => PlanNode::Filter {
                input: Box::new(plan),
                predicate: Expr::col(1).le(Expr::lit(*bound)),
            },
            Layer::Project => PlanNode::Project {
                input: Box::new(plan),
                exprs: vec![
                    (Expr::col(0), "k".into()),
                    (Expr::col(1).add(Expr::lit(0)), "v".into()),
                ],
            },
            Layer::SortAsc => {
                sorted = true;
                PlanNode::Sort {
                    input: Box::new(plan),
                    keys: vec![(0, true), (1, true)],
                }
            }
            Layer::Limit(n) => PlanNode::Limit {
                input: Box::new(plan),
                limit: *n,
            },
            Layer::Buffer(size) => PlanNode::Buffer {
                input: Box::new(plan),
                size: *size,
            },
            Layer::HashJoinDim => {
                sorted = false;
                // Join against dim and project back to (k, v).
                PlanNode::Project {
                    input: Box::new(PlanNode::HashJoin {
                        probe: Box::new(plan),
                        build: Box::new(base_scan("dim")),
                        probe_key: 0,
                        build_key: 0,
                    }),
                    exprs: vec![(Expr::col(0), "k".into()), (Expr::col(1), "v".into())],
                }
            }
            Layer::MergeJoinSelf => {
                // Requires sorted input: sort both sides explicitly.
                let sort = |p: PlanNode| PlanNode::Sort {
                    input: Box::new(p),
                    keys: vec![(0, true), (1, true)],
                };
                sorted = true;
                PlanNode::Project {
                    input: Box::new(PlanNode::MergeJoin {
                        left: Box::new(sort(plan)),
                        right: Box::new(sort(PlanNode::Limit {
                            input: Box::new(base_scan("dim")),
                            limit: 10,
                        })),
                        left_key: 0,
                        right_key: 0,
                    }),
                    exprs: vec![(Expr::col(0), "k".into()), (Expr::col(1), "v".into())],
                }
            }
            Layer::Aggregate => {
                aggregated = true;
                PlanNode::Aggregate {
                    input: Box::new(plan),
                    group_by: vec![0],
                    aggs: vec![
                        AggSpec::count_star("n"),
                        AggSpec::new(AggFunc::Sum, Expr::col(1), "s"),
                    ],
                }
            }
        };
    }
    let _ = sorted;
    plan
}

/// Result comparison: order-insensitive unless the plan's root guarantees
/// order (comparing sorted string signatures is sufficient for equivalence).
fn signature(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
    v.sort();
    v
}

fn check_no_stacked_or_blocking_buffers(node: &PlanNode) {
    if let PlanNode::Buffer { input, .. } = node {
        assert!(!input.is_blocking(), "refined buffer above blocking op");
        assert!(
            !matches!(**input, PlanNode::Buffer { .. }),
            "refined stacked buffers"
        );
    }
    for c in node.children() {
        check_no_stacked_or_blocking_buffers(c);
    }
}

/// Remove hand-placed buffer nodes so placement invariants apply only to
/// buffers the *refiner* adds (it intentionally preserves user buffers).
fn strip_buffers(node: &PlanNode) -> PlanNode {
    match node {
        PlanNode::Buffer { input, .. } => strip_buffers(input),
        _ => node.with_inputs(node.children().into_iter().map(strip_buffers).collect()),
    }
}

#[test]
fn refinement_preserves_any_plan() {
    let c = catalog();
    let machine = MachineConfig::pentium4_like();
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n_layers = rng.gen_range(0usize..5);
        let layers: Vec<Layer> = (0..n_layers).map(|_| random_layer(&mut rng)).collect();
        let plan = build_plan(&layers);
        // The generated plan must validate.
        plan.output_schema(&c)
            .expect("generated plan must be valid");

        let baseline = collect(&plan, &c, &machine).unwrap();

        let refined = refine_plan(&plan, &c, &RefineConfig::default());
        let refined_rows = collect(&refined, &c, &machine).unwrap();
        assert_eq!(
            signature(&baseline),
            signature(&refined_rows),
            "seed {seed}: {layers:?}"
        );

        // Placement invariants apply to refiner-added buffers: strip the
        // hand-placed ones first, then refine and check.
        let stripped = strip_buffers(&plan);
        let refined_clean = refine_plan(&stripped, &c, &RefineConfig::default());
        check_no_stacked_or_blocking_buffers(&refined_clean);
        let clean_rows = collect(&refined_clean, &c, &machine).unwrap();
        assert_eq!(
            signature(&baseline),
            signature(&clean_rows),
            "seed {seed}: {layers:?}"
        );

        // Refinement is idempotent.
        let again = refine_plan(&refined, &c, &RefineConfig::default());
        assert_eq!(
            again.buffer_count(),
            refined.buffer_count(),
            "seed {seed}: {layers:?}"
        );
    }
}

/// The keys' definition, kept as the oracle: FNV-1a over `format!("{:?}")`
/// renderings. The engine hashes without rendering; the values must not
/// move (they are committed in `BENCH_plancache.json` and `sys.plan_cache`).
mod key_oracle {
    use super::*;

    pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        (bytes.iter()).fold(hash, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    pub fn subtree_hash(plan: &PlanNode) -> u64 {
        fnv1a(0xcbf2_9ce4_8422_2325, format!("{plan:?}").as_bytes())
    }

    pub fn plan_machine(plan: &PlanNode, machine: &MachineConfig) -> u64 {
        fnv1a(subtree_hash(plan), format!("{machine:?}").as_bytes())
    }

    pub fn reuse_key(plan: &PlanNode, machine: &MachineConfig, epoch: u64) -> u64 {
        fnv1a(plan_machine(plan, machine), &epoch.to_le_bytes())
    }

    pub fn fingerprint(
        plan: &PlanNode,
        machine: &MachineConfig,
        threads: usize,
        epoch: u64,
        refine: &RefineConfig,
        mode: ExecModePolicy,
    ) -> u64 {
        let mut h = fnv1a(plan_machine(plan, machine), &(threads as u64).to_le_bytes());
        h = fnv1a(h, &epoch.to_le_bytes());
        h = fnv1a(h, &(refine.l1i_capacity as u64).to_le_bytes());
        h = fnv1a(h, &refine.cardinality_threshold.to_bits().to_le_bytes());
        h = fnv1a(h, &(refine.buffer_size as u64).to_le_bytes());
        fnv1a(h, mode.label().as_bytes())
    }
}

#[test]
fn cache_keys_equal_fnv1a_of_the_debug_renderings() {
    use bufferdb::core::prepare::{reuse_key, subtree_hash};
    use bufferdb::tpch::{self, queries};

    let tpch_catalog = tpch::generate_catalog(0.001, 42);
    let mut plans: Vec<PlanNode> = [
        queries::paper_query1(&tpch_catalog),
        queries::paper_query2(&tpch_catalog),
        queries::paper_query3(&tpch_catalog, queries::JoinMethod::NestLoop),
        queries::paper_query3(&tpch_catalog, queries::JoinMethod::HashJoin),
        queries::paper_query3(&tpch_catalog, queries::JoinMethod::MergeJoin),
        queries::tpch_q1(&tpch_catalog),
        queries::tpch_q6(&tpch_catalog),
        queries::tpch_q12(&tpch_catalog),
        queries::tpch_q14(&tpch_catalog),
    ]
    .into_iter()
    .map(|p| p.expect("TPC-H plan"))
    .collect();
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n_layers = rng.gen_range(0usize..6);
        let layers: Vec<Layer> = (0..n_layers).map(|_| random_layer(&mut rng)).collect();
        plans.push(build_plan(&layers));
    }
    // Refined and fused forms add Buffer and PushPipeline nodes.
    let physical: Vec<PlanNode> = (plans.iter().take(9))
        .flat_map(|p| {
            [ExecModePolicy::BufferedPull, ExecModePolicy::Push].map(|mode| {
                prepare_plan_parts_with_mode(p, &tpch_catalog, &RefineConfig::default(), 2, mode)
                    .expect("prepares")
                    .physical
            })
        })
        .collect();
    plans.extend(physical);

    let machines = [
        MachineConfig::pentium4_like(),
        MachineConfig::large_l1i(),
        MachineConfig::ultrasparc_like(),
        MachineConfig::athlon_like(),
    ];
    let tight = RefineConfig {
        l1i_capacity: 8 * 1024,
        ..RefineConfig::default()
    };
    let modes = [
        ExecModePolicy::Pull,
        ExecModePolicy::BufferedPull,
        ExecModePolicy::Push,
    ];
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(subtree_hash(plan), key_oracle::subtree_hash(plan));
        for sub in plan.children() {
            assert_eq!(subtree_hash(sub), key_oracle::subtree_hash(sub));
        }
        for machine in &machines {
            let epoch = i as u64 * 31;
            assert_eq!(
                reuse_key(plan, machine, epoch),
                key_oracle::reuse_key(plan, machine, epoch)
            );
            let (threads, refine) = (
                1 + i % 4,
                if i % 2 == 0 {
                    &tight
                } else {
                    &RefineConfig::default()
                },
            );
            let mode = modes[i % modes.len()];
            assert_eq!(
                fingerprint_plan_with_mode(plan, machine, threads, epoch, refine, mode).raw(),
                key_oracle::fingerprint(plan, machine, threads, epoch, refine, mode)
            );
        }
    }

    // The facade keys from its session's cached machine rendering.
    for machine in machines {
        let db = Database::open(catalog(), machine.clone()).with_exec_mode(ExecModePolicy::Push);
        let epoch = db.catalog().stats_epoch();
        for plan in plans.iter().skip(9).take(40) {
            let prepared = db.prepare(plan).expect("prepares");
            assert_eq!(
                prepared.fingerprint().raw(),
                key_oracle::fingerprint(
                    plan,
                    &machine,
                    1,
                    epoch,
                    db.refine_config(),
                    ExecModePolicy::Push
                )
            );
        }
    }
}
