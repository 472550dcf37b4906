//! Ablation studies of the design choices: decomposition strategy,
//! temporal-fusion depth and cost-model sensitivity.

fn main() {
    let model = tcu_sim::CostModel::a100();
    println!("{}", bench_suite::ablation::decomposition_ablation(&model));
    println!();
    println!("{}", bench_suite::ablation::fusion_sweep(&model));
    println!();
    println!("{}", bench_suite::ablation::sensitivity(&model));
}
