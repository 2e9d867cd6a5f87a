//! Figure 2 (center) — CDF of boundary size (as a fraction of the network
//! size) at α = 4.

use vicinity_bench::{print_header, timed, ExperimentEnv};
use vicinity_core::config::Alpha;
use vicinity_core::stats::{average_boundary_size, boundary_cdf};
use vicinity_core::OracleBuilder;

fn main() {
    let env = ExperimentEnv::from_env();
    print_header("Figure 2 (center): CDF of boundary size at alpha = 4", &env);

    const CDF_POINTS: usize = 10;
    for dataset in env.datasets() {
        let (oracle, build_time) = timed(|| {
            OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .seed(2012)
                .build(&dataset.graph)
        });
        let cdf = boundary_cdf(&oracle, &dataset.graph, CDF_POINTS);
        let average = average_boundary_size(&oracle, &dataset.graph);
        println!(
            "{} (n = {}, built in {:.1?})",
            dataset.name,
            dataset.node_count(),
            build_time
        );
        println!("{:>12} {:>22}", "CDF", "boundary size / n");
        for (fraction, quantile) in cdf {
            println!("{:>11.0}% {:>21.4}%", quantile * 100.0, fraction * 100.0);
        }
        println!(
            "  average boundary size: {:.1} nodes ({:.4}% of n)\n",
            average,
            100.0 * average / dataset.node_count() as f64
        );
    }
    println!("paper: worst-case boundary size is below 0.4% of the nodes for every dataset.");
}
