//! Multi-process task management: two processes share one compute node's
//! MMAE through the MTQ/STQ protocol, including the Fig. 3 exception path.
//!
//! ```sh
//! cargo run --release --example multiprocess
//! ```

use maco::core::node::ComputeNode;
use maco::isa::mtq::QueryOutcome;
use maco::isa::params::GemmParams;
use maco::isa::{Asid, Precision};
use maco::sim::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("MPAIS multi-process demo (Fig. 3 protocol)");
    println!("-------------------------------------------");

    // Process A: a well-formed task on a node with mapped matrices.
    let mut node = ComputeNode::new(Asid::new(1));
    let n = 256u64;
    node.map(0x1000_0000, 4 * n * n * 8)?;
    let bytes = n * n * 8;
    let params = GemmParams::new(
        0x1000_0000,
        0x1000_0000 + bytes,
        0x1000_0000 + 2 * bytes,
        0x1000_0000 + 3 * bytes,
        n,
        n,
        n,
        Precision::Fp64,
    )?;
    let (maid, report) = node.run_gemm(&params, SimTime::ZERO)?;
    let report = report.expect("clean completion");
    println!(
        "process A: {maid} completed at {:.1} GFLOPS ({:.1}% efficiency)",
        report.gflops(),
        report.efficiency() * 100.0
    );
    println!("           MA_STATE -> {:?}", node.query_release(maid)?);

    // Process B: an unmapped task — the MMAE raises a translation fault,
    // the MTQ entry holds the exception until MA_CLEAR.
    let mut node_b = ComputeNode::new(Asid::new(2));
    let (maid_b, report_b) = node_b.run_gemm(&params, SimTime::ZERO)?;
    assert!(report_b.is_none());
    let outcome = node_b.query_release(maid_b)?;
    println!("process B: {maid_b} -> {outcome:?}");
    let QueryOutcome::Done { exception: Some(e) } = outcome else {
        panic!("an unmapped task must end in an exception, got {outcome:?}");
    };
    println!("           exception: {e}; issuing MA_CLEAR");
    node_b.clear(maid_b)?;
    let in_use = node_b.cpu().mtq().in_use();
    println!("           MTQ entries in use: {in_use}");
    assert_eq!(in_use, 0, "MA_CLEAR frees the excepted entry");
    Ok(())
}
