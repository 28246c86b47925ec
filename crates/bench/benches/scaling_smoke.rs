//! Release-mode smoke check that parallel mining actually pays for itself.
//!
//! CI runs this after the tier-1 suite: it builds the duplicate-heavy AllPairs workload
//! serially and with mining's fan-out at the box's core count (scoped workers claiming
//! chunks of missing shape pairs from one counter), asserts the two graphs are
//! byte-identical, and then asserts the parallel mean is no slower than the
//! serial mean over interleaved samples (alternating arms so frequency drift cancels).
//!
//! On a single-core box there is no parallelism to demonstrate — auto-sized parallel mining
//! correctly falls back to the serial path there, so the timing comparison would measure
//! noise against itself.  The smoke therefore still verifies the byte-identity contract
//! with forced worker threads, but skips the speed assertion and exits 0 with a note.

use pi_graph::{GraphBuilder, IntoQueryLog, QueryLog, WindowStrategy};
use pi_workloads::olap;

const LOG_SIZE: usize = 512;
const SAMPLES: usize = 5;

/// A Zipf-repetitive log of ~64 distinct shapes, so the memoized distinct-pair alignment
/// is the dominant cost the fan-out spreads out.
fn dedup_log() -> QueryLog {
    olap::repetitive_walk(3, LOG_SIZE, 64)
        .queries
        .into_query_log()
}

fn mean_build_ns(builder: &GraphBuilder, queries: &QueryLog, samples: &mut Vec<f64>) {
    let start = std::time::Instant::now();
    let graph = std::hint::black_box(builder.build(queries));
    samples.push(start.elapsed().as_nanos() as f64);
    drop(graph); // deallocation outside the timed window
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let queries = dedup_log();
    let serial = GraphBuilder::new()
        .window(WindowStrategy::AllPairs)
        .threads(1);
    let parallel = GraphBuilder::new()
        .window(WindowStrategy::AllPairs)
        .threads(cores.max(2));

    // Byte-identity holds on any box: forced worker counts spawn real worker threads
    // even when they time-slice a single core.
    assert_eq!(
        serial.build(&queries),
        parallel.build(&queries),
        "parallel AllPairs mining diverged from serial"
    );
    println!("scaling_smoke: byte-identity ok ({cores} core(s))");

    if cores < 2 {
        println!("scaling_smoke: <2 cores, skipping the speedup assertion");
        return;
    }

    let mut serial_ns = Vec::with_capacity(SAMPLES);
    let mut parallel_ns = Vec::with_capacity(SAMPLES);
    // One warm-up build per arm, then interleaved samples.
    mean_build_ns(&serial, &queries, &mut Vec::new());
    mean_build_ns(&parallel, &queries, &mut Vec::new());
    for _ in 0..SAMPLES {
        mean_build_ns(&serial, &queries, &mut serial_ns);
        mean_build_ns(&parallel, &queries, &mut parallel_ns);
    }
    let mean = |ns: &[f64]| ns.iter().sum::<f64>() / ns.len() as f64;
    let (serial_mean, parallel_mean) = (mean(&serial_ns), mean(&parallel_ns));
    println!(
        "scaling_smoke: AllPairs serial {:.3} ms, parallel({}) {:.3} ms ({:.2}x)",
        serial_mean / 1e6,
        cores.max(2),
        parallel_mean / 1e6,
        serial_mean / parallel_mean,
    );
    assert!(
        parallel_mean <= serial_mean,
        "parallel AllPairs mining ({:.3} ms) slower than serial ({:.3} ms) on {cores} cores",
        parallel_mean / 1e6,
        serial_mean / 1e6,
    );
}
