//! The host-speed reference: a fixed kernel with no repository code in
//! it, so that its time moves only with the machine.
//!
//! `perfbench-probe calibrate` runs the kernel once and prints its
//! seconds. The kernel mixes what the workloads do: allocation churn,
//! random lookups in a table larger than the L2 (as the simulated caches
//! and predictors do) and building a large text document and copying it
//! (as manifest, cache and journal writes do).

use std::fmt::Write as _;
use std::time::Instant;

/// Table entries: 12 MiB of `u64`.
const TABLE: usize = (12 << 20) / 8;
const ROUNDS: u64 = 2;

pub fn main() -> Result<(), String> {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut acc = 0u64;
    let mut doc = String::new();
    for round in 0..ROUNDS {
        let rows: Vec<Vec<u32>> = (0..2000)
            .map(|i| {
                (0..64 + (i % 7) * 128)
                    .map(|_| next() as u32 & 0xfff)
                    .collect()
            })
            .collect();
        for row in &rows {
            for &e in row {
                let slot = table[(u64::from(e) * 977 + acc) as usize % TABLE];
                acc = if slot & 1 == 0 {
                    acc.wrapping_add(slot)
                } else {
                    acc ^ u64::from(e)
                };
            }
        }
        doc.clear();
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(
                doc,
                "{{\"key\": \"r{round}/{i}\", \"sum\": {}}},",
                row.iter().sum::<u32>()
            );
            if i % 64 == 0 {
                acc = acc.wrapping_add(doc.clone().len() as u64);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    // Printing `acc` keeps the optimizer from dropping the work.
    println!("{seconds:.9} {}", acc & 0xff);
    Ok(())
}
