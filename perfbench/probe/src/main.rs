//! The benchmark's in-process half (see `perfbench/README.md`).
//!
//! ```text
//! perfbench-probe client SPEC_DIR
//! perfbench-probe layers --seed N --specs SPEC_DIR --out DIR
//! perfbench-probe calibrate
//! ```
//!
//! `client` is the service workload's single-process client; `layers`
//! is the traced per-layer run; `calibrate` times the host-speed
//! reference kernel. Exit code 2 on usage or I/O errors.

mod calibrate;
mod client;
mod layers;
mod spans;

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: perfbench-probe client SPEC_DIR | layers --seed N --specs DIR --out DIR | calibrate");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("calibrate") if args.len() == 1 => calibrate::main(),
        Some("client") if args.len() == 2 => client::main(&PathBuf::from(&args[1])),
        Some("layers") => {
            let (mut seed, mut specs, mut out) = (None, None, None);
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                let value = rest.next().unwrap_or_else(|| usage());
                match flag.as_str() {
                    "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
                    "--specs" => specs = Some(PathBuf::from(value)),
                    "--out" => out = Some(PathBuf::from(value)),
                    _ => usage(),
                }
            }
            match (seed, specs, out) {
                (Some(seed), Some(specs), Some(out)) => layers::main(seed, &specs, &out),
                _ => usage(),
            }
        }
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("perfbench-probe: {e}");
        std::process::exit(2);
    }
}
