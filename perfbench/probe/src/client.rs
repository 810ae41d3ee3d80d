//! The service workload's client: one process, one connection.
//!
//! `perfbench-probe client SPEC_DIR` reads the tenants' spec files
//! (`a0.spec`, `a1.spec`, `b0.spec`, `b1.spec`) once, then takes one
//! command per stdin line and answers each with one JSON line:
//!
//! ```text
//! cold HOST:PORT   submit every tenant's spec, stream each job to its
//!                  end, fetch its result document
//! warm HOST:PORT   the same against a restarted server; every document
//!                  must match the cold leg's byte for byte
//! quit
//! ```

use std::io::BufRead;
use std::path::Path;
use std::time::{Duration, Instant};

use unxpec_service::{Client, ServiceError};

use crate::spans::Tracer;

/// Submission order. `a0` and `a1` share one spec, so half their cells
/// are answered by the other's work; `b0` and `b1` differ.
pub const TENANTS: [&str; 4] = ["a0", "a1", "b0", "b1"];

/// One leg: every tenant submitted, streamed and fetched once.
pub struct Leg {
    /// Trials per tenant, in [`TENANTS`] order.
    pub trials: Vec<u64>,
    /// Trials answered without executing (cache or coalescing).
    pub cached: Vec<u64>,
    /// Failed plus skipped trials over all tenants.
    pub failed: u64,
    /// First submit to last document.
    pub wall: Duration,
    /// First submit to the first streamed trial event of `a0`.
    pub queue_wait: Duration,
    /// Result documents, in [`TENANTS`] order.
    pub docs: Vec<String>,
}

pub fn read_specs(dir: &Path) -> Result<Vec<String>, String> {
    TENANTS
        .iter()
        .map(|t| {
            let path = dir.join(format!("{t}.spec"));
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

/// Runs one leg against the server at `addr`.
pub fn run_leg(addr: &str, specs: &[String], tracer: &mut Tracer) -> Result<Leg, ServiceError> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    tracer.enter("service", "leg");
    let mut jobs = Vec::new();
    for (tenant, spec) in TENANTS.iter().zip(specs) {
        let (submitted, _) =
            tracer.time("service", "Client::submit", || client.submit(tenant, spec));
        jobs.push(submitted?);
    }
    let mut queue_wait = None;
    let mut statuses = Vec::new();
    for job in &jobs {
        tracer.enter("service", "Client::stream");
        let status = client.stream(&job.job, |_, _| {
            if queue_wait.is_none() {
                queue_wait = Some(start.elapsed());
            }
        });
        tracer.exit();
        statuses.push(status?);
    }
    let mut docs = Vec::new();
    for job in &jobs {
        let (doc, _) = tracer.time("service", "Client::results", || client.results(&job.job));
        docs.push(doc?);
    }
    let wall = tracer.exit();
    Ok(Leg {
        trials: jobs.iter().map(|j| j.trials).collect(),
        cached: statuses.iter().map(|s| s.cached).collect(),
        failed: statuses.iter().map(|s| s.failed + s.skipped).sum(),
        wall,
        queue_wait: queue_wait.unwrap_or(wall),
        docs,
    })
}

/// Checks a leg's documents: `a0` and `a1` submitted one spec, so their
/// documents must be identical; against `cold`, every document must be.
pub fn doc_mismatches(leg: &Leg, cold: Option<&Leg>) -> Vec<String> {
    let mut bad = Vec::new();
    if leg.docs[0] != leg.docs[1] {
        bad.push("a1's document differs from a0's".to_string());
    }
    if let Some(cold) = cold {
        for (i, tenant) in TENANTS.iter().enumerate() {
            if leg.docs[i] != cold.docs[i] {
                bad.push(format!(
                    "{tenant}'s warm document differs from its cold one"
                ));
            }
        }
    }
    bad
}

/// `text` as a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn leg_json(leg: &Leg, mismatches: &[String]) -> String {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let errors: Vec<String> = mismatches.iter().map(|m| json_str(m)).collect();
    format!(
        "{{\"ok\": true, \"trials\": [{}], \"cached\": [{}], \"failed\": {}, \"wall_s\": {:.9}, \"queue_wait_s\": {:.9}, \"doc_bytes\": {}, \"errors\": [{}]}}",
        list(&leg.trials),
        list(&leg.cached),
        leg.failed,
        leg.wall.as_secs_f64(),
        leg.queue_wait.as_secs_f64(),
        leg.docs.iter().map(String::len).sum::<usize>(),
        errors.join(", ")
    )
}

pub fn main(spec_dir: &Path) -> Result<(), String> {
    let specs = read_specs(spec_dir)?;
    let mut cold: Option<Leg> = None;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("read stdin: {e}"))?;
        let mut words = line.split_whitespace();
        let (command, addr) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        let reply = match command {
            "quit" => return Ok(()),
            "cold" | "warm" => match run_leg(addr, &specs, &mut Tracer::off()) {
                Ok(leg) => {
                    let reference = if command == "warm" {
                        cold.as_ref()
                    } else {
                        None
                    };
                    let mut mismatches = doc_mismatches(&leg, reference);
                    if command == "warm" && cold.is_none() {
                        mismatches.push("warm leg before any cold leg".to_string());
                    }
                    let reply = leg_json(&leg, &mismatches);
                    if command == "cold" {
                        cold = Some(leg);
                    }
                    reply
                }
                Err(e) => format!("{{\"ok\": false, \"error\": {}}}", json_str(&e.to_string())),
            },
            other => format!(
                "{{\"ok\": false, \"error\": {}}}",
                json_str(&format!("unknown command {other:?}"))
            ),
        };
        println!("{reply}");
    }
    Ok(())
}
