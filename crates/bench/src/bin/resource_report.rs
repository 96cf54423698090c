//! §6 resource claim: "our data plane implementation uses less than 50% of
//! the on-chip memory available in the Tofino ASIC, leaving enough space
//! for traditional network processing."
//!
//! Prints the per-stage placement of the prototype program on the modelled
//! ASIC profile and the total SRAM fraction. Exits non-zero when the
//! program does not fit the chip or uses 50% of its SRAM or more.

use std::process::ExitCode;

use netcache_dataplane::resources::Allocation;
use netcache_dataplane::{NetCacheSwitch, SwitchConfig};

fn main() -> ExitCode {
    let report = match NetCacheSwitch::new(SwitchConfig::prototype())
        .and_then(|switch| switch.compile_report().map_err(|e| e.to_string()))
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");
    let holds = report.sram_fraction() < 0.5;
    println!(
        "Paper claim: <50% of on-chip memory. Reproduced: {:.1}% -> {}",
        report.sram_fraction() * 100.0,
        if holds { "HOLDS" } else { "VIOLATED" }
    );
    println!();

    // The prototype's structures (§6), read back from the placed rows.
    let rows: Vec<&Allocation> = [&report.ingress, &report.egress]
        .into_iter()
        .flat_map(|map| map.stages().iter().flatten())
        .collect();
    let named = |name: &str| -> Vec<&Allocation> {
        rows.iter().copied().filter(|a| a.name == name).collect()
    };
    let total = |rows: &[&Allocation]| rows.iter().map(|a| a.sram_bytes).sum::<usize>();
    println!("Prototype configuration (§6):");
    for table in named("cache_lookup") {
        println!(
            "  cache lookup entries : {} (16-byte keys)",
            table.match_entries
        );
    }
    let values = named("value_stage");
    println!(
        "  value storage        : {} stages x {} slots x 16 B = {} MB",
        values.len(),
        values[0].sram_bytes / 16,
        total(&values) / (1024 * 1024)
    );
    let cms = named("stats.cms");
    println!(
        "  count-min sketch     : {} x {} x 16-bit = {} KB",
        cms.len(),
        cms[0].sram_bytes / 2,
        total(&cms) / 1024
    );
    let bloom = named("stats.bloom");
    println!(
        "  bloom filter         : {} x {} x 1-bit = {} KB",
        bloom.len(),
        bloom[0].sram_bytes * 8,
        total(&bloom) / 1024
    );
    if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
