//! Figure 9: switch microbenchmark (snake test), §7.2.
//!
//! Paper result: 2.24 BQPS regardless of value size (Fig. 9(a), 32-128 B)
//! and regardless of cache size (Fig. 9(b), 1K-64K items) — bottlenecked
//! by the senders (2 × 35 MQPS × 32 snake replication), with the ASIC
//! itself capable of >4 BQPS.
//!
//! This binary reproduces both panels on the software data plane:
//!
//! 1. the *modelled* snake-test line rate, which is flat by construction
//!    once the program compiles to the pipeline (the ASIC processes any
//!    compiled program at line rate, §7.2);
//! 2. the *measured* software packet rate of this reproduction's pipeline,
//!    demonstrating the same flatness property: processing cost does not
//!    grow with value size or cache occupancy.

use std::time::Instant;

use netcache::json::fmt_f64;
use netcache_bench::scenario::{fig_json, parse_cli, write_json_file};
use netcache_bench::{banner, fmt_qps};
use netcache_dataplane::{LookupEntry, NetCacheSwitch, SwitchConfig};
use netcache_proto::{Key, Packet, Value};

const CLIENT_IP: u32 = 0x0a00_0001;
const SERVER_IP: u32 = 0x0a00_0101;
const CLIENT_PORT: u16 = 60;
const SERVER_PORT: u16 = 1;

/// Builds a prototype-config switch with `items` cached at `value_len`.
fn build_switch(items: usize, value_len: usize) -> NetCacheSwitch {
    let config = SwitchConfig::prototype();
    let mut sw = NetCacheSwitch::new(config).expect("prototype fits the ASIC");
    sw.add_route(CLIENT_IP, 32, CLIENT_PORT);
    sw.add_route(SERVER_IP, 32, SERVER_PORT);
    let units = value_len.div_ceil(16).max(1);
    let bitmap = ((1u16 << units) - 1) as u8;
    for i in 0..items {
        let key = Key::from_u64(i as u64);
        let value = Value::for_item(i as u64, value_len);
        sw.write_value(0, bitmap, i as u32, 1, &value);
        sw.insert_entry(
            key,
            LookupEntry {
                bitmap,
                value_index: i as u32,
                key_index: i as u32,
                egress_port: SERVER_PORT,
                value_len: value_len as u16,
                passes: 1,
            },
        )
        .expect("capacity suffices");
        sw.install_status(0, i as u32, 1, value_len as u16);
    }
    sw
}

/// Measures software MQPS for `n` cache-hit reads over `items` keys.
fn measure_read_mqps(sw: &mut NetCacheSwitch, items: usize, n: usize) -> f64 {
    let queries: Vec<Packet> = (0..1024)
        .map(|i| {
            Packet::get_query(
                1,
                CLIENT_IP,
                SERVER_IP,
                Key::from_u64((i * 31) as u64 % items as u64),
                i as u32,
            )
        })
        .collect();
    let start = Instant::now();
    let mut served = 0usize;
    for i in 0..n {
        let out = sw.process(queries[i % queries.len()].clone(), CLIENT_PORT);
        served += usize::from(out.is_some());
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(served, n, "all reads must hit");
    n as f64 / secs / 1e6
}

/// Measures software MQPS for `n` data-plane value updates.
fn measure_update_mqps(sw: &mut NetCacheSwitch, items: usize, value_len: usize, n: usize) -> f64 {
    let updates: Vec<Packet> = (0..1024)
        .map(|i| {
            let id = (i * 17) as u64 % items as u64;
            Packet::cache_update(
                SERVER_IP,
                0x0a00_00fe,
                Key::from_u64(id),
                2 + i as u32,
                Value::for_item(id, value_len),
            )
        })
        .collect();
    let start = Instant::now();
    for i in 0..n {
        sw.process(updates[i % updates.len()].clone(), SERVER_PORT);
    }
    let secs = start.elapsed().as_secs_f64();
    n as f64 / secs / 1e6
}

/// The modelled snake-test throughput: 2 senders × `sender_mqps` each,
/// replicated by looping through `loop_ports` port pairs (§7.1, §7.2).
fn snake_model_qps(sender_mqps: f64, loop_ports: u64) -> f64 {
    2.0 * sender_mqps * 1e6 * loop_ports as f64
}

/// The figure's JSON document. No seed moves these rows (the queries and
/// updates are fixed, the rates are wall-clock), so none is recorded.
fn envelope(rows: &[String]) -> String {
    fig_json("fig09", None, rows)
}

fn main() {
    let cli = parse_cli("fig09_microbench", "");
    let mut rows = Vec::new();
    banner(
        "Figure 9(a)",
        "switch throughput vs value size (read and update)",
    );
    println!(
        "{:>10} {:>16} {:>18} {:>18}",
        "value(B)", "modelled(snake)", "sw read (MQPS)", "sw update (MQPS)"
    );
    let n = 400_000;
    let mut read_rates = Vec::new();
    for value_len in [32usize, 64, 96, 128] {
        let items = 65_536;
        let mut sw = build_switch(items, value_len);
        let read = measure_read_mqps(&mut sw, items, n);
        let update = measure_update_mqps(&mut sw, items, value_len, n / 2);
        let modelled = snake_model_qps(35.0, 32);
        read_rates.push(read);
        println!(
            "{:>10} {:>16} {:>18.2} {:>18.2}",
            value_len,
            fmt_qps(modelled),
            read,
            update
        );
        rows.push(format!(
            "{{\"name\":\"value-{value_len}\",\"panel\":\"a\",\
             \"value_len\":{value_len},\"modelled_qps\":{},\
             \"read_mqps\":{},\"update_mqps\":{}}}",
            fmt_f64(modelled),
            fmt_f64(read),
            fmt_f64(update),
        ));
    }
    let spread = read_rates.iter().cloned().fold(f64::MIN, f64::max)
        / read_rates.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "  -> read-rate spread across value sizes: {spread:.2}x \
         (paper: flat line at 2.24 BQPS)"
    );

    banner(
        "Figure 9(b)",
        "switch throughput vs cache size (128 B values)",
    );
    println!(
        "{:>10} {:>16} {:>18}",
        "items", "modelled(snake)", "sw read (MQPS)"
    );
    let mut rates = Vec::new();
    for items in [1_024usize, 4_096, 16_384, 65_536] {
        let mut sw = build_switch(items, 128);
        let read = measure_read_mqps(&mut sw, items, n);
        rates.push(read);
        println!(
            "{:>10} {:>16} {:>18.2}",
            items,
            fmt_qps(snake_model_qps(35.0, 32)),
            read
        );
        rows.push(format!(
            "{{\"name\":\"items-{items}\",\"panel\":\"b\",\"items\":{items},\
             \"modelled_qps\":{},\"read_mqps\":{}}}",
            fmt_f64(snake_model_qps(35.0, 32)),
            fmt_f64(read),
        ));
    }
    let spread = rates.iter().cloned().fold(f64::MIN, f64::max)
        / rates.iter().cloned().fold(f64::MAX, f64::min);
    println!("  -> read-rate spread across cache sizes: {spread:.2}x (paper: flat)");
    println!();
    println!(
        "Modelled snake test: 2 servers x 35 MQPS x 32 loops = {} \
         (paper: 2.24 BQPS; ASIC capable of >4 BQPS)",
        fmt_qps(snake_model_qps(35.0, 32))
    );
    if let Some(path) = cli.json {
        write_json_file(&path, &envelope(&rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache::Json;

    #[test]
    fn envelope_records_no_seed() {
        let doc = Json::parse(&envelope(&[])).expect("valid json");
        assert!(matches!(doc.get("seed"), Some(Json::Null)));
        assert_eq!(doc.get("figure").and_then(Json::as_str), Some("fig09"));
    }
}
