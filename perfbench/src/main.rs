//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Bad arguments exit 2 without printing a result.

use perfbench::{run, Options, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")));
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds {value:?}")));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace {value:?}")),
                };
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Options {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let opts = parse();
    let outcome = run(&opts);
    for line in &outcome.report {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", outcome.json());
}
