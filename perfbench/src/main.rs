//! Helper binary of the end-to-end benchmark (`perfbench/run.py` drives
//! it; see `perfbench/README.md`):
//!
//! ```text
//! perfbench prep  --dir D --scale N --seed S [--parts base,read,write]
//! perfbench drive --addr A --graph G --seconds T [--conn SCRIPT | --conn PRE+LOOP]…
//!                 [--probe SCRIPT --rate R]
//! perfbench trace --dir D --workload W --scale N --seed S --spans FILE [--script SCRIPT]…
//! ```

mod data;
mod drive;
mod trace;
mod util;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("prep") => data::prep(&args[1..]),
        Some("drive") => drive::drive(&args[1..]),
        Some("trace") => trace::trace(&args[1..]),
        _ => Err("usage: perfbench prep|drive|trace …".into()),
    };
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
