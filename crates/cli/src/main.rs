//! `qse` — the command-line interface to the reproduction.
//!
//! ```sh
//! qse help
//! qse run --qubits 12 --ranks 4 --circuit grover
//! qse model --qubits 44 --fast
//! qse sweep --from 33 --to 44 --gpu
//! qse transpile --qubits 16 --ranks 8
//! ```

// Source rule R5 (DESIGN §8).
#![cfg_attr(not(test), deny(unsafe_code, clippy::undocumented_unsafe_blocks))]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::Args::parse(raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::help_text());
            return ExitCode::FAILURE;
        }
    };
    match commands::dispatch(&parsed) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
