//! `optimatch` binary: thin wrapper over [`optimatch_cli::run_with_status`].
//!
//! Exit codes: 0 = success, 1 = hard failure, 2 = a scan completed but
//! contained incidents (degraded — reports are valid but not exhaustive).
//! A reader that closes the pipe early (`optimatch … | head`) does not
//! change the exit code.

use std::io::{ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match optimatch_cli::run_with_status(&argv) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.text.as_bytes())
                .and_then(|()| stdout.flush())
            {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("optimatch: {e}");
                    std::process::exit(1);
                }
            }
            if output.degraded {
                std::process::exit(optimatch_cli::EXIT_DEGRADED);
            }
        }
        Err(e) => {
            eprintln!("optimatch: {e}");
            std::process::exit(1);
        }
    }
}
