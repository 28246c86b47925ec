//! The server under test: `pi-server` as a user builds it, journaled in the directory
//! named by the first argument, with per-tenant queues of the optional second argument's
//! statements (the default bound without it).
//!
//! Prints the bound loopback address on the first line of stdout, then serves until
//! stdin closes (graceful shutdown) or the process is killed.
//!
//! ```sh
//! perfbench-server <journal-dir> [queue-depth]
//! ```

use perfbench::sut::{pool_options, HTTP_THREADS};
use pi_server::{Server, ServerOptions};
use std::io::{Read, Write};

fn main() -> std::io::Result<()> {
    let usage = || std::io::Error::other("usage: perfbench-server <journal-dir> [queue-depth]");
    let mut args = std::env::args_os().skip(1);
    let dir = args
        .next()
        .map(std::path::PathBuf::from)
        .ok_or_else(usage)?;
    let queue_depth = match args.next() {
        Some(depth) => Some(
            depth
                .to_str()
                .and_then(|d| d.parse::<usize>().ok())
                .ok_or_else(usage)?,
        ),
        None => None,
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            http_threads: HTTP_THREADS,
            pool: pool_options(&dir, queue_depth),
            spill_dir: None,
        },
    )?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", server.addr())?;
    stdout.flush()?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}
