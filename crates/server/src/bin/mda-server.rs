//! The `mda-server` binary: serve the six distance functions and the
//! mining primitives over TCP, with graceful drain on SIGINT/SIGTERM.
//!
//! ```text
//! mda-server [--addr HOST:PORT] [--workers N]
//!            [--max-queue-items N] [--batch-max-items N]
//!            [--default-deadline-ms MS] [--max-connections N]
//!            [--max-pipeline-depth N] [--write-high-water BYTES]
//!            [--dataset-max-bytes BYTES] [--fleet-watts W]
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mda_server::{Server, ServerConfig};

/// Set from the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Installs a minimal async-signal-safe handler without any crate
/// dependency: `signal(2)` is in libc, which every Rust binary on this
/// platform already links.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe; the handler address outlives the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mda-server [--addr HOST:PORT] [--workers N]\n\
         \x20                 [--max-queue-items N] [--batch-max-items N]\n\
         \x20                 [--default-deadline-ms MS] [--max-connections N]\n\
         \x20                 [--max-pipeline-depth N] [--write-high-water BYTES]\n\
         \x20                 [--dataset-max-bytes BYTES] [--fleet-watts W]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = Some(parse_num(&value("--workers"), "--workers")),
            "--max-queue-items" => {
                config.max_queue_items =
                    parse_num(&value("--max-queue-items"), "--max-queue-items");
            }
            "--batch-max-items" => {
                config.batch_max_items =
                    parse_num(&value("--batch-max-items"), "--batch-max-items");
            }
            "--default-deadline-ms" => {
                let ms: u64 = parse_num(&value("--default-deadline-ms"), "--default-deadline-ms");
                config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--max-connections" => {
                config.max_connections =
                    parse_num(&value("--max-connections"), "--max-connections");
            }
            "--max-pipeline-depth" => {
                config.max_pipeline_depth =
                    parse_num(&value("--max-pipeline-depth"), "--max-pipeline-depth");
            }
            "--write-high-water" => {
                config.write_high_water =
                    parse_num(&value("--write-high-water"), "--write-high-water");
            }
            "--dataset-max-bytes" => {
                config.dataset_max_bytes =
                    parse_num(&value("--dataset-max-bytes"), "--dataset-max-bytes");
            }
            "--fleet-watts" => {
                config.fleet_power_w = parse_num(&value("--fleet-watts"), "--fleet-watts");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    config
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value `{s}` for {flag}");
        usage();
    })
}

fn main() {
    let config = parse_args();
    install_signal_handlers();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mda-server: {e}");
            std::process::exit(1);
        }
    };
    println!("mda-server listening on {}", server.local_addr());
    println!("metrics: GET http://{}/", server.local_addr());

    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("mda-server: signal received, draining…");
    server.shutdown_and_join();
    eprintln!("mda-server: drained, bye");
}
