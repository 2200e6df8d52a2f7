//! The shard-worker binary: one process, one serving engine, one shard.
//!
//! Spawned by a [`cluster::Coordinator`] with its socket path and vertex
//! range in the environment (see [`cluster::worker`]); everything else —
//! the path of its bootstrap snapshot, the update stream, queries —
//! arrives over the socket.

fn main() {
    let config = cluster::WorkerConfig::from_env().unwrap_or_else(|| {
        eprintln!(
            "shard-worker: set {} (and optionally {} / {}) to run",
            cluster::worker::SOCKET_ENV,
            cluster::worker::SHARD_LO_ENV,
            cluster::worker::SHARD_HI_ENV,
        );
        std::process::exit(2);
    });
    if let Err(e) = cluster::worker::run(&config) {
        eprintln!("shard-worker: {e}");
        std::process::exit(1);
    }
}
