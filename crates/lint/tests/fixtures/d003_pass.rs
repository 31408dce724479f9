// Should-pass fixture for D003: an explicit worker count is fine, and so
// is importing a probe without calling it (imports are rustc's business).

use std::thread::available_parallelism;

struct Config {
    workers: usize,
}

impl Config {
    pub fn workers(&self) -> usize {
        self.workers.max(1)
    }
}

fn spawn_workers(config: &Config) -> usize {
    let n = config.workers();
    std::thread::scope(|_s| n)
}
