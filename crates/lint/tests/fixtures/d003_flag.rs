// Should-flag fixture for D003: thread-environment probes in a
// result-affecting crate, whatever fn they sit in. Expected findings:
// 3 × D003.

fn pick_shard_count() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn worker_tag() -> String {
    format!("{:?}", std::thread::current().id())
}

struct CongestConfig {
    threads: usize,
}

impl CongestConfig {
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.threads
        }
    }
}
