//! The parallel helpers run on a persistent worker pool: repeated calls
//! must reuse its threads instead of spawning fresh OS threads per call.
#![cfg(target_os = "linux")]

use fpdq_tensor::parallel::{num_threads, parallel_rows_in};
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn parallel_calls_do_not_spawn_threads_per_call() {
    fn os_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .count()
    }

    let before = os_threads();
    let runners = Mutex::new(HashSet::new());
    let mut out = vec![0.0f32; 64];
    for _ in 0..1000 {
        parallel_rows_in(2, &mut out, 64, 1, 1, |_, chunk| {
            runners.lock().unwrap().insert(std::thread::current().id());
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        });
    }
    let grown = os_threads().saturating_sub(before);
    assert!(out.iter().all(|&v| v == 1000.0), "every row covered once per call");
    assert!(grown <= num_threads(), "{grown} threads added over 1000 calls");
    // Spawned-and-joined threads leave no trace in /proc, but each one has a
    // fresh `ThreadId`: only the pool's workers and this thread may run chunks.
    let runners = runners.lock().unwrap().len();
    assert!(runners <= num_threads(), "chunks ran on {runners} distinct threads");
}
