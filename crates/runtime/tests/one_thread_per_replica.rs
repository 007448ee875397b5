//! One thread per replica: a booted cluster adds its replicas' event
//! loops to the process and nothing per connection — no accept thread, no
//! reader per peer or client. The count is `/proc/self/status`'s, so
//! this, like the host's epoll readiness source, is Linux-only. It is
//! the only test in its binary, so no other test's threads are counted.
#![cfg(target_os = "linux")]

use probft_runtime::LiveSmrBuilder;

/// The process's `Threads:` line.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_sixteen_replica_cluster_adds_at_most_one_thread_per_replica() {
    let n = 16;
    let before = threads();
    let cluster = LiveSmrBuilder::new(n).seed(3).start().expect("boots");
    let mut client = cluster.client(1);
    // A few decided slots: every replica has by now sent to (and so
    // connected to) the peers its samples name, and accepted theirs —
    // ≈ n² connections, each of which a thread-per-connection host would
    // read on a thread of its own.
    for i in 0..4 {
        client.put(&format!("k{i}"), "v").expect("applied");
    }
    let booted = threads();
    let reports = cluster.shutdown();
    assert!(reports.iter().all(|r| r.state.get("k3") == Some("v")));
    assert!(
        booted <= before + n,
        "{n} replicas raised the thread count {before} → {booted}"
    );
}
